//! Simulation-throughput benchmark: simulated **cycles/sec** and
//! **packets/sec** for each fabric (2D Swizzle, 3D folded, Hi-Rise,
//! and the iterative-matching schedulers iSLIP/ESLIP/wavefront) at
//! radix 16/32/64 under uniform-random load, recorded to
//! `BENCH_sim.json` at the repo root.
//!
//! This is the repo's performance trajectory file. Labels map to
//! arbitration kernels: `--label before` benchmarks the **scalar**
//! kernel, `--label after` the **word-parallel** kernel (the default
//! for every fabric constructor), so the recorded speedup is the word
//! kernel's gain over the scalar loops on the same simulator harness.
//! Re-running with one label refreshes that column in place and
//! recomputes the speedups without touching the other column.
//!
//! ```text
//! cyclebench [--quick] [--label before|after] [--out PATH]
//! cyclebench --sharded [--quick] [--out PATH]  # shard-scaling sweep
//! cyclebench --net [--quick] [--label before|after] [--out PATH]
//! cyclebench --check PATH    # validate an existing file's schema
//! cyclebench --smoke         # quick word-vs-scalar regression gate
//! cyclebench --net-smoke     # quick active-set-vs-dense regression gate
//! ```
//!
//! `--net` benchmarks the *network-level* engine (whole topologies of
//! switches rather than a single fabric) at one shard: the 8×8
//! radix-16 acceptance mesh under high and low load, plus a dragonfly.
//! Its labels map to network engines, not kernels: `before` is the
//! hash-map/dense engine (per-node `HashMap` routing metadata, every
//! router scanned every cycle), `after` the arena + active-set engine
//! (SoA packet arenas keyed by dense handles, only routers with work
//! visited).
//! Like the kernel grid, re-running one label refreshes that column in
//! place.
//!
//! `--smoke` runs the quick grid under both kernels and fails if the
//! word kernel falls below `SMOKE_FLOOR` x the scalar kernel's
//! throughput on any combination — a cheap CI gate against the word
//! path silently regressing to slower-than-scalar. It also runs the
//! sharded-mesh determinism gate: one quick mesh at 1 and 4 shards
//! must produce identical telemetry.
//!
//! `--net-smoke` is the same idea for the network engines: the quick
//! net shapes run under both per-cycle schedules at low load, and the
//! gate fails if the active-set schedule is slower than the dense
//! sweep anywhere (it should be strictly faster when most routers
//! idle) or if the two schedules disagree on telemetry.
//!
//! `--sharded` benchmarks one mesh of Hi-Rise switches through the
//! sharded lockstep engine at each shard count, recording simulated
//! cycles/sec and aggregate flits/sec into an additive `"sharded"`
//! section of the same results file (the per-fabric kernel rows are
//! preserved, and vice versa).
//!
//! Methodology: per (fabric, radix) one `NetworkSim` under uniform
//! random traffic at 0.1 packets/input/cycle (comfortably below the
//! 0.2 serialization bound, so queues are in steady state) is warmed
//! up untimed, then stepped through `reps` timed segments of
//! `cycles_per_rep` cycles each via `NetworkSim::run_cycles`; the
//! reported numbers are the medians across segments (mean of the two
//! middle segments when `reps` is even). The invariant checker is off
//! (it is a debugging aid, not part of the cycle loop).
//!
//! Schema history: `v1` files were written by a median that returned
//! the upper-middle element for even-length samples (biased high) and
//! carried an allocating-vs-scratch before/after split; `v2` fixes the
//! median and redefines the labels as scalar-vs-word kernels; `v3`
//! adds the additive `"net"` network-engine section (and its
//! `net_before_engine`/`net_after_engine` descriptors) without
//! changing any `v2` field, so `v2` files are loaded and migrated in
//! place on the next write. `v1` files are deliberately not loaded —
//! their numbers are not comparable.

use std::process::ExitCode;
use std::time::Instant;

use hirise_bench::args::arg_error;
use hirise_core::config::DEFAULT_FLIT_BITS;
use hirise_core::{
    ArbiterKernel, ArbitrationScheme, Fabric, FoldedSwitch, HiRiseConfig, HiRiseSwitch,
    MatchPolicy, MatchingSwitch, Switch2d,
};
use hirise_lab::json::{self, Json};
use hirise_sim::dragonfly::{DragonflyConfig, DragonflyGeometry};
use hirise_sim::mesh_sim::{MeshGeometry, MeshReport, MeshSimConfig};
use hirise_sim::shard::{sharded_mesh, ShardTopology, ShardedConfig, ShardedSim};
use hirise_sim::traffic::{TrafficPattern, UniformRandom};
use hirise_sim::{NetSchedule, NetworkSim, SimConfig};

const SCHEMA: &str = "hirise-cyclebench/v3";
/// Older schemas whose numbers are still comparable: loaded and
/// migrated to [`SCHEMA`] on the next write (`v3` is purely additive
/// over `v2`).
const COMPATIBLE_SCHEMAS: [&str; 1] = ["hirise-cyclebench/v2"];
const USAGE: &str = "cyclebench [--quick] [--label before|after] [--out PATH]\n       \
     cyclebench --sharded [--quick] [--out PATH]\n       \
     cyclebench --net [--quick] [--label before|after] [--out PATH]\n       \
     cyclebench --check PATH\n       cyclebench --smoke\n       cyclebench --net-smoke";
const FABRICS: [&str; 6] = [
    "switch2d",
    "folded3d",
    "hirise",
    "islip2",
    "eslip",
    "wavefront",
];
const RADICES: [usize; 3] = [16, 32, 64];
const INJECTION_RATE: f64 = 0.1;
const LAYERS: usize = 4;
const SEED: u64 = 0xC1C1_EB00;
/// Minimum word/scalar throughput ratio tolerated by `--smoke`. Below
/// 1.0 to absorb run-to-run noise on shared machines; a word kernel
/// that is genuinely slower than scalar lands well under this.
const SMOKE_FLOOR: f64 = 0.8;
/// Minimum active-set/dense throughput ratio tolerated by
/// `--net-smoke`. At the smoke load most routers are idle most cycles,
/// so a healthy active-set schedule lands well above parity; at 1.0
/// the gate catches it ever becoming pure overhead.
const NET_SMOKE_FLOOR: f64 = 1.0;
/// `--net-smoke` offered load: low on purpose, so the active set is
/// sparse and skipping is actually exercised.
const NET_SMOKE_INJECTION: f64 = 0.01;

/// Benchmark scale: timed cycles per segment and segment count.
struct Scale {
    warmup_cycles: u64,
    cycles_per_rep: u64,
    reps: usize,
    quick: bool,
}

impl Scale {
    fn full() -> Self {
        Self {
            warmup_cycles: 2_000,
            cycles_per_rep: 20_000,
            reps: 5,
            quick: false,
        }
    }

    fn quick() -> Self {
        Self {
            warmup_cycles: 500,
            cycles_per_rep: 2_000,
            reps: 3,
            quick: true,
        }
    }
}

/// One measured (cycles/sec, packets/sec) pair.
#[derive(Clone, Copy, Debug)]
struct Throughput {
    cycles_per_sec: f64,
    packets_per_sec: f64,
}

/// One (fabric, radix) row with up to two labelled measurements.
#[derive(Clone, Copy, Debug)]
struct Row {
    fabric: &'static str,
    radix: usize,
    before: Option<Throughput>,
    after: Option<Throughput>,
}

impl Row {
    fn speedup(&self) -> Option<f64> {
        match (self.before, self.after) {
            (Some(b), Some(a)) if b.cycles_per_sec > 0.0 => {
                Some(a.cycles_per_sec / b.cycles_per_sec)
            }
            _ => None,
        }
    }
}

/// Shard counts swept by `--sharded`.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Sharded-sweep mesh: radix and mesh ports per direction (8 endpoint
/// cores per node remain).
const SHARDED_RADIX: usize = 16;
const SHARDED_PPD: usize = 2;

/// One sharded measurement: simulated cycles/sec of the whole mesh and
/// aggregate delivered flits/sec, at one shard count.
#[derive(Clone, Copy, Debug)]
struct ShardedPoint {
    shards: usize,
    cycles_per_sec: f64,
    flits_per_sec: f64,
}

/// The `"sharded"` results section: the benched mesh geometry plus one
/// point per shard count.
#[derive(Clone, Debug)]
struct ShardedSection {
    cols: usize,
    rows: usize,
    points: Vec<ShardedPoint>,
}

/// `--net` sweep geometry: mesh ports per direction (8 endpoint cores
/// per radix-16 node remain) and the radix shared by every benched
/// topology.
const NET_RADIX: usize = 16;
const NET_PPD: usize = 2;
/// Engine benchmarked under each `--net` label.
const NET_BEFORE_ENGINE: &str = "hashmap-dense";
const NET_AFTER_ENGINE: &str = "arena-active-set";

/// One `--net` row: a topology at one offered load, with up to two
/// labelled engine measurements. `packets_per_sec` counts delivered
/// packets across the whole topology.
#[derive(Clone, Debug)]
struct NetRow {
    sim: &'static str,
    /// Router (switch) count — part of the merge key, since quick and
    /// full scales bench different shapes.
    nodes: usize,
    injection: f64,
    before: Option<Throughput>,
    after: Option<Throughput>,
}

impl NetRow {
    fn speedup(&self) -> Option<f64> {
        match (self.before, self.after) {
            (Some(b), Some(a)) if b.cycles_per_sec > 0.0 => {
                Some(a.cycles_per_sec / b.cycles_per_sec)
            }
            _ => None,
        }
    }
}

/// The `--net` grid for one scale: the acceptance mesh shape at the
/// kernel-grid injection rate (0.1, saturated — the arena win) and at
/// low load (most routers idle — the active-set win), plus a dragonfly
/// so the second topology family is covered.
fn net_rows(scale: &Scale) -> Vec<NetRow> {
    let dim = net_mesh_dim(scale);
    let blank = |sim, nodes, injection| NetRow {
        sim,
        nodes,
        injection,
        before: None,
        after: None,
    };
    vec![
        blank("mesh", dim * dim, INJECTION_RATE),
        blank("mesh", dim * dim, 0.01),
        blank("dragonfly", net_dragonfly(scale).0, 0.02),
    ]
}

fn net_mesh_dim(scale: &Scale) -> usize {
    if scale.quick {
        4
    } else {
        8
    }
}

/// Dragonfly shape for `--net`: `(routers, (a, p, h, g))`. Full scale
/// uses 114 radix-16 routers (a=6, p=6, h=3, g=19: 6+5+3 = 14 ports
/// used), quick the 36-router lab shape.
fn net_dragonfly(scale: &Scale) -> (usize, (usize, usize, usize, usize)) {
    if scale.quick {
        (36, (4, 4, 2, 9))
    } else {
        (114, (6, 6, 3, 19))
    }
}

/// Arbitration kernel benchmarked under each label: `before` is the
/// scalar reference loops, `after` the word-parallel kernels.
fn kernel_for_label(label: &str) -> ArbiterKernel {
    if label == "before" {
        ArbiterKernel::Scalar
    } else {
        ArbiterKernel::Word
    }
}

fn build_fabric(name: &str, radix: usize, kernel: ArbiterKernel) -> Box<dyn Fabric> {
    match name {
        "switch2d" => Box::new(Switch2d::with_kernel(radix, kernel)),
        "folded3d" => Box::new(FoldedSwitch::with_kernel(
            radix,
            LAYERS,
            DEFAULT_FLIT_BITS,
            kernel,
        )),
        "hirise" => {
            let cfg = HiRiseConfig::builder(radix, LAYERS)
                .channel_multiplicity(4)
                .scheme(ArbitrationScheme::LayerToLayerLrg)
                .build()
                .expect("valid Hi-Rise configuration");
            Box::new(HiRiseSwitch::with_kernel(&cfg, kernel))
        }
        "islip2" => Box::new(MatchingSwitch::with_kernel(
            radix,
            MatchPolicy::Islip { iterations: 2 },
            kernel,
        )),
        "eslip" => Box::new(MatchingSwitch::with_kernel(
            radix,
            MatchPolicy::Eslip { iterations: 2 },
            kernel,
        )),
        "wavefront" => Box::new(MatchingSwitch::with_kernel(
            radix,
            MatchPolicy::Wavefront,
            kernel,
        )),
        other => arg_error(format!("unknown fabric {other:?}"), USAGE),
    }
}

/// Median of a non-empty sample: middle element for odd lengths, mean
/// of the two middle elements for even lengths. Panics on an empty
/// slice — a benchmark that measured nothing has no median.
fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite measurement"));
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// Benchmarks one (fabric, radix) combination under one kernel.
fn measure(fabric: &'static str, radix: usize, kernel: ArbiterKernel, scale: &Scale) -> Throughput {
    let cfg = SimConfig::new(radix)
        .injection_rate(INJECTION_RATE)
        .warmup(0)
        .measure(u64::MAX / 2)
        .seed(SEED)
        .check_invariants(false);
    let mut sim = NetworkSim::new(
        build_fabric(fabric, radix, kernel),
        UniformRandom::new(radix),
        cfg,
    );
    let mut report = sim.report();
    sim.run_cycles(&mut report, scale.warmup_cycles);
    let mut cycles_per_sec = Vec::with_capacity(scale.reps);
    let mut packets_per_sec = Vec::with_capacity(scale.reps);
    for _ in 0..scale.reps {
        let packets_at_start = report.accepted_packets();
        let start = Instant::now();
        sim.run_cycles(&mut report, scale.cycles_per_rep);
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        let packets = report.accepted_packets() - packets_at_start;
        cycles_per_sec.push(scale.cycles_per_rep as f64 / secs);
        packets_per_sec.push(packets as f64 / secs);
    }
    Throughput {
        cycles_per_sec: median(&mut cycles_per_sec),
        packets_per_sec: median(&mut packets_per_sec),
    }
}

/// Builds the sharded-sweep mesh: `cols x rows` radix-16 Hi-Rise
/// switches with 8 cores each, uniform random traffic, measurement
/// window open-ended so segment deltas count every delivery.
fn build_sharded_mesh(
    cols: usize,
    rows: usize,
    shards: usize,
) -> ShardedSim<HiRiseSwitch, MeshGeometry> {
    let cfg = MeshSimConfig::new(cols, rows, SHARDED_PPD)
        .injection_rate(INJECTION_RATE)
        .warmup(0)
        .measure(u64::MAX / 2)
        .seed(SEED);
    let switch_cfg = HiRiseConfig::builder(SHARDED_RADIX, LAYERS)
        .channel_multiplicity(4)
        .scheme(ArbitrationScheme::LayerToLayerLrg)
        .build()
        .expect("valid Hi-Rise configuration");
    let cores = (SHARDED_RADIX - 4 * SHARDED_PPD) * cols * rows;
    sharded_mesh(
        &cfg,
        SHARDED_RADIX,
        shards,
        move |_node| HiRiseSwitch::with_kernel(&switch_cfg, ArbiterKernel::Word),
        move || Box::new(UniformRandom::new(cores)) as Box<dyn TrafficPattern>,
    )
}

/// Benchmarks the sweep mesh at one shard count: median simulated
/// cycles/sec and aggregate delivered flits/sec across timed segments.
fn measure_sharded(cols: usize, rows: usize, shards: usize, scale: &Scale) -> ShardedPoint {
    let mut sim = build_sharded_mesh(cols, rows, shards);
    sim.run_cycles(scale.warmup_cycles);
    let mut cycles_per_sec = Vec::with_capacity(scale.reps);
    let mut flits_per_sec = Vec::with_capacity(scale.reps);
    let mut delivered = sim.report().completed_measured();
    for _ in 0..scale.reps {
        let start = Instant::now();
        sim.run_cycles(scale.cycles_per_rep);
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        let now_delivered = sim.report().completed_measured();
        let packets = now_delivered - delivered;
        delivered = now_delivered;
        cycles_per_sec.push(scale.cycles_per_rep as f64 / secs);
        flits_per_sec.push(packets as f64 * 4.0 / secs);
    }
    ShardedPoint {
        shards,
        cycles_per_sec: median(&mut cycles_per_sec),
        flits_per_sec: median(&mut flits_per_sec),
    }
}

/// Runs the full `--sharded` sweep: one mesh, every shard count (those
/// exceeding the node count are skipped).
fn measure_sharded_section(scale: &Scale) -> ShardedSection {
    let (cols, rows) = if scale.quick { (4, 4) } else { (8, 8) };
    println!(
        "cyclebench --sharded: {cols}x{rows} mesh of radix-{SHARDED_RADIX} hirise, \
         {} cycles x {} reps per shard count\n",
        scale.cycles_per_rep, scale.reps
    );
    println!("{:>6} {:>15} {:>15}", "shards", "cycles/sec", "flits/sec");
    let mut points = Vec::new();
    for shards in SHARD_COUNTS {
        if shards > cols * rows {
            continue;
        }
        let point = measure_sharded(cols, rows, shards, scale);
        println!(
            "{:>6} {:>15.0} {:>15.0}",
            point.shards, point.cycles_per_sec, point.flits_per_sec
        );
        points.push(point);
    }
    ShardedSection { cols, rows, points }
}

fn net_switch_cfg() -> HiRiseConfig {
    HiRiseConfig::builder(NET_RADIX, LAYERS)
        .channel_multiplicity(4)
        .scheme(ArbitrationScheme::LayerToLayerLrg)
        .build()
        .expect("valid Hi-Rise configuration")
}

/// The `--net` mesh under `cfg` (`dim x dim` radix-16 Hi-Rise nodes,
/// uniform random traffic) at one shard.
fn net_mesh(cfg: &MeshSimConfig, dim: usize) -> ShardedSim<HiRiseSwitch, MeshGeometry> {
    let switch_cfg = net_switch_cfg();
    let cores = dim * dim * (NET_RADIX - 4 * NET_PPD);
    sharded_mesh(
        cfg,
        NET_RADIX,
        1,
        move |_node| HiRiseSwitch::with_kernel(&switch_cfg, ArbiterKernel::Word),
        move || Box::new(UniformRandom::new(cores)) as Box<dyn TrafficPattern>,
    )
}

/// Benchmarks the mesh at one load: median simulated cycles/sec and
/// delivered packets/sec across timed segments.
fn measure_net_mesh(
    dim: usize,
    injection: f64,
    schedule: NetSchedule,
    scale: &Scale,
) -> Throughput {
    let cfg = MeshSimConfig::new(dim, dim, NET_PPD)
        .injection_rate(injection)
        .warmup(0)
        .measure(u64::MAX / 2)
        .seed(SEED)
        .schedule(schedule);
    measure_net_sim(net_mesh(&cfg, dim), scale)
}

/// Benchmarks the dragonfly at one shard (the engine itself, without
/// lockstep overhead).
fn measure_net_dragonfly(injection: f64, schedule: NetSchedule, scale: &Scale) -> Throughput {
    let (_routers, (a, p, h, g)) = net_dragonfly(scale);
    let geo = DragonflyGeometry::new(DragonflyConfig::new(a, p, h, g), NET_RADIX, &[])
        .expect("routable dragonfly");
    let endpoints = a * g * p;
    let cfg = ShardedConfig::new()
        .injection_rate(injection)
        .warmup(0)
        .measure(u64::MAX / 2)
        .seed(SEED)
        .schedule(schedule);
    let switch_cfg = net_switch_cfg();
    let sim = ShardedSim::new(
        geo,
        cfg,
        1,
        |_node| HiRiseSwitch::with_kernel(&switch_cfg, ArbiterKernel::Word),
        || Box::new(UniformRandom::new(endpoints)) as Box<dyn TrafficPattern>,
    );
    measure_net_sim(sim, scale)
}

/// Warms `sim` up untimed, then returns the median simulated cycles/sec
/// and delivered packets/sec across timed segments.
fn measure_net_sim<T: ShardTopology>(
    mut sim: ShardedSim<HiRiseSwitch, T>,
    scale: &Scale,
) -> Throughput {
    sim.run_cycles(scale.warmup_cycles);
    let mut cycles_per_sec = Vec::with_capacity(scale.reps);
    let mut packets_per_sec = Vec::with_capacity(scale.reps);
    let mut delivered = sim.report().completed_measured();
    for _ in 0..scale.reps {
        let start = Instant::now();
        sim.run_cycles(scale.cycles_per_rep);
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        let now_delivered = sim.report().completed_measured();
        cycles_per_sec.push(scale.cycles_per_rep as f64 / secs);
        packets_per_sec.push((now_delivered - delivered) as f64 / secs);
        delivered = now_delivered;
    }
    Throughput {
        cycles_per_sec: median(&mut cycles_per_sec),
        packets_per_sec: median(&mut packets_per_sec),
    }
}

fn measure_net(row: &NetRow, scale: &Scale) -> Throughput {
    let schedule = NetSchedule::default();
    match row.sim {
        "mesh" => measure_net_mesh(net_mesh_dim(scale), row.injection, schedule, scale),
        _ => measure_net_dragonfly(row.injection, schedule, scale),
    }
}

fn parse_throughput(value: &Json) -> Option<Throughput> {
    Some(Throughput {
        cycles_per_sec: value.get("cycles_per_sec")?.as_f64()?,
        packets_per_sec: value.get("packets_per_sec")?.as_f64()?,
    })
}

/// Loads the labelled measurements (and any `"sharded"` / `"net"`
/// sections) from an existing results file so a re-run under one label
/// — or a `--sharded` / `--net` sweep — preserves everything else.
/// Files with any other schema (including `v1`, whose medians were
/// biased) are ignored and overwritten wholesale.
fn load_existing(path: &str, rows: &mut [Row], net_rows: &mut [NetRow]) -> Option<ShardedSection> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return None;
    };
    let Ok(doc) = json::parse(&text) else {
        eprintln!("warning: {path} is not valid JSON; starting fresh");
        return None;
    };
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(SCHEMA) && !COMPATIBLE_SCHEMAS.iter().any(|&s| schema == Some(s)) {
        eprintln!("warning: {path} has an unknown schema; starting fresh");
        return None;
    }
    if let Some(results) = doc.get("results").and_then(Json::as_arr) {
        for entry in results {
            let fabric = entry.get("fabric").and_then(Json::as_str);
            let radix = entry.get("radix").and_then(Json::as_u64);
            let (Some(fabric), Some(radix)) = (fabric, radix) else {
                continue;
            };
            for row in rows.iter_mut() {
                if row.fabric == fabric && row.radix as u64 == radix {
                    row.before = entry.get("before").and_then(parse_throughput);
                    row.after = entry.get("after").and_then(parse_throughput);
                }
            }
        }
    }
    for (sim, nodes, injection, before, after) in parse_net(&doc) {
        for row in net_rows.iter_mut() {
            if row.sim == sim && row.nodes == nodes && row.injection == injection {
                row.before = before;
                row.after = after;
            }
        }
    }
    parse_sharded(&doc)
}

/// Raw `"net"` rows of a results document, for merging and validation.
#[allow(clippy::type_complexity)]
fn parse_net(doc: &Json) -> Vec<(String, usize, f64, Option<Throughput>, Option<Throughput>)> {
    let Some(results) = doc
        .get("net")
        .and_then(|n| n.get("results"))
        .and_then(Json::as_arr)
    else {
        return Vec::new();
    };
    results
        .iter()
        .filter_map(|entry| {
            Some((
                entry.get("sim")?.as_str()?.to_string(),
                entry.get("nodes")?.as_u64()? as usize,
                entry.get("injection_rate")?.as_f64()?,
                entry.get("before").and_then(parse_throughput),
                entry.get("after").and_then(parse_throughput),
            ))
        })
        .collect()
}

fn parse_sharded(doc: &Json) -> Option<ShardedSection> {
    let section = doc.get("sharded")?;
    Some(ShardedSection {
        cols: section.get("cols")?.as_u64()? as usize,
        rows: section.get("rows")?.as_u64()? as usize,
        points: section
            .get("results")?
            .as_arr()?
            .iter()
            .filter_map(|p| {
                Some(ShardedPoint {
                    shards: p.get("shards")?.as_u64()? as usize,
                    cycles_per_sec: p.get("cycles_per_sec")?.as_f64()?,
                    flits_per_sec: p.get("flits_per_sec")?.as_f64()?,
                })
            })
            .collect(),
    })
}

fn write_throughput(out: &mut String, value: Option<Throughput>) {
    match value {
        None => out.push_str("null"),
        Some(t) => {
            out.push_str("{\"cycles_per_sec\":");
            json::write_f64(out, t.cycles_per_sec);
            out.push_str(",\"packets_per_sec\":");
            json::write_f64(out, t.packets_per_sec);
            out.push('}');
        }
    }
}

fn render_sharded(out: &mut String, section: &ShardedSection) {
    out.push_str(",\n  \"sharded\":{\"topology\":\"mesh\",\"cols\":");
    out.push_str(&section.cols.to_string());
    out.push_str(",\"rows\":");
    out.push_str(&section.rows.to_string());
    out.push_str(",\"radix\":");
    out.push_str(&SHARDED_RADIX.to_string());
    out.push_str(",\"ports_per_direction\":");
    out.push_str(&SHARDED_PPD.to_string());
    out.push_str(",\"results\":[\n");
    for (index, point) in section.points.iter().enumerate() {
        out.push_str("    {\"shards\":");
        out.push_str(&point.shards.to_string());
        out.push_str(",\"cycles_per_sec\":");
        json::write_f64(out, point.cycles_per_sec);
        out.push_str(",\"flits_per_sec\":");
        json::write_f64(out, point.flits_per_sec);
        out.push('}');
        out.push_str(if index + 1 < section.points.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]}");
}

fn render_net(out: &mut String, rows: &[NetRow]) {
    out.push_str(",\n  \"net\":{\"net_before_engine\":");
    json::write_escaped(out, NET_BEFORE_ENGINE);
    out.push_str(",\"net_after_engine\":");
    json::write_escaped(out, NET_AFTER_ENGINE);
    out.push_str(",\"radix\":");
    out.push_str(&NET_RADIX.to_string());
    out.push_str(",\"ports_per_direction\":");
    out.push_str(&NET_PPD.to_string());
    out.push_str(",\"results\":[\n");
    for (index, row) in rows.iter().enumerate() {
        out.push_str("    {\"sim\":");
        json::write_escaped(out, row.sim);
        out.push_str(",\"nodes\":");
        out.push_str(&row.nodes.to_string());
        out.push_str(",\"injection_rate\":");
        json::write_f64(out, row.injection);
        out.push_str(",\"before\":");
        write_throughput(out, row.before);
        out.push_str(",\"after\":");
        write_throughput(out, row.after);
        out.push_str(",\"speedup_cycles_per_sec\":");
        match row.speedup() {
            Some(s) => json::write_f64(out, s),
            None => out.push_str("null"),
        }
        out.push('}');
        out.push_str(if index + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]}");
}

fn render(rows: &[Row], scale: &Scale, sharded: Option<&ShardedSection>, net: &[NetRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\":");
    json::write_escaped(&mut out, SCHEMA);
    out.push_str(",\n  \"pattern\":\"uniform-random\"");
    out.push_str(",\n  \"before_kernel\":\"scalar\"");
    out.push_str(",\n  \"after_kernel\":\"word\"");
    out.push_str(",\n  \"injection_rate\":");
    json::write_f64(&mut out, INJECTION_RATE);
    out.push_str(",\n  \"packet_len_flits\":4");
    out.push_str(",\n  \"quick\":");
    out.push_str(if scale.quick { "true" } else { "false" });
    out.push_str(",\n  \"warmup_cycles\":");
    out.push_str(&scale.warmup_cycles.to_string());
    out.push_str(",\n  \"cycles_per_rep\":");
    out.push_str(&scale.cycles_per_rep.to_string());
    out.push_str(",\n  \"reps\":");
    out.push_str(&scale.reps.to_string());
    out.push_str(",\n  \"results\":[\n");
    for (index, row) in rows.iter().enumerate() {
        out.push_str("    {\"fabric\":");
        json::write_escaped(&mut out, row.fabric);
        out.push_str(",\"radix\":");
        out.push_str(&row.radix.to_string());
        out.push_str(",\"before\":");
        write_throughput(&mut out, row.before);
        out.push_str(",\"after\":");
        write_throughput(&mut out, row.after);
        out.push_str(",\"speedup_cycles_per_sec\":");
        match row.speedup() {
            Some(s) => json::write_f64(&mut out, s),
            None => out.push_str("null"),
        }
        out.push('}');
        out.push_str(if index + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    if let Some(section) = sharded {
        render_sharded(&mut out, section);
    }
    let measured_net: Vec<NetRow> = net
        .iter()
        .filter(|r| r.before.is_some() || r.after.is_some())
        .cloned()
        .collect();
    if !measured_net.is_empty() {
        render_net(&mut out, &measured_net);
    }
    out.push_str("\n}\n");
    out
}

/// Validates a results file: schema tag, full fabric × radix coverage,
/// and positive throughput on every present measurement. Absolute
/// numbers are machine-dependent and deliberately not checked.
fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: missing or unexpected schema tag"));
    }
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing results array"))?;
    for fabric in FABRICS {
        for radix in RADICES {
            let entry = results
                .iter()
                .find(|e| {
                    e.get("fabric").and_then(Json::as_str) == Some(fabric)
                        && e.get("radix").and_then(Json::as_u64) == Some(radix as u64)
                })
                .ok_or_else(|| format!("{path}: no entry for {fabric} radix {radix}"))?;
            let mut measured = 0;
            for label in ["before", "after"] {
                match entry.get(label) {
                    None | Some(Json::Null) => {}
                    Some(value) => {
                        let t = parse_throughput(value).ok_or_else(|| {
                            format!("{path}: malformed {label} for {fabric} radix {radix}")
                        })?;
                        if t.cycles_per_sec <= 0.0 || t.packets_per_sec <= 0.0 {
                            return Err(format!(
                                "{path}: non-positive {label} throughput for {fabric} radix {radix}"
                            ));
                        }
                        measured += 1;
                    }
                }
            }
            if measured == 0 {
                return Err(format!(
                    "{path}: {fabric} radix {radix} has neither before nor after"
                ));
            }
        }
    }
    // The net section is optional and additive, but when present every
    // row needs a recognised topology, a positive router count, and at
    // least one positive labelled measurement.
    match doc.get("net") {
        None | Some(Json::Null) => {}
        Some(_) => {
            let rows = parse_net(&doc);
            if rows.is_empty() {
                return Err(format!("{path}: malformed or empty net section"));
            }
            for (sim, nodes, injection, before, after) in rows {
                if sim != "mesh" && sim != "dragonfly" {
                    return Err(format!("{path}: unknown net sim {sim:?}"));
                }
                if nodes == 0 || injection <= 0.0 {
                    return Err(format!("{path}: degenerate net row for {sim}"));
                }
                let mut measured = 0;
                for (label, value) in [("before", before), ("after", after)] {
                    if let Some(t) = value {
                        if t.cycles_per_sec <= 0.0 || t.packets_per_sec <= 0.0 {
                            return Err(format!(
                                "{path}: non-positive {label} throughput for net {sim} \
                                 at {injection}"
                            ));
                        }
                        measured += 1;
                    }
                }
                if measured == 0 {
                    return Err(format!(
                        "{path}: net {sim} at {injection} has neither before nor after"
                    ));
                }
            }
        }
    }
    // The sharded section is optional and additive, but when present it
    // must be well-formed: parseable geometry and at least one point
    // with positive throughput at a positive shard count.
    match doc.get("sharded") {
        None | Some(Json::Null) => {}
        Some(_) => {
            let section =
                parse_sharded(&doc).ok_or_else(|| format!("{path}: malformed sharded section"))?;
            if section.points.is_empty() {
                return Err(format!("{path}: sharded section has no results"));
            }
            for point in &section.points {
                if point.shards == 0 {
                    return Err(format!("{path}: sharded result with zero shards"));
                }
                if point.cycles_per_sec <= 0.0 || point.flits_per_sec <= 0.0 {
                    return Err(format!(
                        "{path}: non-positive throughput at {} shards",
                        point.shards
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Word-vs-scalar regression gate: measures the quick grid under both
/// kernels and fails if the word kernel drops below [`SMOKE_FLOOR`] x
/// the scalar throughput anywhere.
fn smoke() -> ExitCode {
    let scale = Scale::quick();
    println!(
        "cyclebench --smoke: word vs scalar, {} cycles x {} reps per combination (floor {SMOKE_FLOOR}x)\n",
        scale.cycles_per_rep, scale.reps
    );
    println!(
        "{:<10} {:>5} {:>15} {:>15} {:>8}",
        "fabric", "radix", "scalar c/s", "word c/s", "ratio"
    );
    let mut failures = Vec::new();
    for fabric in FABRICS {
        for radix in RADICES {
            let scalar = measure(fabric, radix, ArbiterKernel::Scalar, &scale);
            let word = measure(fabric, radix, ArbiterKernel::Word, &scale);
            let ratio = word.cycles_per_sec / scalar.cycles_per_sec;
            println!(
                "{:<10} {:>5} {:>15.0} {:>15.0} {:>7.2}x",
                fabric, radix, scalar.cycles_per_sec, word.cycles_per_sec, ratio
            );
            if ratio < SMOKE_FLOOR {
                failures.push(format!(
                    "{fabric} radix {radix}: word kernel at {ratio:.2}x of scalar (floor {SMOKE_FLOOR}x)"
                ));
            }
        }
    }
    // Sharded-mesh determinism gate: a short bounded run of the quick
    // sweep mesh must produce identical telemetry at 1 and 4 shards.
    let sharded_reports: Vec<MeshReport> = [1usize, 4]
        .iter()
        .map(|&shards| {
            let mut sim = build_sharded_mesh(4, 4, shards);
            sim.run_cycles(2_000);
            sim.report()
        })
        .collect();
    if sharded_reports[0] == sharded_reports[1] && sharded_reports[0].completed_measured() > 0 {
        println!(
            "\nsharded mesh OK: 1-shard and 4-shard telemetry identical \
             ({} packets delivered)",
            sharded_reports[0].completed_measured()
        );
    } else if sharded_reports[0].completed_measured() == 0 {
        failures.push("sharded mesh smoke delivered no packets".to_string());
    } else {
        failures.push("sharded mesh telemetry differs between 1 and 4 shards".to_string());
    }
    if failures.is_empty() {
        println!("smoke OK: word kernel at or above {SMOKE_FLOOR}x scalar everywhere");
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("cyclebench --smoke: {failure}");
        }
        ExitCode::FAILURE
    }
}

/// Active-set regression gate: benchmarks the quick net shapes under
/// both schedules at low load and fails if the active-set schedule
/// drops below [`NET_SMOKE_FLOOR`] x the dense sweep anywhere, or if
/// the two schedules ever disagree on telemetry.
fn net_smoke() -> ExitCode {
    let scale = Scale::quick();
    println!(
        "cyclebench --net-smoke: active-set vs dense at injection {NET_SMOKE_INJECTION}, \
         {} cycles x {} reps per row (floor {NET_SMOKE_FLOOR}x)\n",
        scale.cycles_per_rep, scale.reps
    );
    println!(
        "{:<10} {:>6} {:>15} {:>15} {:>8}",
        "sim", "nodes", "dense c/s", "active c/s", "ratio"
    );
    let mut failures = Vec::new();
    let dim = net_mesh_dim(&scale);
    type Bench = fn(NetSchedule, &Scale) -> Throughput;
    let shapes: [(&str, usize, Bench); 2] = [
        ("mesh", dim * dim, |schedule, scale| {
            measure_net_mesh(net_mesh_dim(scale), NET_SMOKE_INJECTION, schedule, scale)
        }),
        ("dragonfly", net_dragonfly(&scale).0, |schedule, scale| {
            measure_net_dragonfly(NET_SMOKE_INJECTION, schedule, scale)
        }),
    ];
    for (sim, nodes, bench) in shapes {
        let dense = bench(NetSchedule::Dense, &scale);
        let active = bench(NetSchedule::ActiveSet, &scale);
        let ratio = active.cycles_per_sec / dense.cycles_per_sec;
        println!(
            "{:<10} {:>6} {:>15.0} {:>15.0} {:>7.2}x",
            sim, nodes, dense.cycles_per_sec, active.cycles_per_sec, ratio
        );
        if ratio < NET_SMOKE_FLOOR {
            failures.push(format!(
                "{sim}: active-set schedule at {ratio:.2}x of dense (floor {NET_SMOKE_FLOOR}x)"
            ));
        }
    }
    // Schedule-identity gate: a short bounded mesh run must produce
    // identical telemetry under both schedules (the full fault matrix
    // lives in tests/net_schedule.rs; this catches gross breakage in
    // the released binary).
    let reports: Vec<MeshReport> = [NetSchedule::Dense, NetSchedule::ActiveSet]
        .into_iter()
        .map(|schedule| {
            let cfg = MeshSimConfig::new(dim, dim, NET_PPD)
                .injection_rate(NET_SMOKE_INJECTION)
                .warmup(100)
                .measure(1_000)
                .seed(SEED)
                .schedule(schedule);
            let mut sim = net_mesh(&cfg, dim);
            sim.run_cycles(2_000);
            sim.report()
        })
        .collect();
    if reports[0] == reports[1] && reports[0].completed_measured() > 0 {
        println!(
            "\nschedule identity OK: dense and active-set telemetry identical \
             ({} packets delivered)",
            reports[0].completed_measured()
        );
    } else if reports[0].completed_measured() == 0 {
        failures.push("net smoke delivered no packets".to_string());
    } else {
        failures.push("telemetry differs between dense and active-set schedules".to_string());
    }
    if failures.is_empty() {
        println!("net smoke OK: active-set at or above {NET_SMOKE_FLOOR}x dense everywhere");
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("cyclebench --net-smoke: {failure}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut run_smoke = false;
    let mut run_net_smoke = false;
    let mut run_sharded = false;
    let mut run_net = false;
    let mut label = "after".to_string();
    let mut out_path = "BENCH_sim.json".to_string();
    let mut check_path: Option<String> = None;
    let mut iter = args.into_iter();
    let missing = |flag: &str| -> String { arg_error(format!("missing value for {flag}"), USAGE) };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" | "quick" => quick = true,
            "--smoke" => run_smoke = true,
            "--net-smoke" => run_net_smoke = true,
            "--sharded" => run_sharded = true,
            "--net" => run_net = true,
            "--label" => label = iter.next().unwrap_or_else(|| missing("--label")),
            "--out" => out_path = iter.next().unwrap_or_else(|| missing("--out")),
            "--check" => check_path = Some(iter.next().unwrap_or_else(|| missing("--check"))),
            other => arg_error(format!("unknown flag {other:?}"), USAGE),
        }
    }
    if let Some(path) = check_path {
        return match check(&path) {
            Ok(()) => {
                println!("{path}: OK");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        };
    }
    if run_smoke {
        return smoke();
    }
    if run_net_smoke {
        return net_smoke();
    }
    if label != "before" && label != "after" {
        arg_error(format!("invalid value {label:?} for --label"), USAGE);
    }
    let kernel = kernel_for_label(&label);
    let scale = if quick { Scale::quick() } else { Scale::full() };

    let mut rows: Vec<Row> = FABRICS
        .iter()
        .flat_map(|&fabric| {
            RADICES.iter().map(move |&radix| Row {
                fabric,
                radix,
                before: None,
                after: None,
            })
        })
        .collect();
    let mut net = net_rows(&scale);
    let mut sharded = load_existing(&out_path, &mut rows, &mut net);
    let write_and_check = |rows: &[Row], sharded: Option<&ShardedSection>, net: &[NetRow]| {
        let rendered = render(rows, &scale, sharded, net);
        if let Err(error) = std::fs::write(&out_path, &rendered) {
            eprintln!("cyclebench: cannot write {out_path}: {error}");
            return ExitCode::FAILURE;
        }
        match check(&out_path) {
            Ok(()) => {
                println!("\nwrote {out_path}");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("cyclebench: self-check failed: {message}");
                ExitCode::FAILURE
            }
        }
    };
    if rows.iter().all(|r| r.before.is_none() && r.after.is_none()) && (run_sharded || run_net) {
        eprintln!(
            "cyclebench: note: {out_path} has no kernel rows; \
             run a --label pass first so the self-check can pass"
        );
    }

    if run_net {
        // Net sweep: refresh this label's engine column in place.
        println!(
            "cyclebench --net: label={label} ({} engine), {} cycles x {} reps per row\n",
            if label == "before" {
                NET_BEFORE_ENGINE
            } else {
                NET_AFTER_ENGINE
            },
            scale.cycles_per_rep,
            scale.reps
        );
        println!(
            "{:<10} {:>6} {:>10} {:>15} {:>15} {:>9}",
            "sim", "nodes", "injection", "cycles/sec", "packets/sec", "speedup"
        );
        for row in net.iter_mut() {
            let throughput = measure_net(row, &scale);
            if label == "before" {
                row.before = Some(throughput);
            } else {
                row.after = Some(throughput);
            }
            let speedup = row
                .speedup()
                .map(|s| format!("{s:.2}x"))
                .unwrap_or_else(|| "-".to_string());
            println!(
                "{:<10} {:>6} {:>10.3} {:>15.0} {:>15.0} {:>9}",
                row.sim,
                row.nodes,
                row.injection,
                throughput.cycles_per_sec,
                throughput.packets_per_sec,
                speedup
            );
        }
        return write_and_check(&rows, sharded.as_ref(), &net);
    }

    if run_sharded {
        // Sharded sweep only: replace the section, keep the kernel rows.
        sharded = Some(measure_sharded_section(&scale));
        return write_and_check(&rows, sharded.as_ref(), &net);
    }

    println!(
        "cyclebench: label={label} ({} kernel), {} cycles x {} reps per combination\n",
        kernel.label(),
        scale.cycles_per_rep,
        scale.reps
    );
    println!(
        "{:<10} {:>5} {:>15} {:>15} {:>9}",
        "fabric", "radix", "cycles/sec", "packets/sec", "speedup"
    );
    for row in rows.iter_mut() {
        let throughput = measure(row.fabric, row.radix, kernel, &scale);
        if label == "before" {
            row.before = Some(throughput);
        } else {
            row.after = Some(throughput);
        }
        let speedup = row
            .speedup()
            .map(|s| format!("{s:.2}x"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<10} {:>5} {:>15.0} {:>15.0} {:>9}",
            row.fabric, row.radix, throughput.cycles_per_sec, throughput.packets_per_sec, speedup
        );
    }

    write_and_check(&rows, sharded.as_ref(), &net)
}

#[cfg(test)]
mod tests {
    use super::{kernel_for_label, median};
    use hirise_core::ArbiterKernel;

    #[test]
    fn median_odd_returns_middle() {
        let mut values = [3.0, 1.0, 2.0];
        assert_eq!(median(&mut values), 2.0);
    }

    #[test]
    fn median_even_averages_middles() {
        // The v1 bug returned 4.0 here (upper middle, biased high).
        let mut values = [4.0, 1.0, 2.0, 8.0];
        assert_eq!(median(&mut values), 3.0);
        let mut pair = [10.0, 20.0];
        assert_eq!(median(&mut pair), 15.0);
    }

    #[test]
    #[should_panic(expected = "median of an empty sample")]
    fn median_empty_panics() {
        median(&mut []);
    }

    #[test]
    fn labels_map_to_kernels() {
        assert_eq!(kernel_for_label("before"), ArbiterKernel::Scalar);
        assert_eq!(kernel_for_label("after"), ArbiterKernel::Word);
    }
}
