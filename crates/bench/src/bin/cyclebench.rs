//! Simulator-throughput regression floors: simulated **cycles/sec**
//! under both arbitration kernels and under both network schedules.
//!
//! ```text
//! cyclebench [quick]
//! ```
//!
//! The kernel grid times one `NetworkSim` per fabric (2D Swizzle, 3D
//! folded, Hi-Rise and the iterative matchers iSLIP/ESLIP/wavefront)
//! at radix 16/32/64 under the scalar and the word kernel; a cell
//! fails if the word kernel runs below [`SMOKE_FLOOR`] x the scalar
//! kernel. The schedule rows time a mesh and a dragonfly of radix-16
//! Hi-Rise switches through one-shard `ShardedSim` at a low load under
//! the dense and the active-set schedule; a row fails if the active
//! set runs below [`NET_SMOKE_FLOOR`] x the dense sweep. Both tables
//! are printed, and the exit status is 1 if any cell or row fails.
//! `quick` shortens the timed segments and shrinks the network shapes
//! (4x4 mesh, 36-router dragonfly instead of 8x8 and 114 routers).
//!
//! Methodology: each simulation runs uniform random traffic from a
//! fixed seed and is warmed up untimed. The two arms of a comparison
//! then take turns: every rep times one short segment of each,
//! alternating which arm goes first, so a host slow spell lands on both
//! halves of a rep instead of on one arm's segments. A cell or row is
//! gated on the median of the per-rep ratios (mean of the two middle
//! ones when `reps` is even), which holds as long as fewer than half the
//! reps straddle the edge of a spell; the printed cycles/sec are each
//! arm's median segment. The invariant checker is off (it is a
//! debugging aid, not part of the cycle loop). Both arms simulate the
//! same history, so only wall-clock time differs.

use std::process::ExitCode;
use std::time::Instant;

use hirise_core::config::DEFAULT_FLIT_BITS;
use hirise_core::{
    ArbiterKernel, ArbitrationScheme, Fabric, FoldedSwitch, HiRiseConfig, HiRiseSwitch,
    MatchPolicy, MatchingSwitch, Switch2d,
};
use hirise_lab::args::arg_error;
use hirise_sim::dragonfly::{DragonflyConfig, DragonflyGeometry};
use hirise_sim::mesh_sim::MeshSimConfig;
use hirise_sim::shard::{sharded_mesh, ShardedConfig, ShardedSim};
use hirise_sim::traffic::{TrafficPattern, UniformRandom};
use hirise_sim::{NetSchedule, NetworkSim, SimConfig};

const USAGE: &str = "cyclebench [quick]";
const FABRICS: [&str; 6] = [
    "switch2d",
    "folded3d",
    "hirise",
    "islip2",
    "eslip",
    "wavefront",
];
const RADICES: [usize; 3] = [16, 32, 64];
/// Kernel-grid offered load: below the 0.2 packets/input/cycle
/// serialization bound of 4-flit packets, so queues sit in steady
/// state.
const INJECTION_RATE: f64 = 0.1;
const LAYERS: usize = 4;
const SEED: u64 = 0xC1C1_EB00;
/// Minimum word/scalar throughput ratio. Below 1.0 to absorb
/// run-to-run noise on shared machines; a word kernel that is genuinely
/// slower than scalar lands well under this.
const SMOKE_FLOOR: f64 = 0.8;
/// Minimum active-set/dense throughput ratio. At the schedule rows'
/// load most routers are idle most cycles, so a healthy active-set
/// schedule lands well above parity; at 1.0 the floor catches it ever
/// becoming pure overhead.
const NET_SMOKE_FLOOR: f64 = 1.0;
/// Schedule-row offered load: low on purpose, so the active set is
/// sparse and skipping is actually exercised.
const NET_SMOKE_INJECTION: f64 = 0.01;
/// Radix of the schedule rows' routers, and the mesh ports per
/// direction (8 endpoint cores per mesh node remain).
const NET_RADIX: usize = 16;
const NET_PPD: usize = 2;

/// Benchmark scale: untimed warmup, then `reps` timed reps of one
/// `cycles_per_rep`-cycle segment per arm, and the schedule rows' shapes.
struct Scale {
    warmup_cycles: u64,
    cycles_per_rep: u64,
    reps: usize,
    /// Side of the square mesh.
    mesh_dim: usize,
    /// Dragonfly `(a, p, h, g)`: routers per group, endpoints per
    /// router, global links per router, groups.
    dragonfly: (usize, usize, usize, usize),
}

impl Scale {
    /// 8x8 mesh; 114 radix-16 routers (6+5+3 = 14 ports used).
    fn full() -> Self {
        Self {
            warmup_cycles: 2_000,
            cycles_per_rep: 2_000,
            reps: 31,
            mesh_dim: 8,
            dragonfly: (6, 6, 3, 19),
        }
    }

    /// 4x4 mesh; the 36-router lab dragonfly.
    fn quick() -> Self {
        Self {
            warmup_cycles: 500,
            cycles_per_rep: 200,
            reps: 31,
            mesh_dim: 4,
            dragonfly: (4, 4, 2, 9),
        }
    }
}

/// A `radix`-port, 4-layer Hi-Rise with four L2LCs per ordered layer
/// pair (c = 4) under L-2-L LRG arbitration.
fn hirise_cfg(radix: usize) -> HiRiseConfig {
    HiRiseConfig::builder(radix, LAYERS)
        .channel_multiplicity(4)
        .scheme(ArbitrationScheme::LayerToLayerLrg)
        .build()
        .expect("valid Hi-Rise configuration")
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
        "hirise" => Box::new(HiRiseSwitch::with_kernel(&hirise_cfg(radix), kernel)),
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
        other => unreachable!("unknown fabric {other:?}"),
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

/// Cycles/sec of one timed segment of `cycles` cycles.
fn segment(cycles: u64, step: &mut impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    step(cycles);
    cycles as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// The outcome of timing two arms side by side.
struct Paired {
    /// Median cycles/sec of the base arm.
    base: f64,
    /// Median cycles/sec of the compared arm.
    arm: f64,
    /// Median over reps of the compared arm's rate over the base arm's.
    ratio: f64,
}

/// Warms `base` and `arm` up untimed, then times one segment of each
/// per rep, alternating which goes first.
fn time_pair(scale: &Scale, mut base: impl FnMut(u64), mut arm: impl FnMut(u64)) -> Paired {
    base(scale.warmup_cycles);
    arm(scale.warmup_cycles);
    let cycles = scale.cycles_per_rep;
    let (mut bases, mut arms, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..scale.reps {
        let (b, a) = if rep % 2 == 0 {
            let b = segment(cycles, &mut base);
            (b, segment(cycles, &mut arm))
        } else {
            let a = segment(cycles, &mut arm);
            (segment(cycles, &mut base), a)
        };
        bases.push(b);
        arms.push(a);
        ratios.push(a / b);
    }
    Paired {
        base: median(&mut bases),
        arm: median(&mut arms),
        ratio: median(&mut ratios),
    }
}

/// One (fabric, radix) cell of the kernel grid under one kernel, as a
/// function stepping it by a number of cycles.
fn kernel_sim(fabric: &str, radix: usize, kernel: ArbiterKernel) -> impl FnMut(u64) {
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
    move |cycles| sim.run_cycles(&mut report, cycles)
}

fn uniform(endpoints: usize) -> impl FnMut() -> Box<dyn TrafficPattern> {
    move || Box::new(UniformRandom::new(endpoints))
}

/// The schedule row `sim` (`"mesh"` or `"dragonfly"`) under one
/// schedule at one shard, as a function stepping it by a number of
/// cycles.
fn schedule_sim(sim: &str, schedule: NetSchedule, scale: &Scale) -> Box<dyn FnMut(u64)> {
    let switch_cfg = hirise_cfg(NET_RADIX);
    let switch = move |_node| HiRiseSwitch::new(&switch_cfg);
    if sim == "mesh" {
        let dim = scale.mesh_dim;
        let cfg = MeshSimConfig::new(dim, dim, NET_PPD)
            .injection_rate(NET_SMOKE_INJECTION)
            .warmup(0)
            .measure(u64::MAX / 2)
            .seed(SEED)
            .schedule(schedule);
        let cores = dim * dim * (NET_RADIX - 4 * NET_PPD);
        let mut sim = sharded_mesh(&cfg, NET_RADIX, 1, switch, uniform(cores));
        Box::new(move |cycles| sim.run_cycles(cycles))
    } else {
        let (a, p, h, g) = scale.dragonfly;
        let geo = DragonflyGeometry::new(DragonflyConfig::new(a, p, h, g), NET_RADIX, &[])
            .expect("routable dragonfly");
        let cfg = ShardedConfig::new()
            .injection_rate(NET_SMOKE_INJECTION)
            .warmup(0)
            .measure(u64::MAX / 2)
            .seed(SEED)
            .schedule(schedule);
        let mut sim = ShardedSim::new(geo, cfg, 1, switch, uniform(a * g * p));
        Box::new(move |cycles| sim.run_cycles(cycles))
    }
}

fn main() -> ExitCode {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "quick" | "--quick" => quick = true,
            other => arg_error(format!("unknown argument {other:?}"), USAGE),
        }
    }
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let mut failures = Vec::new();

    println!(
        "cyclebench: word vs scalar kernel at injection {INJECTION_RATE}, \
         {} cycles x {} alternated reps per cell, median paired ratio (floor {SMOKE_FLOOR}x)\n",
        scale.cycles_per_rep, scale.reps
    );
    println!(
        "{:<10} {:>5} {:>15} {:>15} {:>8}",
        "fabric", "radix", "scalar c/s", "word c/s", "ratio"
    );
    for fabric in FABRICS {
        for radix in RADICES {
            let Paired {
                base: scalar,
                arm: word,
                ratio,
            } = time_pair(
                &scale,
                kernel_sim(fabric, radix, ArbiterKernel::Scalar),
                kernel_sim(fabric, radix, ArbiterKernel::Word),
            );
            println!("{fabric:<10} {radix:>5} {scalar:>15.0} {word:>15.0} {ratio:>7.2}x");
            if ratio < SMOKE_FLOOR {
                failures.push(format!(
                    "{fabric} radix {radix}: word kernel at {ratio:.2}x of scalar \
                     (floor {SMOKE_FLOOR}x)"
                ));
            }
        }
    }

    println!(
        "\ncyclebench: active-set vs dense schedule at injection {NET_SMOKE_INJECTION}, \
         {} cycles x {} alternated reps per row, median paired ratio (floor {NET_SMOKE_FLOOR}x)\n",
        scale.cycles_per_rep, scale.reps
    );
    println!(
        "{:<10} {:>6} {:>15} {:>15} {:>8}",
        "sim", "nodes", "dense c/s", "active c/s", "ratio"
    );
    let (a, _, _, g) = scale.dragonfly;
    for (sim, nodes) in [("mesh", scale.mesh_dim.pow(2)), ("dragonfly", a * g)] {
        let Paired {
            base: dense,
            arm: active,
            ratio,
        } = time_pair(
            &scale,
            schedule_sim(sim, NetSchedule::Dense, &scale),
            schedule_sim(sim, NetSchedule::ActiveSet, &scale),
        );
        println!("{sim:<10} {nodes:>6} {dense:>15.0} {active:>15.0} {ratio:>7.2}x");
        if ratio < NET_SMOKE_FLOOR {
            failures.push(format!(
                "{sim}: active-set schedule at {ratio:.2}x of dense (floor {NET_SMOKE_FLOOR}x)"
            ));
        }
    }

    if failures.is_empty() {
        println!(
            "\ncyclebench OK: word kernel at or above {SMOKE_FLOOR}x scalar and \
             active set at or above {NET_SMOKE_FLOOR}x dense everywhere"
        );
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("cyclebench: {failure}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::median;

    #[test]
    fn median_odd_returns_middle() {
        let mut values = [3.0, 1.0, 2.0];
        assert_eq!(median(&mut values), 2.0);
    }

    #[test]
    fn median_even_averages_middles() {
        // The upper middle alone (4.0 here) would be biased high.
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
}
