//! Twin-instance identity tests for the sharded engine: the whole
//! point of `crate::shard` is that shard count is an *execution* knob,
//! never a *results* knob. Every shard-count test here compares
//! complete [`MeshReport`]s (counters and latency histogram) with `==`
//! against the one-shard reference; the one-router twins compare the
//! engine's router cycle with the single-switch `NetworkSim`.

use hirise_core::rng::{derive_stream_seed, StdRng};
use hirise_core::{
    ArbitrationScheme, Fabric, Fault, FaultSite, HiRiseConfig, HiRiseSwitch, Switch2d,
};
use hirise_core::{InputId, OutputId};
use hirise_sim::dragonfly::{DragonflyConfig, DragonflyGeometry};
use hirise_sim::mesh_sim::{MeshPortMap, MeshReport, MeshSimConfig};
use hirise_sim::shard::{sharded_mesh, ShardTopology, ShardedConfig, ShardedSim};
use hirise_sim::traffic::{Custom, TrafficPattern, UniformRandom};
use hirise_sim::{NetSchedule, NetworkSim, SimConfig};

/// Shard counts compared against the one-shard reference.
const SHARD_COUNTS: [usize; 2] = [2, 8];

fn switch16() -> HiRiseConfig {
    HiRiseConfig::builder(16, 2)
        .channel_multiplicity(2)
        .build()
        .expect("valid configuration")
}

/// A 4x2 mesh of radix-16 switches: 8 nodes (so an 8-shard run puts
/// one node per shard), 64 cores.
fn mesh_cfg() -> MeshSimConfig {
    MeshSimConfig::new(4, 2, 2)
        .injection_rate(0.02)
        .warmup(100)
        .measure(600)
        .drain(600)
        .seed(0xC0FFEE)
}

fn run_mesh(
    cfg: &MeshSimConfig,
    switch_cfg: &HiRiseConfig,
    cores: usize,
    shards: usize,
) -> MeshReport {
    let mut sim = sharded_mesh(
        cfg,
        16,
        shards,
        |_node| HiRiseSwitch::new(switch_cfg),
        || Box::new(UniformRandom::new(cores)) as Box<dyn TrafficPattern>,
    );
    sim.run()
}

#[test]
fn sharded_mesh_is_byte_identical_to_unsharded() {
    let small = [
        MeshPortMap::Contiguous,
        MeshPortMap::LayerAware { layers: 2 },
    ]
    .map(|map| {
        let case = format!("4x2 {map:?}");
        (
            case,
            mesh_cfg().port_map(map),
            switch16(),
            64,
            &SHARD_COUNTS[..],
        )
    });
    // A saturated 4x4 mesh (128 cores at load 0.1) of 4-layer, c = 4,
    // L-2-L LRG switches, split into four shards of four nodes each.
    let saturated = (
        "saturated 4x4".to_string(),
        MeshSimConfig::new(4, 4, 2)
            .injection_rate(0.1)
            .warmup(0)
            .measure(2_000)
            .drain(600)
            .seed(0xC1C1_EB00),
        HiRiseConfig::builder(16, 4)
            .channel_multiplicity(4)
            .scheme(ArbitrationScheme::LayerToLayerLrg)
            .build()
            .expect("valid configuration"),
        128,
        &[4][..],
    );
    for (case, cfg, switch_cfg, cores, shard_counts) in small.into_iter().chain([saturated]) {
        let reference = run_mesh(&cfg, &switch_cfg, cores, 1);
        assert!(
            reference.completed_measured() > 0,
            "{case}: nothing simulated"
        );
        for &shards in shard_counts {
            assert_eq!(
                run_mesh(&cfg, &switch_cfg, cores, shards),
                reference,
                "{case} sharded mesh diverged from the reference at {shards} shards"
            );
        }
    }
}

/// Per-node faults: node index drives which switch gets which faults,
/// so a sharded build must reproduce the reference exactly — dead
/// resources, flaky resampling streams and all.
fn faulty_switch(node: usize, seed: u64) -> HiRiseSwitch {
    let switch_cfg = switch16();
    let mut switch = HiRiseSwitch::new(&switch_cfg);
    switch
        .enable_faults(derive_stream_seed(seed, node as u64))
        .expect("hi-rise supports faults");
    // Deterministic per-node fault mix: kill a TSV bundle on every
    // third node, make a bundle flaky on every fourth.
    if node.is_multiple_of(3) {
        switch
            .inject_fault(Fault::dead(FaultSite::TsvBundle { index: node % 2 }))
            .expect("valid fault site");
    }
    if node % 4 == 1 {
        switch
            .inject_fault(Fault::flaky(FaultSite::TsvBundle { index: 1 }, 0.05))
            .expect("valid fault site");
    }
    switch
}

#[test]
fn sharded_mesh_with_faults_is_byte_identical() {
    let cfg = mesh_cfg().seed(0xFA_117);
    let reference = sharded_mesh(
        &cfg,
        16,
        1,
        |node| faulty_switch(node, 0xFA_117),
        || Box::new(UniformRandom::new(64)) as Box<dyn TrafficPattern>,
    )
    .run();
    assert!(reference.completed_measured() > 0, "nothing simulated");
    for shards in SHARD_COUNTS {
        let mut sim = sharded_mesh(
            &cfg,
            16,
            shards,
            |node| faulty_switch(node, 0xFA_117),
            || Box::new(UniformRandom::new(64)) as Box<dyn TrafficPattern>,
        );
        let report = sim.run();
        assert_eq!(
            report, reference,
            "faulty sharded mesh diverged at {shards} shards"
        );
        assert!(
            sim.fault_event_count() > 0,
            "fault mix should have produced events"
        );
    }
}

/// A small dragonfly: a=4, p=4, h=2, g=9 -> 36 routers, 144 endpoints
/// on radix-16 switches (9 ports used, 7 spare).
fn dragonfly(dead: &[(usize, usize)]) -> DragonflyGeometry {
    DragonflyGeometry::new(DragonflyConfig::new(4, 4, 2, 9), 16, dead).expect("routable dragonfly")
}

fn run_dragonfly(shards: usize, dead: &[(usize, usize)]) -> MeshReport {
    let switch_cfg = switch16();
    let cfg = ShardedConfig::new()
        .injection_rate(0.02)
        .warmup(100)
        .measure(600)
        .drain(600)
        .seed(0xD12A);
    let mut sim = ShardedSim::new(
        dragonfly(dead),
        cfg,
        shards,
        |_node| HiRiseSwitch::new(&switch_cfg),
        || Box::new(UniformRandom::new(144)) as Box<dyn TrafficPattern>,
    );
    sim.run()
}

#[test]
fn dragonfly_telemetry_is_shard_count_invariant() {
    let reference = run_dragonfly(1, &[]);
    assert!(reference.completed_measured() > 0, "nothing simulated");
    for shards in [2, 8] {
        assert_eq!(
            run_dragonfly(shards, &[]),
            reference,
            "dragonfly diverged at {shards} shards"
        );
    }
}

#[test]
fn dragonfly_with_dead_wafer_links_is_shard_count_invariant() {
    let dead = [(0, 5), (2, 7), (3, 4)];
    let reference = run_dragonfly(1, &dead);
    assert!(reference.completed_measured() > 0, "nothing simulated");
    for shards in [2, 8] {
        assert_eq!(
            run_dragonfly(shards, &dead),
            reference,
            "faulty dragonfly diverged at {shards} shards"
        );
    }
}

/// Differential check against per-router golden stepping: single
/// packets must traverse exactly the routers `golden_path` predicts —
/// hop telemetry equals the golden path length (each switch traversal
/// including the final ejection counts one hop).
#[test]
fn dragonfly_single_packets_follow_the_golden_path() {
    for (dead, src, dst) in [
        (&[][..], 0usize, 143usize),    // cross-group, minimal
        (&[][..], 7, 9),                // same group, local hop
        (&[][..], 16, 17),              // same router
        (&[(0, 5)][..], 3, 5 * 16 + 2), // dead wafer link, detour
    ] {
        let geo = dragonfly(dead);
        let golden = geo.golden_path(src, dst);
        let switch_cfg = switch16();
        let cfg = ShardedConfig::new()
            .injection_rate(0.0)
            .warmup(0)
            .measure(400)
            .drain(400)
            .seed(1);
        let mut sim = ShardedSim::new(
            geo,
            cfg,
            3,
            |_node| HiRiseSwitch::new(&switch_cfg),
            move || {
                let mut fired = false;
                Box::new(Custom::new(
                    "single",
                    move |input: InputId, _r, _rng: &mut _| {
                        if input.index() == src && !fired {
                            fired = true;
                            Some(OutputId::new(dst))
                        } else {
                            None
                        }
                    },
                )) as Box<dyn TrafficPattern>
            },
        );
        let report = sim.run();
        assert_eq!(report.completed_measured(), 1, "packet {src}->{dst} lost");
        assert_eq!(
            report.avg_hops(),
            golden.len() as f64,
            "{src}->{dst}: expected route {golden:?}"
        );
    }
}

/// One router whose every port is an endpoint: the network engine with
/// nothing around the switch — no wires, no credit links, the identity
/// route.
struct OneRouter {
    radix: usize,
}

impl ShardTopology for OneRouter {
    fn nodes(&self) -> usize {
        1
    }

    fn radix(&self) -> usize {
        self.radix
    }

    fn endpoints_per_node(&self) -> usize {
        self.radix
    }

    fn endpoint_port(&self, local: usize) -> usize {
        local
    }

    fn route(&self, _node: usize, dst_endpoint: usize, _lane: usize) -> OutputId {
        OutputId::new(dst_endpoint)
    }

    fn wire(&self, _node: usize, _output: OutputId) -> Option<(usize, usize)> {
        None
    }

    fn credit_links(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "one-router"
    }
}

/// Traffic that depends only on per-input call counters, never on the
/// RNG, so two drivers with different RNG streams inject identically:
/// each input injects on about one call in eight, towards a hashed
/// destination (outputs collide, so arbitration has losers).
fn counter_pattern(radix: usize) -> impl TrafficPattern {
    let mut calls = vec![0u64; radix];
    Custom::new(
        "counter",
        move |input: InputId, _rate, _rng: &mut StdRng| {
            let i = input.index();
            let n = calls[i];
            calls[i] += 1;
            let h = (n ^ ((i as u64) << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (h >> 61 == 0).then(|| OutputId::new((h >> 32) as usize % radix))
        },
    )
}

/// Cross-driver twin: the network engine's router cycle at one router
/// must deliver exactly what the single-switch `NetworkSim` delivers
/// for the same traffic — same counts, same latency histogram — under
/// either per-cycle schedule.
fn assert_one_router_matches_network_sim<F: Fabric + 'static>(
    label: &str,
    make_switch: impl Fn() -> F,
) {
    let radix = make_switch().radix();
    let (warmup, measure, drain) = (200, 2_000, 2_000);
    let reference = NetworkSim::new(
        make_switch(),
        counter_pattern(radix),
        SimConfig::new(radix)
            .warmup(warmup)
            .measure(measure)
            .drain(drain),
    )
    .run();
    assert!(
        reference.completed_measured() > 0,
        "{label}: nothing simulated"
    );
    for schedule in [NetSchedule::Dense, NetSchedule::ActiveSet] {
        let cfg = ShardedConfig::new()
            .warmup(warmup)
            .measure(measure)
            .drain(drain)
            .schedule(schedule);
        let report = ShardedSim::new(
            OneRouter { radix },
            cfg,
            1,
            |_node| make_switch(),
            || Box::new(counter_pattern(radix)) as Box<dyn TrafficPattern>,
        )
        .run();
        let context = format!("{label} under {schedule:?}");
        assert_eq!(
            report.injected_measured(),
            reference.injected_measured(),
            "{context}"
        );
        assert_eq!(
            report.completed_measured(),
            reference.completed_measured(),
            "{context}"
        );
        assert_eq!(
            report.accepted_rate(),
            reference.accepted_rate(),
            "{context}"
        );
        assert_eq!(
            report.latency_histogram(),
            reference.latency_histogram(),
            "{context}"
        );
        assert_eq!(report.avg_hops(), 1.0, "{context}");
    }
}

#[test]
fn one_router_engine_matches_network_sim_on_switch2d() {
    assert_one_router_matches_network_sim("switch2d", || Switch2d::new(16));
}

#[test]
fn one_router_engine_matches_network_sim_on_hirise() {
    let switch_cfg = switch16();
    assert_one_router_matches_network_sim("hirise", || HiRiseSwitch::new(&switch_cfg));
}
