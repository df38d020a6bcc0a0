//! Twin-instance identity tests for the per-cycle scheduler: the
//! active-set schedule (skip routers with no buffered traffic, no
//! pending transfers and no flaky fault streams) must be a pure
//! execution knob. Every test runs the same simulation twice — once
//! dense, once active-set — and compares complete [`MeshReport`]s
//! (counters and latency histogram) with `==`, under a fault mix that
//! exercises both directions of the set: dead resources (nodes drop
//! out of the work set when they drain) and flaky resampling streams
//! (nodes that must *never* leave it, or their fault PRNGs would
//! desynchronise from the dense run).

use hirise_core::rng::derive_stream_seed;
use hirise_core::{ArbitrationScheme, Fabric, Fault, FaultSite, HiRiseConfig, HiRiseSwitch};
use hirise_sim::dragonfly::{DragonflyConfig, DragonflyGeometry};
use hirise_sim::mesh_sim::{MeshReport, MeshSimConfig};
use hirise_sim::shard::{sharded_mesh, ShardedConfig, ShardedSim};
use hirise_sim::traffic::{TrafficPattern, UniformRandom};
use hirise_sim::NetSchedule;

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn switch16() -> HiRiseConfig {
    HiRiseConfig::builder(16, 2)
        .channel_multiplicity(2)
        .build()
        .expect("valid configuration")
}

/// The shard_identity mesh shape (4x2 radix-16 nodes, 64 cores) at a
/// load low enough that routers actually go idle — otherwise the
/// active set degenerates to "everyone" and the test proves nothing.
fn mesh_cfg() -> MeshSimConfig {
    MeshSimConfig::new(4, 2, 2)
        .injection_rate(0.01)
        .warmup(100)
        .measure(600)
        .drain(600)
        .seed(0x5C_11ED)
}

/// The shard_identity fault mix: dead TSV bundles on every third node,
/// flaky ones on every fourth.
fn faulty_switch(node: usize, seed: u64) -> HiRiseSwitch {
    let switch_cfg = switch16();
    let mut switch = HiRiseSwitch::new(&switch_cfg);
    switch
        .enable_faults(derive_stream_seed(seed, node as u64))
        .expect("hi-rise supports faults");
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

/// Builds node `n`'s switch.
type MakeSwitch<'a> = &'a dyn Fn(usize) -> HiRiseSwitch;

fn run_mesh(cfg: &MeshSimConfig, cores: usize, switch: MakeSwitch) -> (MeshReport, u64, u64) {
    let mut sim = sharded_mesh(cfg, 16, 1, switch, || {
        Box::new(UniformRandom::new(cores)) as Box<dyn TrafficPattern>
    });
    let report = sim.run();
    (report, sim.active_node_cycles(), sim.fault_event_count())
}

#[test]
fn mesh_active_set_is_byte_identical_to_dense() {
    let faulty = |node| faulty_switch(node, 0x5C_11ED);
    // A fault-free 4x4 mesh (128 cores) of 4-layer, c = 4, L-2-L LRG
    // switches.
    let l2l = HiRiseConfig::builder(16, 4)
        .channel_multiplicity(4)
        .scheme(ArbitrationScheme::LayerToLayerLrg)
        .build()
        .expect("valid configuration");
    let clean = |_node| HiRiseSwitch::new(&l2l);
    let cases: [(&str, MeshSimConfig, usize, MakeSwitch); 2] = [
        ("faulty 4x2", mesh_cfg(), 64, &faulty),
        (
            "4x4",
            MeshSimConfig::new(4, 4, 2)
                .injection_rate(0.01)
                .warmup(100)
                .measure(1_000)
                .drain(1_000)
                .seed(0xC1C1_EB00),
            128,
            &clean,
        ),
    ];
    for (case, cfg, cores, switch) in cases {
        let (dense, dense_active, dense_faults) =
            run_mesh(&cfg.clone().schedule(NetSchedule::Dense), cores, switch);
        let (active, active_active, active_faults) =
            run_mesh(&cfg.schedule(NetSchedule::ActiveSet), cores, switch);
        assert!(dense.completed_measured() > 0, "{case}: nothing simulated");
        assert_eq!(active, dense, "{case}: schedules disagree on telemetry");
        assert_eq!(
            active_faults, dense_faults,
            "{case}: skipping changed the fault event stream"
        );
        // The schedules must do *different amounts of work* for
        // identical results — at this load most routers are idle most
        // cycles, so the active set has to be strictly smaller than the
        // dense sweep.
        assert!(
            active_active < dense_active,
            "{case}: active set never skipped anything \
             ({active_active} vs {dense_active} node-cycles)"
        );
    }
}

fn run_sharded_mesh(schedule: NetSchedule, shards: usize) -> MeshReport {
    let cfg = mesh_cfg().schedule(schedule);
    let mut sim = sharded_mesh(
        &cfg,
        16,
        shards,
        |node| faulty_switch(node, 0x5C_11ED),
        || Box::new(UniformRandom::new(64)) as Box<dyn TrafficPattern>,
    );
    sim.run()
}

#[test]
fn sharded_mesh_active_set_is_byte_identical_to_dense_at_every_shard_count() {
    let reference = run_sharded_mesh(NetSchedule::Dense, 1);
    assert!(reference.completed_measured() > 0, "nothing simulated");
    for shards in SHARD_COUNTS {
        for schedule in [NetSchedule::Dense, NetSchedule::ActiveSet] {
            assert_eq!(
                run_sharded_mesh(schedule, shards),
                reference,
                "{schedule:?} diverged from the dense 1-shard reference at {shards} shards"
            );
        }
    }
}

fn run_dragonfly(schedule: NetSchedule, shards: usize) -> MeshReport {
    // One dead wafer link so adaptive detours are in play too.
    let geo = DragonflyGeometry::new(DragonflyConfig::new(4, 4, 2, 9), 16, &[(0, 5)])
        .expect("routable dragonfly");
    let switch_cfg = switch16();
    let cfg = ShardedConfig::new()
        .injection_rate(0.01)
        .warmup(100)
        .measure(600)
        .drain(600)
        .seed(0xD12A)
        .schedule(schedule);
    let mut sim = ShardedSim::new(
        geo,
        cfg,
        shards,
        |_node| HiRiseSwitch::new(&switch_cfg),
        || Box::new(UniformRandom::new(144)) as Box<dyn TrafficPattern>,
    );
    sim.run()
}

#[test]
fn dragonfly_active_set_is_byte_identical_to_dense_at_every_shard_count() {
    let reference = run_dragonfly(NetSchedule::Dense, 1);
    assert!(reference.completed_measured() > 0, "nothing simulated");
    for shards in SHARD_COUNTS {
        for schedule in [NetSchedule::Dense, NetSchedule::ActiveSet] {
            assert_eq!(
                run_dragonfly(schedule, shards),
                reference,
                "{schedule:?} diverged from the dense 1-shard reference at {shards} shards"
            );
        }
    }
}
