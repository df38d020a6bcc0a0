//! Proof that the steady-state per-cycle hot path performs **zero heap
//! allocations**, with the invariant checker off and in the recording
//! mode every campaign job runs: a counting global allocator wraps the
//! system allocator, each fabric warms up until every scratch arena has
//! reached its peak capacity, and the counter must then stay at zero
//! across 1 000 further cycles of uniform-random traffic.
//!
//! The counter is thread-local, so parallel test threads cannot pollute
//! it, and each test serializes its own warmup/measure windows. It also
//! counts frees and live bytes, so a test can read how many heap blocks
//! and bytes a freshly built switch holds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hirise_core::{
    ArbitrationScheme, Fabric, Fault, FaultSite, FoldedSwitch, HiRiseConfig, HiRiseSwitch,
    MatchingSwitch, Switch2d,
};
use hirise_sim::dragonfly::{DragonflyConfig, DragonflyGeometry, GlobalLinkMap};
use hirise_sim::mesh_sim::MeshSimConfig;
use hirise_sim::shard::{sharded_mesh, ShardedConfig, ShardedSim};
use hirise_sim::traffic::{TrafficPattern, UniformRandom};
use hirise_sim::{NetworkSim, SimConfig};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, bumping a thread-local counter for
/// every allocation (and reallocation), another for every free, and a
/// balance of requested bytes, for the calls made while counting is
/// enabled.
struct CountingAlloc;

/// Counts one allocation of `bytes` (or, negative, a free) if counting.
fn count(allocations: u64, deallocations: u64, bytes: i64) {
    if COUNTING.get() {
        ALLOCATIONS.set(ALLOCATIONS.get() + allocations);
        DEALLOCATIONS.set(DEALLOCATIONS.get() + deallocations);
        LIVE_BYTES.set(LIVE_BYTES.get() + bytes);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, 0, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, 0, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, 0, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 1, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const RADIX: usize = 64;
const WARMUP_CYCLES: u64 = 20_000;
const COUNTED_CYCLES: u64 = 1_000;

/// Runs `fabric` to steady state, then counts allocations over
/// [`COUNTED_CYCLES`] further cycles and returns the total. With
/// `record` the invariant checker runs in recording mode, as in every
/// `hirise-lab` job, and must stay clean and audit every counted cycle.
fn count_steady_state_allocations(label: &str, fabric: Box<dyn Fabric>, record: bool) -> u64 {
    // A warmup window longer than the whole run keeps every packet
    // unmeasured, so completions never touch the (growable) latency
    // histogram. Injection is closed-loop (windowed) so the per-port
    // source queues are bounded — under open-loop injection an
    // unbounded queue can random-walk to a new depth record at any time,
    // which legitimately reallocates.
    let cfg = SimConfig::new(RADIX)
        .injection_rate(0.1)
        .window(Some(4))
        .warmup(u64::MAX / 2)
        .measure(1)
        .seed(0xA110_C8ED)
        .check_invariants(false)
        .record_invariants(record);
    let mut sim = NetworkSim::new(fabric, UniformRandom::new(RADIX), cfg);
    let mut report = sim.report();
    sim.run_cycles(&mut report, WARMUP_CYCLES);
    let checked = sim.checker().map_or(0, |c| c.cycles_checked());

    ALLOCATIONS.set(0);
    COUNTING.set(true);
    sim.run_cycles(&mut report, COUNTED_CYCLES);
    COUNTING.set(false);
    if record {
        let checker = sim.checker().expect("recording turns the checker on");
        assert_eq!(checker.violation_count(), 0, "{label}: checker violations");
        assert_eq!(
            checker.cycles_checked(),
            checked + COUNTED_CYCLES,
            "{label}: counted cycles not audited"
        );
    }
    ALLOCATIONS.get()
}

/// The seven radix-64 fabrics of the single-switch audits.
fn fabrics() -> Vec<(&'static str, Box<dyn Fabric>)> {
    let hirise_cfg = HiRiseConfig::builder(RADIX, 4)
        .channel_multiplicity(4)
        .scheme(ArbitrationScheme::LayerToLayerLrg)
        .build()
        .expect("valid Hi-Rise configuration");

    // Fault masking must not re-introduce allocations: one dead and one
    // flaky TSV bundle keep the per-cycle resampling, masking, and
    // event-logging paths hot. (The fault log preallocates its bounded
    // recording buffer at enable time.)
    let mut faulty = HiRiseSwitch::new(&hirise_cfg);
    faulty
        .enable_faults(0xFA17_A110)
        .expect("Hi-Rise supports fault injection");
    faulty
        .inject_fault(Fault::dead(FaultSite::TsvBundle { index: 0 }))
        .expect("bundle 0 in range");
    faulty
        .inject_fault(Fault::flaky(FaultSite::TsvBundle { index: 1 }, 0.5))
        .expect("bundle 1 in range");

    vec![
        ("switch2d", Box::new(Switch2d::new(RADIX))),
        ("folded3d", Box::new(FoldedSwitch::new(RADIX, 4))),
        ("hirise", Box::new(HiRiseSwitch::new(&hirise_cfg))),
        ("hirise+faults", Box::new(faulty)),
        ("islip2", Box::new(MatchingSwitch::islip(RADIX, 2))),
        ("eslip", Box::new(MatchingSwitch::eslip(RADIX, 2))),
        ("wavefront", Box::new(MatchingSwitch::wavefront(RADIX))),
    ]
}

#[test]
fn steady_state_cycles_allocate_nothing() {
    for (fabric, switch) in fabrics() {
        let count = count_steady_state_allocations(fabric, switch, false);
        assert_eq!(
            count, 0,
            "{fabric}: {count} heap allocations across {COUNTED_CYCLES} steady-state cycles"
        );
    }
}

/// The path every campaign job runs: the recording invariant checker
/// audits each cycle without allocating.
#[test]
fn steady_state_cycles_with_the_recording_checker_allocate_nothing() {
    for (fabric, switch) in fabrics() {
        let count = count_steady_state_allocations(fabric, switch, true);
        assert_eq!(
            count, 0,
            "{fabric} + checker: {count} heap allocations across {COUNTED_CYCLES} steady-state cycles"
        );
    }
}

/// Radix-16 Hi-Rise switch used by the network-level cases below.
fn net_switch_cfg() -> HiRiseConfig {
    HiRiseConfig::builder(16, 4)
        .channel_multiplicity(4)
        .scheme(ArbitrationScheme::LayerToLayerLrg)
        .build()
        .expect("valid Hi-Rise configuration")
}

/// The network-level hot loop must also be allocation-free at steady
/// state: the packet arena, per-router switch cycles and engine scratch
/// (worklists, request buffers, forwards), active-set bitsets and
/// source queues all reach their peak capacity during warmup and are
/// reused thereafter.
///
/// A warmup window longer than the run keeps every packet unmeasured,
/// so deliveries never touch the growable latency histogram. Injection
/// is open-loop here (the mesh has no windowed mode), but the seed is
/// fixed, so the queue/arena high-water marks — and therefore the
/// allocation count — are deterministic: the load sits well inside the
/// mesh's stable region (its 2-ports-per-direction bisection saturates
/// near 0.03/core), so every buffer plateaus during warmup.
///
/// The allocation counter is thread-local, so this pins the
/// single-shard configuration, which runs the worker loop inline on the
/// calling thread — the per-shard state (mailboxes, totals, frontier)
/// is identical at higher shard counts, and `tests/net_schedule.rs`
/// pins those byte-identical to this one.
#[test]
fn steady_state_sharded_cycles_allocate_nothing() {
    let cfg = MeshSimConfig::new(4, 4, 2)
        .injection_rate(0.02)
        .warmup(u64::MAX / 2)
        .seed(0xA110_C8ED);
    let switch_cfg = net_switch_cfg();
    // 4x4 nodes, radix 16, 2 ports per direction -> 8 cores per node.
    let cores = 4 * 4 * (16 - 4 * 2);
    let mut sim = sharded_mesh(
        &cfg,
        16,
        1,
        |_node| HiRiseSwitch::new(&switch_cfg),
        || Box::new(UniformRandom::new(cores)) as Box<dyn TrafficPattern>,
    );
    sim.run_cycles(WARMUP_CYCLES);

    ALLOCATIONS.set(0);
    COUNTING.set(true);
    sim.run_cycles(COUNTED_CYCLES);
    COUNTING.set(false);
    let count = ALLOCATIONS.get();
    assert_eq!(
        count, 0,
        "sharded mesh: {count} heap allocations across {COUNTED_CYCLES} steady-state cycles"
    );
}

/// The dragonfly's routers step the same switch cycle as the mesh's, on
/// uncredited links and a two-barrier cycle: a one-shard dragonfly at
/// low load must also reach an allocation-free steady state. The load
/// sits far below saturation, so the open-loop source queues and the
/// packet arena plateau during warmup (the seed is fixed, so the count
/// is deterministic).
#[test]
fn steady_state_dragonfly_cycles_allocate_nothing() {
    // 9 groups of 4 radix-16 routers: 4 endpoints, 3 local and 2
    // global ports each.
    let shape = DragonflyConfig::new(4, 4, 2, 9).map(GlobalLinkMap::Palmtree);
    let geo = DragonflyGeometry::new(shape, 16, &[]).expect("buildable dragonfly");
    let endpoints = 9 * 4 * 4;
    let cfg = ShardedConfig::new()
        .injection_rate(0.02)
        .warmup(u64::MAX / 2)
        .seed(0xA110_C8ED);
    let switch_cfg = net_switch_cfg();
    let mut sim = ShardedSim::new(
        geo,
        cfg,
        1,
        |_node| HiRiseSwitch::new(&switch_cfg),
        || Box::new(UniformRandom::new(endpoints)) as Box<dyn TrafficPattern>,
    );
    sim.run_cycles(WARMUP_CYCLES);

    ALLOCATIONS.set(0);
    COUNTING.set(true);
    sim.run_cycles(COUNTED_CYCLES);
    COUNTING.set(false);
    let count = ALLOCATIONS.get();
    assert_eq!(
        count, 0,
        "dragonfly: {count} heap allocations across {COUNTED_CYCLES} steady-state cycles"
    );
    assert_eq!(sim.invariant_violation_count(), 0);
}

/// The heap blocks and bytes `build`'s result holds once built, boxed
/// as a network keeps its routers.
fn fresh_heap(build: impl FnOnce() -> Box<dyn Fabric>) -> (u64, i64, Box<dyn Fabric>) {
    ALLOCATIONS.set(0);
    DEALLOCATIONS.set(0);
    LIVE_BYTES.set(0);
    COUNTING.set(true);
    let fabric = build();
    COUNTING.set(false);
    (
        ALLOCATIONS.get() - DEALLOCATIONS.get(),
        LIVE_BYTES.get(),
        fabric,
    )
}

/// A switch keeps each bank of arbiters in one array, so a freshly
/// built Hi-Rise 32x4 c2 router (the wafer dragonfly's) holds a few
/// dozen heap blocks rather than one per arbiter: it has 56 local
/// columns and 32 sub-blocks with a CLRG counter set each. Its LRG
/// arbiters hold one `u16` rank per requestor, its fault state is
/// boxed until enabled, and its decode tables are shared by every
/// switch of its shape built after it on the thread: the first switch
/// of the shape holds 4,400 bytes, each further one 3,216.
#[test]
fn a_fresh_hirise_switch_holds_few_heap_blocks() {
    let cfg = HiRiseConfig::builder(32, 4)
        .channel_multiplicity(2)
        .build()
        .expect("valid Hi-Rise configuration");
    let (live, first_bytes, first) = fresh_heap(|| Box::new(HiRiseSwitch::new(&cfg)));
    assert!(
        live <= 40,
        "a fresh 32x4 c2 switch holds {live} heap blocks"
    );
    assert!(
        first_bytes <= 4_400,
        "the first 32x4 c2 switch holds {first_bytes} heap bytes"
    );
    let (_, bytes, second) = fresh_heap(|| Box::new(HiRiseSwitch::new(&cfg)));
    assert!(
        bytes <= 3_216,
        "each further 32x4 c2 switch holds {bytes} heap bytes"
    );
    drop((first, second));
}

/// A radix-64 2D switch keeps its 64 output arbiters as 64 ranks each
/// (8 KiB of its 12,624 heap bytes).
#[test]
fn a_fresh_switch2d_holds_its_ranks_in_few_bytes() {
    let (_, bytes, switch) = fresh_heap(|| Box::new(Switch2d::new(RADIX)));
    assert!(
        bytes <= 12_624,
        "a fresh radix-64 2D switch holds {bytes} heap bytes"
    );
    drop(switch);
}
