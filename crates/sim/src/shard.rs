//! Intra-simulation sharding: one large topology, many threads, one
//! deterministic answer.
//!
//! `hirise-lab` parallelizes *across* independent jobs; this module
//! parallelizes *inside* one simulation. A [`ShardTopology`] is
//! partitioned into contiguous blocks of nodes (and therefore
//! endpoints), each owned by one shard. Shards advance in lockstep, one
//! simulated cycle at a time, exchanging boundary flits at phase
//! barriers:
//!
//! 1. **Transfers** — every shard progresses the transfers of its own
//!    nodes; a completion whose downstream node lives in another shard
//!    is posted to that shard's mailbox instead of being injected
//!    directly. *Barrier.* Each shard drains its inbound mailboxes (in
//!    shard order) and publishes the occupancy of its boundary input
//!    ports that changed (untouched ports' snapshots are still valid).
//! 2. **Injection** — each shard polls its own endpoints' traffic
//!    streams. *Barrier* — on credited topologies only: it orders the
//!    snapshots of phase 1 before phase 3's credit checks, and
//!    uncredited ones (the dragonfly) read no other shard's state in
//!    phase 3, so their cycle has two barriers.
//! 3. **Arbitration** — each shard buffers, selects, credit-checks
//!    (remote occupancy comes from the published snapshots), arbitrates
//!    and launches for its own nodes, then publishes its injected /
//!    completed totals. *Barrier.*
//!
//! The per-node state and the heavy phases live in `crate::engine`:
//! one [`SwitchCycle`](crate::SwitchCycle) per router (the switch cycle
//! of the single-switch simulator), SoA packet arenas instead of
//! per-node hash maps, and active-set scheduling so each shard's phases
//! iterate only its nodes that actually hold traffic. Mailboxes carry an
//! [`AtomicBool`] flag, so the per-pair boundary exchange costs one
//! relaxed load — no lock — for every pair with no traffic this cycle.
//!
//! Determinism is structural, not incidental:
//!
//! - Injection RNG streams and packet ids are pure functions of the
//!   *global* endpoint index ([`derive_stream_seed`]; ids are
//!   `endpoint << 32 | seq`), so who owns an endpoint is irrelevant.
//! - Within a cycle, at most one packet can arrive at any input port
//!   (its unique upstream wire), so the order in which mailboxes drain
//!   cannot change port state.
//! - A port's occupancy is constant throughout phase 3 (only phases 1–2
//!   change it), so credit checks read the same value whether the
//!   downstream port is local, remote, or checked before or after its
//!   own node arbitrates — exactly the value the single-threaded
//!   reference reads.
//! - All telemetry counters are sums and mergeable histograms, so
//!   per-shard partial reports fold into the single-instance report
//!   bit-for-bit.
//!
//! The identity tests in `tests/shard_identity.rs` pin all of this:
//! sharded telemetry at 2 and 8 shards is byte-identical to the
//! one-shard reference, faults included, and a one-router topology
//! reproduces the single-switch [`NetworkSim`](crate::NetworkSim);
//! `tests/net_schedule.rs` additionally pins the active-set schedule
//! byte-identical to the dense one at every shard count.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use crate::engine::{phase_arbitrate, phase_transfers, NetSchedule, NodeEngine};
use crate::mesh_sim::{MeshGeometry, MeshReport, MeshSimConfig};
use crate::packet::Packet;
use crate::traffic::TrafficPattern;
use hirise_core::rng::{derive_stream_seed, SeedableRng, StdRng};
use hirise_core::{Fabric, InputId, OutputId, PacketHandle};

/// A topology the sharded engine can partition and step: a set of
/// identical-radix switches (nodes), each with locally attached
/// endpoints, connected by point-to-point wires between switch ports.
///
/// Implementations must be pure geometry — `route` and `wire` may not
/// depend on simulation state — so every shard can evaluate them for
/// any node without coordination.
pub trait ShardTopology: Sync {
    /// Number of switches.
    fn nodes(&self) -> usize;
    /// Switch radix (every node identical).
    fn radix(&self) -> usize;
    /// Endpoints attached to each node.
    fn endpoints_per_node(&self) -> usize;
    /// Total endpoints.
    fn total_endpoints(&self) -> usize {
        self.nodes() * self.endpoints_per_node()
    }
    /// The switch input port local endpoint `local` injects into (and
    /// whose same-index output port ejects to it).
    fn endpoint_port(&self, local: usize) -> usize;
    /// Next-hop output port at `node` for a packet bound for global
    /// endpoint `dst_endpoint`; `lane` (the packet id) spreads traffic
    /// across parallel ports where the topology has them.
    fn route(&self, node: usize, dst_endpoint: usize, lane: usize) -> OutputId;
    /// The (node, input port) the given output port of `node` feeds, or
    /// `None` if the output ejects locally (or is unused). A wire never
    /// feeds its own node.
    fn wire(&self, node: usize, output: OutputId) -> Option<(usize, usize)>;
    /// Whether link-fed input ports advertise bounded buffering that
    /// senders must credit-check. Meshes do (XY routing keeps them
    /// deadlock-free); the dragonfly topology instead uses unbounded
    /// input queues, trading buffer realism for deadlock freedom
    /// without escape VCs.
    fn credit_links(&self) -> bool;
    /// Short label for reports.
    fn name(&self) -> &'static str;
}

impl ShardTopology for MeshGeometry {
    fn nodes(&self) -> usize {
        MeshGeometry::nodes(self)
    }

    fn radix(&self) -> usize {
        MeshGeometry::radix(self)
    }

    fn endpoints_per_node(&self) -> usize {
        self.cores_per_node()
    }

    fn endpoint_port(&self, local: usize) -> usize {
        self.core_port(local)
    }

    fn route(&self, node: usize, dst_endpoint: usize, lane: usize) -> OutputId {
        MeshGeometry::route(self, node, dst_endpoint, lane)
    }

    fn wire(&self, node: usize, output: OutputId) -> Option<(usize, usize)> {
        self.link_endpoint(node, output)
    }

    fn credit_links(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "mesh"
    }
}

/// Simulation parameters shared by every sharded topology (the
/// mesh-specific geometry fields of [`MeshSimConfig`] live in
/// [`MeshGeometry`] instead).
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Virtual channels per input port.
    pub vcs: usize,
    /// Packet length in flits.
    pub packet_len_flits: usize,
    /// Offered load in packets/endpoint/cycle.
    pub injection_rate: f64,
    /// Downstream buffering a link-fed port advertises, in packets
    /// (only enforced when the topology credit-checks links).
    pub link_buffer_packets: usize,
    /// Warmup cycles before the measurement window.
    pub warmup: u64,
    /// Measurement window length in cycles.
    pub measure: u64,
    /// Post-window drain cap in cycles.
    pub drain: u64,
    /// Master seed; per-endpoint streams derive from it by position.
    pub seed: u64,
    /// Per-cycle scheduling strategy — an execution knob, never a
    /// results knob (telemetry is byte-identical across schedules).
    pub schedule: NetSchedule,
}

impl ShardedConfig {
    /// Defaults mirroring the single-switch methodology (4 VCs, 4-flit
    /// packets), like [`MeshSimConfig::new`].
    pub fn new() -> Self {
        Self {
            vcs: 4,
            packet_len_flits: 4,
            injection_rate: 0.02,
            link_buffer_packets: 4,
            warmup: 1_000,
            measure: 10_000,
            drain: 10_000,
            seed: 0x3D_3E54,
            schedule: NetSchedule::default(),
        }
    }

    pub(crate) fn from_mesh(cfg: &MeshSimConfig) -> Self {
        Self {
            vcs: cfg.vcs,
            packet_len_flits: cfg.packet_len_flits,
            injection_rate: cfg.injection_rate,
            link_buffer_packets: cfg.link_buffer_packets,
            warmup: cfg.warmup,
            measure: cfg.measure,
            drain: cfg.drain,
            seed: cfg.seed,
            schedule: cfg.schedule,
        }
    }

    /// Sets the offered load in packets/endpoint/cycle.
    pub fn injection_rate(mut self, rate: f64) -> Self {
        self.injection_rate = rate;
        self
    }

    /// Sets the warmup length in cycles.
    pub fn warmup(mut self, cycles: u64) -> Self {
        self.warmup = cycles;
        self
    }

    /// Sets the measurement window in cycles.
    pub fn measure(mut self, cycles: u64) -> Self {
        self.measure = cycles;
        self
    }

    /// Sets the drain cap in cycles.
    pub fn drain(mut self, cycles: u64) -> Self {
        self.drain = cycles;
        self
    }

    /// Sets the master RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the per-cycle scheduling strategy (see [`NetSchedule`]).
    pub fn schedule(mut self, schedule: NetSchedule) -> Self {
        self.schedule = schedule;
        self
    }
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A packet crossing a shard boundary: deliver to `(node, input)` of
/// the receiving shard at the start of the next phase, with its hop
/// count (the sender freed its own arena slot; the receiver allocates
/// one).
struct Handoff {
    node: usize,
    input: usize,
    packet: Packet,
    hops: u32,
}

/// One (receiver, sender) boundary queue. Only the sender's thread
/// writes it; the flag lets the receiver skip the lock entirely for
/// pairs with no traffic this cycle, which at low load is nearly all of
/// them.
struct Mailbox {
    flag: AtomicBool,
    queue: Mutex<Vec<Handoff>>,
}

impl Mailbox {
    fn new() -> Self {
        Self {
            flag: AtomicBool::new(false),
            queue: Mutex::new(Vec::new()),
        }
    }
}

/// One shard: a contiguous block of nodes and their endpoints, with all
/// mutable simulation state for them.
struct ShardState<F> {
    /// First owned node (nodes are contiguous; the count is
    /// `switches.len()`).
    node_lo: usize,
    /// Owned endpoints (global indices), `[end_lo, end_hi)`.
    end_lo: usize,
    end_hi: usize,
    switches: Vec<F>,
    /// Ports, packet arena, transfer slots, active sets and scratch —
    /// the state shared with the unsharded reference.
    engine: NodeEngine,
    /// Per owned endpoint, its position-derived injection stream.
    rngs: Vec<StdRng>,
    /// Per owned endpoint, packets injected so far (id low bits).
    seqs: Vec<u64>,
    /// This shard's instance of the traffic pattern. Patterns keep only
    /// per-input state, so polling a private instance for the owned
    /// inputs replays exactly what one shared instance would say.
    pattern: Box<dyn TrafficPattern>,
    /// Partial telemetry: strictly the contributions of owned nodes
    /// (deliveries) and owned endpoints (injections).
    report: MeshReport,
    /// Per local port (`local_node * radix + input`), the frontier
    /// snapshot slot to publish its occupancy to, or `u32::MAX` for
    /// non-boundary ports.
    publish_slot: Vec<u32>,
}

/// Occupancy snapshots of boundary (cross-shard) input ports, indexed
/// by slot; [`Frontier::slot_of`] maps `(node, input)` to its slot.
struct Frontier {
    slot_of: HashMap<(usize, usize), usize>,
    values: Vec<AtomicUsize>,
}

/// Per-shard published totals for the lockstep drain decision.
struct Totals {
    injected: AtomicU64,
    completed: AtomicU64,
}

/// A sharded cycle-accurate simulation of a [`ShardTopology`], running
/// one worker thread per shard (inline when there is only one shard).
///
/// Telemetry is byte-identical at any shard count; one shard is the
/// reference.
pub struct ShardedSim<F, T> {
    topo: T,
    cfg: ShardedConfig,
    shards: Vec<ShardState<F>>,
    frontier: Frontier,
    /// Lower node bound of each shard, for `shard_of` lookups.
    starts: Vec<usize>,
    /// `mail[receiver][sender]`; persistent so steady-state cycles
    /// allocate nothing.
    mail: Vec<Vec<Mailbox>>,
    totals: Vec<Totals>,
    barrier: Barrier,
    now: u64,
}

/// Balanced contiguous partition of `nodes` into `shards` blocks.
fn partition(nodes: usize, shards: usize) -> Vec<(usize, usize)> {
    let base = nodes / shards;
    let rem = nodes % shards;
    let mut out = Vec::with_capacity(shards);
    let mut lo = 0;
    for s in 0..shards {
        let len = base + usize::from(s < rem);
        out.push((lo, lo + len));
        lo += len;
    }
    out
}

fn shard_of(starts: &[usize], node: usize) -> usize {
    starts.partition_point(|&lo| lo <= node) - 1
}

impl<F: Fabric, T: ShardTopology> ShardedSim<F, T> {
    /// Builds the sharded simulation. `make_switch` is called once per
    /// node in global node order (so node-specific fault injection is a
    /// pure function of position); `make_pattern` once per shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds the node count, or if any
    /// switch disagrees with the topology's radix.
    pub fn new(
        topo: T,
        cfg: ShardedConfig,
        shards: usize,
        mut make_switch: impl FnMut(usize) -> F,
        mut make_pattern: impl FnMut() -> Box<dyn TrafficPattern>,
    ) -> Self {
        let nodes = topo.nodes();
        let radix = topo.radix();
        let epn = topo.endpoints_per_node();
        assert!(
            shards >= 1 && shards <= nodes,
            "shard count must be in 1..={nodes}, got {shards}"
        );
        let plan = partition(nodes, shards);
        let starts: Vec<usize> = plan.iter().map(|&(lo, _)| lo).collect();

        // Boundary ports: any input port fed by a wire whose source
        // node lives in a different shard gets a snapshot slot.
        let mut frontier = Frontier {
            slot_of: HashMap::new(),
            values: Vec::new(),
        };
        let mut publish_slots: Vec<Vec<u32>> = plan
            .iter()
            .map(|&(lo, hi)| vec![u32::MAX; (hi - lo) * radix])
            .collect();
        if topo.credit_links() {
            for node in 0..nodes {
                let src_shard = shard_of(&starts, node);
                for output in 0..radix {
                    let Some((dst, input)) = topo.wire(node, OutputId::new(output)) else {
                        continue;
                    };
                    assert_ne!(
                        dst, node,
                        "output {output} of node {node} feeds its own node"
                    );
                    let dst_shard = shard_of(&starts, dst);
                    if dst_shard == src_shard {
                        continue;
                    }
                    let next_slot = frontier.values.len();
                    let slot = *frontier.slot_of.entry((dst, input)).or_insert(next_slot);
                    if slot == next_slot {
                        frontier.values.push(AtomicUsize::new(0));
                        let local = dst - plan[dst_shard].0;
                        publish_slots[dst_shard][local * radix + input] =
                            u32::try_from(slot).expect("frontier outgrew u32 slots");
                    }
                }
            }
        }

        let states: Vec<ShardState<F>> = plan
            .iter()
            .zip(publish_slots)
            .map(|(&(lo, hi), publish_slot)| {
                let switches: Vec<F> = (lo..hi)
                    .map(|node| {
                        let sw = make_switch(node);
                        assert!(
                            sw.radix() == radix,
                            "switch at node {node} has radix {}, topology wants {radix}",
                            sw.radix()
                        );
                        sw
                    })
                    .collect();
                let has_boundary = publish_slot.iter().any(|&s| s != u32::MAX);
                let engine = NodeEngine::new(&switches, cfg.vcs, cfg.schedule, has_boundary);
                ShardState {
                    node_lo: lo,
                    end_lo: lo * epn,
                    end_hi: hi * epn,
                    switches,
                    engine,
                    rngs: (lo * epn..hi * epn)
                        .map(|e| StdRng::seed_from_u64(derive_stream_seed(cfg.seed, e as u64)))
                        .collect(),
                    seqs: vec![0; (hi - lo) * epn],
                    pattern: make_pattern(),
                    report: MeshReport::empty(cfg.measure, nodes * epn),
                    publish_slot,
                }
            })
            .collect();

        Self {
            topo,
            cfg,
            shards: states,
            frontier,
            starts,
            mail: (0..shards)
                .map(|_| (0..shards).map(|_| Mailbox::new()).collect())
                .collect(),
            totals: (0..shards)
                .map(|_| Totals {
                    injected: AtomicU64::new(0),
                    completed: AtomicU64::new(0),
                })
                .collect(),
            barrier: Barrier::new(shards),
            now: 0,
        }
    }

    /// Number of shards (worker threads).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total endpoints of the underlying topology.
    pub fn total_endpoints(&self) -> usize {
        self.topo.total_endpoints()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// Total fault events logged across all switches.
    pub fn fault_event_count(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.switches.iter())
            .map(|s| s.fault_log().map_or(0, |log| log.total()))
            .sum()
    }

    /// Sum over cycles and shards of the number of routers doing
    /// per-cycle work (the active `work` sets) — divide by
    /// `cycles * nodes` for the mean active-router occupancy.
    pub fn active_node_cycles(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.engine.active_node_cycles())
            .sum()
    }

    /// Total metadata-integrity violations recorded across shards (a
    /// buffered packet whose arena slot went missing — formerly a
    /// process abort).
    pub fn invariant_violation_count(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.violation_count()).sum()
    }

    /// Cycles simulated so far.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Packets held by input `input` of node `node`.
    #[cfg(test)]
    pub(crate) fn occupancy(&self, node: usize, input: usize) -> usize {
        let shard = &self.shards[shard_of(&self.starts, node)];
        shard
            .engine
            .occupancy((node - shard.node_lo) * self.topo.radix() + input)
    }

    /// Runs the configured warmup + measurement + drain and reports.
    /// Call once on a fresh instance.
    pub fn run(&mut self) -> MeshReport {
        let fixed = self.cfg.warmup + self.cfg.measure;
        self.execute(fixed, Some(self.cfg.drain));
        self.report()
    }

    /// Advances exactly `cycles` cycles without draining — the
    /// benchmarking entry point (threads are spawned once per call, not
    /// per cycle).
    pub fn run_cycles(&mut self, cycles: u64) {
        self.execute(cycles, None);
    }

    /// The merged telemetry so far.
    pub fn report(&self) -> MeshReport {
        let mut merged = MeshReport::empty(self.cfg.measure, self.topo.total_endpoints());
        for shard in &self.shards {
            merged.absorb(&shard.report);
        }
        merged
    }

    /// Runs `fixed` unconditional cycles, then (when `drain_cap` is
    /// set) drain cycles until every measured injection has completed
    /// or the cap is hit — every shard computes the same drain decision
    /// from the published totals, so they stop on the same cycle.
    fn execute(&mut self, fixed: u64, drain_cap: Option<u64>) {
        let Self {
            topo,
            cfg,
            shards,
            frontier,
            starts,
            mail,
            totals,
            barrier,
            now,
        } = self;
        let start_now = *now;
        let topo = &*topo;
        let cfg = &*cfg;
        let starts = &*starts;
        let frontier = &*frontier;
        let mail = &*mail;
        let totals = &*totals;
        let barrier = &*barrier;

        // Seed the totals with the state so far, so a drain decision in
        // a later `execute` call sees earlier windows' counters.
        for (cell, shard) in totals.iter().zip(shards.iter()) {
            cell.injected
                .store(shard.report.injected_measured, Ordering::Relaxed);
            cell.completed
                .store(shard.report.completed_measured, Ordering::Relaxed);
        }

        let advanced = if shards.len() == 1 {
            worker(
                0,
                &mut shards[0],
                topo,
                cfg,
                starts,
                mail,
                frontier,
                totals,
                barrier,
                start_now,
                fixed,
                drain_cap,
            )
        } else {
            let mut advanced = 0;
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter_mut()
                    .enumerate()
                    .map(|(me, shard)| {
                        scope.spawn(move || {
                            worker(
                                me, shard, topo, cfg, starts, mail, frontier, totals, barrier,
                                start_now, fixed, drain_cap,
                            )
                        })
                    })
                    .collect();
                for handle in handles {
                    // Every worker runs the same cycle count by
                    // construction; keep the last.
                    advanced = handle.join().expect("shard worker panicked");
                }
            });
            advanced
        };
        *now = start_now + advanced;
    }
}

/// Convenience constructor: the mesh simulation `cfg` describes, with
/// `make_switch(node)` as each node's `radix`-port switch, driven by
/// `make_pattern` traffic and split over `shards` threads.
pub fn sharded_mesh<F: Fabric>(
    cfg: &MeshSimConfig,
    radix: usize,
    shards: usize,
    make_switch: impl FnMut(usize) -> F,
    make_pattern: impl FnMut() -> Box<dyn TrafficPattern>,
) -> ShardedSim<F, MeshGeometry> {
    let geo = MeshGeometry::new(
        cfg.cols,
        cfg.rows,
        cfg.ports_per_direction,
        radix,
        cfg.port_map,
    );
    ShardedSim::new(
        geo,
        ShardedConfig::from_mesh(cfg),
        shards,
        make_switch,
        make_pattern,
    )
}

/// One shard's lockstep loop. Returns the number of cycles advanced
/// (identical across shards).
#[allow(clippy::too_many_arguments)]
fn worker<F: Fabric, T: ShardTopology>(
    me: usize,
    st: &mut ShardState<F>,
    topo: &T,
    cfg: &ShardedConfig,
    starts: &[usize],
    mail: &[Vec<Mailbox>],
    frontier: &Frontier,
    totals: &[Totals],
    barrier: &Barrier,
    start_now: u64,
    fixed: u64,
    drain_cap: Option<u64>,
) -> u64 {
    let mut advanced = 0u64;
    let mut drained = 0u64;
    let node_lo = st.node_lo;
    let credit = topo.credit_links();
    loop {
        if advanced >= fixed {
            let Some(cap) = drain_cap else { break };
            let injected: u64 = totals
                .iter()
                .map(|t| t.injected.load(Ordering::Relaxed))
                .sum();
            let completed: u64 = totals
                .iter()
                .map(|t| t.completed.load(Ordering::Relaxed))
                .sum();
            if completed >= injected || drained >= cap {
                break;
            }
            drained += 1;
        }
        let now = start_now + advanced;
        let in_window = now >= cfg.warmup && now < cfg.warmup + cfg.measure;

        {
            let ShardState {
                engine,
                switches,
                report,
                ..
            } = st;
            phase_transfers(
                engine,
                switches,
                topo,
                node_lo,
                report,
                in_window,
                now,
                |next_node, next_input, packet, hops| {
                    let mailbox = &mail[shard_of(starts, next_node)][me];
                    mailbox
                        .queue
                        .lock()
                        .expect("mailbox poisoned")
                        .push(Handoff {
                            node: next_node,
                            input: next_input,
                            packet,
                            hops,
                        });
                    mailbox.flag.store(true, Ordering::Release);
                },
            );
        }
        barrier.wait();

        // Drain inbound handoffs in sender order (deterministic; at
        // most one packet per port per cycle regardless). The flag
        // makes an empty mailbox cost one atomic load, no lock.
        for mailbox in &mail[me] {
            if !mailbox.flag.swap(false, Ordering::Acquire) {
                continue;
            }
            let mut inbound = mailbox.queue.lock().expect("mailbox poisoned");
            for Handoff {
                node,
                input,
                packet,
                hops,
            } in inbound.drain(..)
            {
                st.engine.admit_new(node - node_lo, input, packet, hops);
            }
        }
        // Publish the boundary occupancies that changed (phase 1 and
        // the drains above are the only writers of boundary ports;
        // injection below only touches endpoint ports, which are never
        // boundary ports). Untouched snapshots are still valid.
        for i in 0..st.engine.touched.len() {
            let idx = st.engine.touched[i] as usize;
            let slot = st.publish_slot[idx];
            if slot != u32::MAX {
                frontier.values[slot as usize].store(st.engine.occupancy(idx), Ordering::Relaxed);
            }
        }
        st.engine.touched.clear();
        phase_inject(st, topo, cfg, in_window, now);
        // This barrier only orders the snapshot publishes above before
        // other shards' credit checks read them. Without credit links
        // nothing in phase 3 reads another shard's state, so a shard may
        // start arbitrating while its neighbours still inject.
        if credit {
            barrier.wait();
        }

        {
            let ShardState {
                engine, switches, ..
            } = st;
            phase_arbitrate(
                engine,
                switches,
                topo,
                node_lo,
                cfg.link_buffer_packets,
                |next_node, next_input| {
                    frontier.values[frontier.slot_of[&(next_node, next_input)]]
                        .load(Ordering::Relaxed)
                },
            );
        }
        totals[me]
            .injected
            .store(st.report.injected_measured, Ordering::Relaxed);
        totals[me]
            .completed
            .store(st.report.completed_measured, Ordering::Relaxed);
        advanced += 1;
        barrier.wait();
    }
    advanced
}

/// Phase 2: injection at this shard's endpoints, each from its own
/// position-derived stream with position-derived packet ids.
fn phase_inject<F: Fabric, T: ShardTopology>(
    st: &mut ShardState<F>,
    topo: &T,
    cfg: &ShardedConfig,
    in_window: bool,
    now: u64,
) {
    let epn = topo.endpoints_per_node();
    for endpoint in st.end_lo..st.end_hi {
        let le = endpoint - st.end_lo;
        let Some(dst) =
            st.pattern
                .next(InputId::new(endpoint), cfg.injection_rate, &mut st.rngs[le])
        else {
            continue;
        };
        let local = endpoint / epn - st.node_lo;
        let input_port = topo.endpoint_port(endpoint % epn);
        let seq = st.seqs[le];
        st.seqs[le] += 1;
        debug_assert!(seq < 1 << 32, "per-endpoint packet sequence overflow");
        let packet = Packet {
            id: ((endpoint as u64) << 32) | seq,
            src: InputId::new(input_port),
            dst: OutputId::new(dst.index()), // final endpoint id, re-routed per hop
            len_flits: cfg.packet_len_flits,
            birth_cycle: now,
            measured: in_window,
            handle: PacketHandle::NONE, // assigned by the arena below
        };
        if in_window {
            st.report.injected_measured += 1;
        }
        st.engine.admit_new(local, input_port, packet, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_balanced_and_contiguous() {
        for (nodes, shards) in [(9, 1), (9, 2), (9, 8), (16, 8), (5, 5)] {
            let plan = partition(nodes, shards);
            assert_eq!(plan.len(), shards);
            assert_eq!(plan[0].0, 0);
            assert_eq!(plan[shards - 1].1, nodes);
            for w in plan.windows(2) {
                assert_eq!(w[0].1, w[1].0, "gap in partition {plan:?}");
            }
            let sizes: Vec<usize> = plan.iter().map(|&(lo, hi)| hi - lo).collect();
            let min = sizes.iter().min().unwrap();
            let max = sizes.iter().max().unwrap();
            assert!(max - min <= 1, "unbalanced partition {sizes:?}");
        }
    }

    #[test]
    fn shard_of_inverts_partition() {
        let plan = partition(11, 3);
        let starts: Vec<usize> = plan.iter().map(|&(lo, _)| lo).collect();
        for (s, &(lo, hi)) in plan.iter().enumerate() {
            for node in lo..hi {
                assert_eq!(shard_of(&starts, node), s);
            }
        }
    }
}
