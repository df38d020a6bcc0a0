//! The per-node engine of the network simulator.
//!
//! [`ShardedSim`](crate::shard::ShardedSim) steps a topology of switches
//! through a three-phase cycle (transfers, injection, arbitration); this
//! module holds each shard's per-node state and the two heavy phases.
//! Every router is one [`SwitchCycle`] — the same port scan, transfer
//! wheel, release beat, fill/select and grant commit that the
//! single-switch simulator runs — and the engine adds only what a
//! network needs around it: routing, credit checks, packet hop counts
//! and the scheduling of which routers to visit.
//!
//! Two structural choices make the hot loop cheap:
//!
//! * **SoA packet arenas** ([`crate::arena`]) — per-packet routing
//!   metadata (the hop counter) lives in one slab indexed by a
//!   [`PacketHandle`](hirise_core::PacketHandle) stored inside each
//!   [`Packet`], replacing the old per-node `HashMap<u64, MeshPacket>`
//!   (a SipHash probe per buffered packet per cycle) and its insert /
//!   remove churn.
//! * **Active sets** — the engine maintains a `work` set (nodes holding
//!   any packet in a source queue or VC) and a `moving` set (nodes with
//!   a transfer in flight). The transfer phase walks only `moving`, the
//!   arbitration phase only `work`, and each switch cycle walks its
//!   occupancy bitmaps and its wheel's bitmap for the cycle, so an idle
//!   router costs *zero* work per cycle instead of a radix-wide scan
//!   plus an empty arbitration. A switch cycle counts its own cycles in
//!   its transfer phase, and its wheel is empty whenever the router
//!   leaves `moving`, so the cycles a router is not visited shift no
//!   transfer.
//!
//! Skipping an idle router is only sound because an idle arbitration
//! cycle is unobservable for it: `arbitrate` with no requests and no
//! held connections mutates nothing but the fault-state cycle counter —
//! *unless* the fabric has flaky faults, which draw from their PRNG
//! every cycle. [`Fabric::ticks_when_idle`] reports exactly that, and
//! such nodes are *pinned*: permanently in the `work` set, arbitrated
//! every cycle, so their fault streams replay exactly as in a dense
//! sweep. The [`NetSchedule::Dense`] schedule disables skipping
//! entirely (every node, every phase, unconditional arbitration — the
//! old engine's cost model) and is pinned byte-identical to
//! [`NetSchedule::ActiveSet`] by the twin tests in
//! `tests/net_schedule.rs`.
//!
//! Membership is *state-based*, not event-based: a node is in `work`
//! iff it holds a packet (or is pinned), so a credit-blocked packet
//! keeps its node scheduled and there is no missed-wakeup hazard.

use crate::arena::PacketArena;
use crate::invariant::InvariantChecker;
use crate::mesh_sim::MeshReport;
use crate::packet::Packet;
use crate::shard::ShardTopology;
use crate::switch_cycle::SwitchCycle;
use hirise_core::{BitSet, Fabric};

/// How the network simulators schedule per-node work each cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NetSchedule {
    /// Visit every node in every phase and arbitrate unconditionally,
    /// like the pre-active-set engine. Kept as the control arm for
    /// `cyclebench`'s schedule floor and the twin-identity tests.
    Dense,
    /// Walk only the active sets; idle routers cost nothing. The
    /// default — telemetry is byte-identical to [`Dense`](Self::Dense)
    /// by construction.
    #[default]
    ActiveSet,
}

/// Per-node simulation state of one shard: a switch cycle per node,
/// the packet arena, the active sets, and persistent per-cycle scratch.
///
/// Node indices here are *local* (0-based within the owning shard);
/// phase functions take `node_lo` to translate to global topology
/// indices.
#[derive(Debug)]
pub(crate) struct NodeEngine {
    radix: usize,
    /// `cycles[node]`: the node's ports and transfers.
    cycles: Vec<SwitchCycle>,
    arena: PacketArena,
    /// Packets admitted to each node and not yet launched downstream.
    resident: Vec<u32>,
    /// Nodes with `resident > 0`, plus every pinned node.
    work: BitSet,
    /// Nodes with a transfer or release beat in flight.
    moving: BitSet,
    /// Nodes whose fabric must arbitrate every cycle
    /// ([`Fabric::ticks_when_idle`]): flaky-fault switches.
    pinned: BitSet,
    schedule: NetSchedule,
    /// Records (rather than aborts on) metadata-integrity violations.
    checker: InvariantChecker,
    /// Sum over cycles of the `work` set size — the active-router
    /// occupancy numerator reported by the `wafer_scale` example.
    active_node_cycles: u64,
    /// Snapshot buffer for iterating an active set while mutating it.
    worklist: Vec<u32>,
    /// `(node, input, packet)` forwarded to a node of this engine during
    /// one node's transfer scan, admitted once that scan is over.
    forwards: Vec<(u32, u32, Packet)>,
    /// Ports (`node * radix + input`) whose occupancy changed since the
    /// list was last drained; only maintained when `track_touched`
    /// (shards with boundary ports, which publish occupancy snapshots
    /// from it).
    pub(crate) touched: Vec<u32>,
    track_touched: bool,
}

impl NodeEngine {
    /// Builds the engine for `switches` (one node each), reading each
    /// fabric's radix and idle-tick requirement. `track_touched`
    /// enables the dirty-port list for boundary-occupancy publishing.
    pub(crate) fn new<F: Fabric>(
        switches: &[F],
        vcs: usize,
        schedule: NetSchedule,
        track_touched: bool,
    ) -> Self {
        let nodes = switches.len();
        let radix = switches[0].radix();
        let mut work = BitSet::new(nodes);
        let mut pinned = BitSet::new(nodes);
        for (node, switch) in switches.iter().enumerate() {
            if switch.ticks_when_idle() {
                pinned.insert(node);
                work.insert(node);
            }
        }
        Self {
            radix,
            cycles: (0..nodes).map(|_| SwitchCycle::new(radix, vcs)).collect(),
            arena: PacketArena::with_capacity(nodes * radix),
            resident: vec![0; nodes],
            work,
            moving: BitSet::new(nodes),
            pinned,
            schedule,
            checker: InvariantChecker::recording(),
            active_node_cycles: 0,
            worklist: Vec::with_capacity(nodes),
            forwards: Vec::with_capacity(radix),
            touched: Vec::new(),
            track_touched,
        }
    }

    /// Packets held by port `node * radix + input` (a `touched` entry).
    pub(crate) fn occupancy(&self, port: usize) -> usize {
        self.cycles[port / self.radix].ports[port % self.radix].occupancy()
    }

    /// Admits a packet that already owns a live arena slot into a
    /// node's input port (local forwarding).
    fn admit(&mut self, local: usize, input: usize, packet: Packet) {
        self.cycles[local].enqueue(input, packet);
        self.resident[local] += 1;
        self.work.insert(local);
        if self.track_touched {
            self.touched.push((local * self.radix + input) as u32);
        }
    }

    /// Allocates an arena slot holding `hops` for `packet` and admits
    /// it (fresh injections and cross-shard arrivals, whose sender
    /// freed its own slot).
    pub(crate) fn admit_new(&mut self, local: usize, input: usize, mut packet: Packet, hops: u32) {
        packet.handle = self.arena.alloc(hops);
        self.admit(local, input, packet);
    }

    /// Sum over cycles of the number of nodes the arbitration phase
    /// actually visited — the work set under the active-set schedule,
    /// every node under the dense one. Divide by `cycles * nodes` for
    /// the mean active-router occupancy.
    pub(crate) fn active_node_cycles(&self) -> u64 {
        self.active_node_cycles
    }

    /// Total violations observed (including beyond the record cap).
    pub(crate) fn violation_count(&self) -> u64 {
        self.checker.violation_count()
    }
}

/// A buffered packet's arena slot is missing: the invariant the old
/// engine enforced with `.expect("metadata present for buffered
/// packet")`. Recorded, and the packet is dropped, instead of aborting
/// the process.
fn missing_meta(checker: &mut InvariantChecker, now: u64, id: u64, node: usize) {
    checker.report_violation(
        Some(now),
        format!(
            "invariant violated: no arena metadata for buffered packet {id} at node {node}; \
             packet dropped"
        ),
    );
}

/// Transfer phase: steps the transfers of every active (`moving`) node
/// through its [`SwitchCycle`]. A packet whose tail flit lands ejects
/// (delivery telemetry into `report`), forwards into a port of this
/// engine — admitted after the sending node's scan; at most one packet
/// reaches an input per cycle and admission only queues it, so the
/// delay changes no port state — or is handed to `remote` with its
/// final hop count (cross-shard, the sender's arena slot freed).
///
/// `node_lo` is the global index of local node 0; `remote` receives
/// `(global node, input, packet, hops)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn phase_transfers<F: Fabric, T: ShardTopology + ?Sized>(
    eng: &mut NodeEngine,
    switches: &mut [F],
    topo: &T,
    node_lo: usize,
    report: &mut MeshReport,
    in_window: bool,
    now: u64,
    mut remote: impl FnMut(usize, usize, Packet, u32),
) {
    let mut list = std::mem::take(&mut eng.worklist);
    list.clear();
    match eng.schedule {
        NetSchedule::Dense => list.extend(0..eng.cycles.len() as u32),
        NetSchedule::ActiveSet => list.extend(eng.moving.iter().map(|n| n as u32)),
    }
    let node_hi = node_lo + eng.cycles.len();
    let radix = eng.radix;
    let mut forwards = std::mem::take(&mut eng.forwards);
    for &nl in &list {
        let local = nl as usize;
        let node = node_lo + local;
        let cycle = &mut eng.cycles[local];
        cycle.transfers(&mut switches[local], |input, _vc, output, packet| {
            if eng.track_touched {
                eng.touched.push((local * radix + input) as u32);
            }
            match topo.wire(node, output) {
                None => match eng.arena.take(packet.handle) {
                    Some(prior) => {
                        if in_window {
                            report.delivered_in_window += 1;
                        }
                        if packet.measured {
                            report.completed_measured += 1;
                            let latency = packet.latency(now);
                            report.latency_sum += latency;
                            report.histogram.record(latency);
                            report.hop_sum += u64::from(prior + 1);
                        }
                    }
                    None => missing_meta(&mut eng.checker, now, packet.id, node),
                },
                Some((next_node, next_input)) if (node_lo..node_hi).contains(&next_node) => {
                    match eng.arena.bump(packet.handle) {
                        Some(_) => {
                            forwards.push(((next_node - node_lo) as u32, next_input as u32, packet))
                        }
                        None => missing_meta(&mut eng.checker, now, packet.id, node),
                    }
                }
                Some((next_node, next_input)) => match eng.arena.take(packet.handle) {
                    Some(prior) => remote(next_node, next_input, packet, prior + 1),
                    None => missing_meta(&mut eng.checker, now, packet.id, node),
                },
            }
        });
        if !cycle.is_moving() {
            eng.moving.remove(local);
        }
        for (next, input, packet) in forwards.drain(..) {
            eng.admit(next as usize, input as usize, packet);
        }
    }
    eng.forwards = forwards;
    eng.worklist = list;
}

/// Arbitration phase: for every active (`work`) node, collects its
/// switch cycle's requests — routing each packet as it enters a VC and,
/// where the topology credit-checks links, revoking a candidate while
/// the downstream port is full — arbitrates them, and commits the
/// winners' transfers.
///
/// `remote_occupancy` answers credit checks for downstream ports
/// outside `[node_lo, node_lo + nodes)` (the shard frontier snapshots).
pub(crate) fn phase_arbitrate<F: Fabric, T: ShardTopology + ?Sized>(
    eng: &mut NodeEngine,
    switches: &mut [F],
    topo: &T,
    node_lo: usize,
    link_buffer_packets: usize,
    mut remote_occupancy: impl FnMut(usize, usize) -> usize,
) {
    let credit = topo.credit_links();
    let mut list = std::mem::take(&mut eng.worklist);
    list.clear();
    match eng.schedule {
        NetSchedule::Dense => list.extend(0..eng.cycles.len() as u32),
        NetSchedule::ActiveSet => list.extend(eng.work.iter().map(|n| n as u32)),
    }
    eng.active_node_cycles += list.len() as u64;
    for &nl in &list {
        let local = nl as usize;
        let node = node_lo + local;
        // Credit checks read the downstream node's ports beside this
        // node's own, which `collect` holds mutably. Occupancy is
        // constant throughout arbitration, and a wire never loops back
        // to its own node (`ShardedSim::new` checks).
        let (before, rest) = eng.cycles.split_at_mut(local);
        let (cycle, after) = rest.split_first_mut().expect("local node in range");
        let route =
            |_input, packet: &Packet| topo.route(node, packet.dst.index(), packet.id as usize);
        if credit {
            // The downstream port must have a free slot before this hop
            // may start (the in-flight hop itself is the one slot we
            // reserve).
            cycle.collect(route, |_input, output| {
                let Some((next_node, next_input)) = topo.wire(node, output) else {
                    return true;
                };
                let next = next_node.wrapping_sub(node_lo);
                let occupancy = if next < local {
                    before[next].ports[next_input].occupancy()
                } else if next > local && next - local - 1 < after.len() {
                    after[next - local - 1].ports[next_input].occupancy()
                } else {
                    remote_occupancy(next_node, next_input)
                };
                occupancy < link_buffer_packets
            });
        } else {
            cycle.collect(route, |_, _| true);
        }
        // An idle arbitration is unobservable unless the fabric ticks
        // its fault PRNG when idle — those nodes are pinned and always
        // arbitrated, so skipping here never desynchronises a stream.
        if cycle.requests.is_empty()
            && eng.schedule == NetSchedule::ActiveSet
            && !eng.pinned.contains(local)
        {
            continue;
        }
        switches[local].arbitrate_into(&cycle.requests, &mut cycle.grants);
        let started = cycle.commit();
        if started > 0 {
            eng.moving.insert(local);
            // The launched packets no longer hold this node active.
            eng.resident[local] -= started as u32;
            if eng.resident[local] == 0 && !eng.pinned.contains(local) {
                eng.work.remove(local);
            }
        }
    }
    eng.worklist = list;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh_sim::{MeshGeometry, MeshPortMap};
    use hirise_core::{InputId, OutputId, PacketHandle, Switch2d};

    fn tiny() -> (NodeEngine, Vec<Switch2d>, MeshGeometry) {
        let geo = MeshGeometry::new(2, 1, 1, 8, MeshPortMap::Contiguous);
        let switches: Vec<Switch2d> = (0..2).map(|_| Switch2d::new(8)).collect();
        let eng = NodeEngine::new(&switches, 4, NetSchedule::ActiveSet, false);
        (eng, switches, geo)
    }

    fn packet(id: u64, src: usize, dst_endpoint: usize) -> Packet {
        Packet {
            id,
            src: InputId::new(src),
            dst: OutputId::new(dst_endpoint),
            len_flits: 2,
            birth_cycle: 0,
            measured: true,
            handle: PacketHandle::NONE,
        }
    }

    #[test]
    fn idle_engine_has_empty_active_sets() {
        let (eng, _, _) = tiny();
        assert!(eng.work.is_empty());
        assert!(eng.moving.is_empty());
        assert_eq!(eng.violation_count(), 0);
    }

    #[test]
    fn admitted_packet_activates_launches_and_delivers() {
        let (mut eng, mut switches, geo) = tiny();
        // Local traffic on node 0: endpoint port -> endpoint port.
        let input = geo.core_port(0);
        eng.admit_new(0, input, packet(1, input, 0), 0);
        assert!(eng.work.contains(0));
        let mut report = MeshReport::empty(100, geo.total_cores());
        for now in 0..8 {
            phase_transfers(
                &mut eng,
                &mut switches,
                &geo,
                0,
                &mut report,
                true,
                now,
                |_, _, _, _| unreachable!("no shard boundary here"),
            );
            phase_arbitrate(&mut eng, &mut switches, &geo, 0, 4, |_, _| {
                unreachable!("no remote ports")
            });
        }
        assert_eq!(report.completed_measured, 1);
        assert_eq!(report.hop_sum, 1, "same-node traffic ejects in one hop");
        // Everything quiesced: sets empty, arena slot recycled.
        assert!(eng.work.is_empty());
        assert!(eng.moving.is_empty());
        assert_eq!(eng.violation_count(), 0);
        assert!(eng.active_node_cycles() > 0);
    }

    #[test]
    fn missing_arena_metadata_is_recorded_not_fatal() {
        let (mut eng, mut switches, geo) = tiny();
        let input = geo.core_port(0);
        // Bypass `admit_new`: the packet claims a handle the arena
        // never allocated — the condition the old engine met with
        // `.expect("metadata present for buffered packet")`.
        let mut p = packet(1, input, 0);
        p.handle = PacketHandle::new(17);
        eng.admit(0, input, p);
        let mut report = MeshReport::empty(100, geo.total_cores());
        for now in 0..8 {
            phase_transfers(
                &mut eng,
                &mut switches,
                &geo,
                0,
                &mut report,
                true,
                now,
                |_, _, _, _| unreachable!(),
            );
            phase_arbitrate(&mut eng, &mut switches, &geo, 0, 4, |_, _| unreachable!());
        }
        assert_eq!(eng.violation_count(), 1, "violation recorded");
        assert!(eng.checker.violations()[0]
            .message
            .contains("no arena metadata"));
        assert_eq!(
            report.completed_measured, 0,
            "the corrupt packet is dropped, not counted"
        );
    }

    #[test]
    fn pinned_nodes_stay_in_the_work_set() {
        let mut switches: Vec<Switch2d> = (0..2).map(|_| Switch2d::new(8)).collect();
        switches[1]
            .inject_fault(hirise_core::Fault::flaky(
                hirise_core::FaultSite::Port { input: 0 },
                0.5,
            ))
            .expect("valid fault");
        let eng = NodeEngine::new(&switches, 4, NetSchedule::ActiveSet, false);
        assert!(!eng.work.contains(0), "fault-free node starts idle");
        assert!(eng.work.contains(1), "flaky node is pinned active");
        assert!(eng.pinned.contains(1));
    }
}
