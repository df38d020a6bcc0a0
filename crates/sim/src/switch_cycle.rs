//! The switch cycle: input ports, in-flight transfers and the
//! arbitration step of one switch, kept in bitmaps and reused scratch so
//! a steady-state cycle touches only busy inputs and never allocates.
//! Each port is a one-cache-line [`InputPort`] header, and the packets
//! of every port's VCs share one `radix × vcs` slot array.
//!
//! A transfer costs two events, not one step per flit. A grant of an
//! `len`-flit packet puts its input on a *transfer wheel* twice: its
//! last beat lands `len` cycles ahead, and its release beat one cycle
//! after that. The wheel is a ring of per-cycle bitmaps over inputs, a
//! power of two long and grown when a longer packet is granted, so
//! packets of any length fit. The transfer phase visits only the inputs
//! in the current cycle's bitmap: a port still holding its active VC is
//! on its last beat, any other is on its release beat. Cycles are
//! counted by the transfer phase itself, so a driver may skip a switch
//! while it has nothing in flight (the network engine visits a router
//! only then) without shifting any transfer.
//! It is the only per-switch cycle in the crate:
//! [`NetworkSim`](crate::NetworkSim) drives one with synthetic traffic,
//! the many-core simulator's `SwitchNet` one with tile-to-tile messages,
//! and the network engine behind [`ShardedSim`](crate::shard::ShardedSim)
//! one per router. Each driver owns its fabrics, injects between cycles,
//! and calls [`transfers`](SwitchCycle::transfers) then
//! [`arbitrate`](SwitchCycle::arbitrate) once per cycle. `NetworkSim`
//! splits arbitration into `collect` and `commit` around its own
//! `arbitrate_into` call so its invariant checker can read the fabric
//! in between; the network engine does the same, routing each packet
//! as it enters a VC and gating each candidate on downstream credit.
//!
//! A VC's request is recorded once, when its packet enters the VC:
//! `collect` routes the packet then and keeps the output and length in
//! a `radix × vcs` array beside the packet slots. A candidate that waits
//! many cycles for its output is presented from that record each cycle,
//! without reading the packet or routing it again. Routing is a pure
//! function of the packet and the switch, so when it runs changes no
//! result.

use crate::packet::Packet;
use crate::port::{InputPort, VcRequest};
use hirise_core::{Fabric, Grant, InputId, OutputId, Request};

/// Cycles on a fresh transfer wheel: room for packets of up to six
/// flits before it grows.
const INITIAL_WHEEL_SLOTS: usize = 8;

/// Input ports and transfer state of one switch.
#[derive(Debug)]
pub struct SwitchCycle {
    /// The input port headers, indexed by input.
    pub(crate) ports: Vec<InputPort>,
    /// The VC packet slots of every port: input `i`'s VC `v` is
    /// `slots[i * vcs + v]`.
    slots: Vec<Option<Packet>>,
    /// The request of the packet in each VC slot, recorded when it
    /// entered the VC; indexed as `slots`.
    vc_requests: Vec<VcRequest>,
    /// Virtual channels per port.
    vcs: usize,
    /// Bitmap over inputs: a transfer (or its release beat) is in flight.
    active_transfers: Vec<u64>,
    /// The transfer wheel: bitmap over inputs of the last and release
    /// beats that land on cycle `t`, at word `(t % wheel_slots) * words`.
    wheel: Vec<u64>,
    /// Cycles on the wheel, a power of two above the longest transfer
    /// scheduled so far plus its release beat.
    wheel_slots: usize,
    /// The current cycle: transfer phases run so far.
    clock: u64,
    /// Bitmap over inputs: the port holds a packet (source queue or VC),
    /// so the fill/select pass skips idle ports without touching them.
    port_occupied: Vec<u64>,
    /// Requests presented by the last arbitration, in ascending input
    /// order, and the grants the fabric returned.
    pub(crate) requests: Vec<Request>,
    pub(crate) grants: Vec<Grant>,
    /// Bitmap over inputs: the input won this cycle.
    granted: Vec<u64>,
}

impl SwitchCycle {
    /// Creates the state of a `radix`-port switch with `vcs` virtual
    /// channels per input port.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` is zero or exceeds 64 (see [`InputPort::new`]).
    pub fn new(radix: usize, vcs: usize) -> Self {
        let words = radix.div_ceil(64);
        Self {
            ports: (0..radix).map(|_| InputPort::new(vcs)).collect(),
            slots: vec![None; radix * vcs],
            vc_requests: vec![VcRequest::default(); radix * vcs],
            vcs,
            active_transfers: vec![0; words],
            wheel: vec![0; INITIAL_WHEEL_SLOTS * words],
            wheel_slots: INITIAL_WHEEL_SLOTS,
            clock: 0,
            port_occupied: vec![0; words],
            requests: Vec::with_capacity(radix),
            grants: Vec::with_capacity(radix),
            granted: vec![0; words],
        }
    }

    /// Queues `packet` at its source port, `packet.src`.
    pub fn inject(&mut self, packet: Packet) {
        self.enqueue(packet.src.index(), packet);
    }

    /// Queues `packet` at `input`, which in a network of switches is the
    /// port its last hop arrived on rather than its source.
    pub(crate) fn enqueue(&mut self, input: usize, packet: Packet) {
        self.ports[input].inject(packet);
        self.port_occupied[input / 64] |= 1u64 << (input % 64);
    }

    /// The bitmaps over inputs that mark a port live, as `(occupied,
    /// transferring)`: the port holds a packet, and a transfer or its
    /// release beat is in flight. A port in neither is idle.
    pub(crate) fn live_bitmaps(&self) -> (&[u64], &[u64]) {
        (&self.port_occupied, &self.active_transfers)
    }

    /// Whether a transfer or its release beat is still in flight.
    pub(crate) fn is_moving(&self) -> bool {
        self.active_transfers.iter().any(|&word| word != 0)
    }

    /// Phase one: starts the next cycle and lands its transfer events.
    /// A transfer whose last beat lands calls `deliver(input, vc, output,
    /// packet)` with the packet that left its VC and the output it was
    /// granted; a transfer that completed on the previous cycle spends
    /// this one on its release beat, freeing the connection in `fabric`.
    /// Only inputs with an event are visited, in ascending order.
    pub fn transfers<F: Fabric>(
        &mut self,
        fabric: &mut F,
        mut deliver: impl FnMut(usize, usize, OutputId, Packet),
    ) {
        self.clock += 1;
        let words = self.active_transfers.len();
        let base = (self.clock as usize & (self.wheel_slots - 1)) * words;
        for word_idx in 0..words {
            let mut word = std::mem::take(&mut self.wheel[base + word_idx]);
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let input = word_idx * 64 + bit;
                let port = &mut self.ports[input];
                if let Some(vc) = port.active_vc() {
                    // Last beat: the packet leaves its VC.
                    let slots = &mut self.slots[input * self.vcs..(input + 1) * self.vcs];
                    let packet = port.complete_transfer(slots);
                    if port.is_idle() {
                        self.port_occupied[word_idx] &= !(1u64 << bit);
                    }
                    let output = self.vc_requests[input * self.vcs + vc].output;
                    deliver(input, vc, OutputId::new(output as usize), packet);
                } else {
                    // Release beat: the output bus becomes available for
                    // arbitration this cycle.
                    fabric.release(InputId::new(input));
                    self.active_transfers[word_idx] &= !(1u64 << bit);
                }
            }
        }
    }

    /// Puts `input` on the wheel `ahead` cycles from now, growing the
    /// wheel first if it is not that long.
    fn schedule(&mut self, input: usize, ahead: u64) {
        if ahead >= self.wheel_slots as u64 {
            self.grow_wheel(ahead);
        }
        let words = self.active_transfers.len();
        let slot = (self.clock + ahead) as usize & (self.wheel_slots - 1);
        self.wheel[slot * words + input / 64] |= 1u64 << (input % 64);
    }

    /// Re-lays the wheel out over enough cycles to hold an event `ahead`
    /// cycles from now. Every pending event is within the old length of
    /// now, so each keeps its cycle.
    #[cold]
    fn grow_wheel(&mut self, ahead: u64) {
        let words = self.active_transfers.len();
        let old_slots = self.wheel_slots;
        let slots = usize::try_from(ahead + 1)
            .expect("transfer length fits the address space")
            .next_power_of_two();
        let mut wheel = vec![0; slots * words];
        for delta in 1..old_slots as u64 {
            let at = self.clock + delta;
            let from = (at as usize & (old_slots - 1)) * words;
            let to = (at as usize & (slots - 1)) * words;
            wheel[to..to + words].copy_from_slice(&self.wheel[from..from + words]);
        }
        self.wheel = wheel;
        self.wheel_slots = slots;
    }

    /// Phase two: moves packets into free VCs, collects one request per
    /// port that is not transferring, arbitrates them in `fabric` and
    /// starts a transfer of the packet's length for every winner. The
    /// fabric arbitrates every cycle, even with no requests, so fabrics
    /// that tick when idle (flaky faults) keep their own clock.
    pub fn arbitrate<F: Fabric>(&mut self, fabric: &mut F) {
        self.collect(|_, packet| packet.dst, |_, _| true);
        fabric.arbitrate_into(&self.requests, &mut self.grants);
        self.commit();
    }

    /// First half of [`arbitrate`](Self::arbitrate): fills VCs and
    /// selects a candidate on every occupied port that is not
    /// transferring. A packet entering a VC is routed there, once:
    /// `route(input, packet)` gives the output its VC will request. A
    /// candidate then requests its VC's output if `gate(input, output)`
    /// allows it (a network's credit check), queueing a request in
    /// `requests`; otherwise it is revoked for this cycle.
    pub(crate) fn collect(
        &mut self,
        mut route: impl FnMut(usize, &Packet) -> OutputId,
        mut gate: impl FnMut(usize, OutputId) -> bool,
    ) {
        // Fill and select in a single pass over the occupied ports: the
        // two only interact within a port, so interleaving them across
        // ports is equivalent, and a skipped port holds no packet, for
        // which both are no-ops. A candidate is presented from its VC's
        // recorded request, so its packet is not read here; the winning
        // packets stay in their VCs, so losing candidates never cost a
        // packet copy.
        self.requests.clear();
        let vcs = self.vcs;
        for word_idx in 0..self.port_occupied.len() {
            let mut word = self.port_occupied[word_idx];
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let input = word_idx * 64 + bit;
                let port = &mut self.ports[input];
                let slots = &mut self.slots[input * vcs..(input + 1) * vcs];
                let vc_requests = &mut self.vc_requests[input * vcs..(input + 1) * vcs];
                if let Some(vc) = port.fill_vcs(slots) {
                    let packet = slots[vc].as_ref().expect("a filled VC holds a packet");
                    vc_requests[vc] = VcRequest {
                        len: packet.len_flits as u32,
                        output: route(input, packet).index() as u32,
                    };
                }
                if self.active_transfers[word_idx] >> bit & 1 == 1 {
                    continue;
                }
                let Some(vc) = port.select_vc() else {
                    continue;
                };
                let output = OutputId::new(vc_requests[vc].output as usize);
                if gate(input, output) {
                    self.requests
                        .push(Request::new(InputId::new(input), output));
                } else {
                    port.revoke_candidate();
                }
            }
        }
    }

    /// Second half of [`arbitrate`](Self::arbitrate), once the fabric
    /// has answered `requests` in `grants`: starts a transfer for every
    /// granted request — its last beat on the wheel `len` cycles ahead
    /// (a zero-flit packet is sent as one flit) and its release beat one
    /// cycle later — and revokes the rest. Returns the transfers started.
    pub(crate) fn commit(&mut self) -> usize {
        self.granted.fill(0);
        for grant in &self.grants {
            let input = grant.input.index();
            self.granted[input / 64] |= 1u64 << (input % 64);
        }
        let mut started = 0;
        for i in 0..self.requests.len() {
            let input = self.requests[i].input.index();
            let (word, bit) = (input / 64, 1u64 << (input % 64));
            let port = &mut self.ports[input];
            if self.granted[word] & bit != 0 {
                let vc = port.confirm_grant();
                let len = u64::from(self.vc_requests[input * self.vcs + vc].len.max(1));
                self.active_transfers[word] |= bit;
                self.schedule(input, len);
                self.schedule(input, len + 1);
                started += 1;
            } else {
                port.revoke_candidate();
            }
        }
        started
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hirise_core::{OutputId, PacketHandle, Switch2d};
    use std::sync::Mutex;

    fn packet(id: u64, src: usize, dst: usize, len_flits: usize) -> Packet {
        Packet {
            id,
            src: InputId::new(src),
            dst: OutputId::new(dst),
            len_flits,
            birth_cycle: 0,
            measured: false,
            handle: PacketHandle::NONE,
        }
    }

    /// Steps `cycle` until `cycles` have passed, returning each delivery
    /// as `(cycle, input, packet id)`.
    fn run(cycle: &mut SwitchCycle, fabric: &mut Switch2d, cycles: u64) -> Vec<(u64, usize, u64)> {
        let mut delivered = Vec::new();
        for now in 0..cycles {
            cycle.transfers(fabric, |input, _vc, _output, p| {
                delivered.push((now, input, p.id))
            });
            cycle.arbitrate(fabric);
        }
        delivered
    }

    #[test]
    fn transfer_takes_one_beat_per_flit_then_a_release_beat() {
        let mut fabric = Switch2d::new(8);
        let mut cycle = SwitchCycle::new(8, 4);
        cycle.inject(packet(7, 2, 5, 3));
        let mut delivered = run(&mut cycle, &mut fabric, 1);
        cycle.inject(packet(8, 3, 5, 1));
        // Input 2 wins at cycle 0 and its three beats land on cycles
        // 1..=3. Cycle 4 is its release beat, which frees output 5 before
        // that cycle's arbitration: input 3 wins then, and its single
        // beat lands on cycle 5.
        delivered.extend(
            run(&mut cycle, &mut fabric, 9)
                .into_iter()
                .map(|(now, input, id)| (now + 1, input, id)),
        );
        assert_eq!(delivered, vec![(3, 2, 7), (5, 3, 8)]);
        assert!(cycle.ports.iter().all(InputPort::is_idle));
    }

    #[test]
    fn requests_and_grants_are_exposed_after_arbitration() {
        let mut fabric = Switch2d::new(8);
        let mut cycle = SwitchCycle::new(8, 4);
        cycle.inject(packet(0, 6, 1, 4));
        cycle.inject(packet(1, 4, 1, 4));
        cycle.inject(packet(2, 0, 3, 4));
        cycle.transfers(&mut fabric, |_, _, _, _| unreachable!("nothing in flight"));
        cycle.arbitrate(&mut fabric);
        let inputs: Vec<usize> = cycle.requests.iter().map(|r| r.input.index()).collect();
        assert_eq!(
            inputs,
            vec![0, 4, 6],
            "one request per port, in input order"
        );
        assert_eq!(cycle.grants.len(), 2, "output 1 goes to one of two inputs");
    }

    /// One observable event of a switch cycle.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Event {
        Grant { input: usize },
        Deliver { input: usize, id: u64 },
        Release { input: usize },
    }

    /// A 2D switch that logs every release into the shared event log
    /// (a `Mutex`, since a fabric must be `Send`).
    struct Recording<'a> {
        inner: Switch2d,
        log: &'a Mutex<Vec<(u64, Event)>>,
        now: u64,
    }

    impl Fabric for Recording<'_> {
        fn radix(&self) -> usize {
            self.inner.radix()
        }
        fn arbitrate(&mut self, requests: &[Request]) -> Vec<Grant> {
            self.inner.arbitrate(requests)
        }
        fn arbitrate_into(&mut self, requests: &[Request], grants: &mut Vec<Grant>) {
            self.inner.arbitrate_into(requests, grants);
        }
        fn release(&mut self, input: InputId) {
            let input = input.index();
            self.log
                .lock()
                .unwrap()
                .push((self.now, Event::Release { input }));
            self.inner.release(InputId::new(input));
        }
        fn connection(&self, input: InputId) -> Option<OutputId> {
            self.inner.connection(input)
        }
        fn output_busy(&self, output: OutputId) -> bool {
            self.inner.output_busy(output)
        }
    }

    /// Packets of 1, 4 and 40 flits on several inputs, some contending
    /// for an output and some queued behind each other: each delivers on
    /// the cycle its last beat lands (`len` cycles after its grant) and
    /// releases one cycle later, and the events of one cycle come in
    /// ascending input order. The full log was recorded from the switch
    /// cycle that counted every transfer down one flit per cycle.
    #[test]
    fn packets_of_any_length_deliver_then_release_in_input_order() {
        let log = Mutex::new(Vec::new());
        let mut fabric = Recording {
            inner: Switch2d::new(8),
            log: &log,
            now: 0,
        };
        let mut cycle = SwitchCycle::new(8, 4);
        let lens = [40, 1, 4, 4, 1, 40, 1, 4, 1, 40];
        for (id, (src, dst)) in [
            (0, 3),
            (1, 5),
            (2, 5),
            (3, 6),
            (5, 3),
            (6, 0),
            (7, 1),
            (7, 1),
            (4, 7),
            (4, 2),
        ]
        .into_iter()
        .enumerate()
        {
            cycle.inject(packet(id as u64, src, dst, lens[id]));
        }
        for now in 0..100 {
            fabric.now = now;
            cycle.transfers(&mut fabric, |input, _vc, _output, p| {
                log.lock()
                    .unwrap()
                    .push((now, Event::Deliver { input, id: p.id }));
            });
            cycle.arbitrate(&mut fabric);
            for grant in &cycle.grants {
                let input = grant.input.index();
                log.lock().unwrap().push((now, Event::Grant { input }));
            }
        }
        let log = log.into_inner().unwrap();
        assert!(!cycle.is_moving());
        assert!(cycle.ports.iter().all(InputPort::is_idle));

        // Timing: last beat `len` cycles after the grant, release one
        // cycle after that, on the same input.
        let mut granted_at = [None; 8];
        let mut delivered_at = [None; 8];
        for &(now, event) in &log {
            match event {
                Event::Grant { input } => granted_at[input] = Some(now),
                Event::Deliver { input, id } => {
                    let start = granted_at[input].take().expect("delivery follows a grant");
                    assert_eq!(now, start + lens[id as usize] as u64, "packet {id}");
                    delivered_at[input] = Some(now);
                }
                Event::Release { input } => {
                    let last = delivered_at[input]
                        .take()
                        .expect("release follows a delivery");
                    assert_eq!(now, last + 1, "input {input}");
                }
            }
        }
        // Order: within one cycle the transfer phase's deliveries and
        // releases come in ascending input order.
        let transfer_phase: Vec<(u64, usize)> = log
            .iter()
            .filter_map(|&(now, event)| match event {
                Event::Deliver { input, .. } | Event::Release { input } => Some((now, input)),
                Event::Grant { .. } => None,
            })
            .collect();
        assert!(transfer_phase.windows(2).all(|w| w[0] < w[1]));

        use Event::{Deliver as D, Grant as G, Release as R};
        let recorded = [
            // The 2D switch lists its grants in output order.
            (0, G { input: 6 }),
            (0, G { input: 7 }),
            (0, G { input: 0 }),
            (0, G { input: 1 }),
            (0, G { input: 3 }),
            (0, G { input: 4 }),
            (1, D { input: 1, id: 1 }),
            (1, D { input: 4, id: 8 }),
            (1, D { input: 7, id: 6 }),
            (2, R { input: 1 }),
            (2, R { input: 4 }),
            (2, R { input: 7 }),
            (2, G { input: 7 }),
            (2, G { input: 4 }),
            (2, G { input: 2 }),
            (4, D { input: 3, id: 3 }),
            (5, R { input: 3 }),
            (6, D { input: 2, id: 2 }),
            (6, D { input: 7, id: 7 }),
            (7, R { input: 2 }),
            (7, R { input: 7 }),
            (40, D { input: 0, id: 0 }),
            (40, D { input: 6, id: 5 }),
            (41, R { input: 0 }),
            (41, R { input: 6 }),
            (41, G { input: 5 }),
            (42, D { input: 4, id: 9 }),
            (42, D { input: 5, id: 4 }),
            (43, R { input: 4 }),
            (43, R { input: 5 }),
        ];
        assert_eq!(log, recorded);
    }

    #[test]
    fn ports_beyond_one_word_are_served() {
        let mut fabric = Switch2d::new(70);
        let mut cycle = SwitchCycle::new(70, 2);
        cycle.inject(packet(1, 69, 0, 2));
        cycle.inject(packet(2, 64, 68, 2));
        assert_eq!(
            run(&mut cycle, &mut fabric, 5),
            vec![(2, 64, 2), (2, 69, 1)]
        );
    }
}
