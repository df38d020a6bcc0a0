//! Runtime invariant checking for the simulator's cycle loop.
//!
//! [`InvariantChecker`] audits every cycle of a [`crate::NetworkSim`]
//! run against three families of invariants that must hold for *any*
//! correct fabric and port model:
//!
//! * **Flit conservation** — every flit ever injected is either still
//!   held by an input port (source queue or VC buffer) or has been
//!   delivered: `injected = in-flight + delivered`, checked in both
//!   packets and flits at the end of every cycle.
//! * **Buffer bounds** — a port never buffers more packets than it has
//!   virtual channels, and a mid-transfer port always holds the packet
//!   it is transferring.
//! * **Per-flow order** — within one `(input, VC)` stream (and hence
//!   within any `(input, output, VC)` flow), packets are delivered in
//!   strictly increasing injection-id order: the switch cannot reorder
//!   a FIFO lane.
//!
//! It also re-checks every arbitration result for grant legality: a
//! grant must answer a request presented that cycle, no output or input
//! may be granted twice, and no grant may land on an output that was
//! already mid-transfer.
//!
//! The checker is wired into [`crate::NetworkSim`] and enabled by
//! default in debug builds (`debug_assertions`); release builds skip it
//! unless [`crate::SimConfig::check_invariants`] or
//! [`crate::SimConfig::record_invariants`] turns it on. Every
//! `hirise-lab` job and every cold `hirise-serve` job runs it in
//! recording mode, in release builds too.
//!
//! `NetworkSim` audits a correct cycle in O(requests + grants + live
//! ports) without allocating: it reads the busy state of requested
//! outputs only, checks grants against a per-input request table and
//! reused bitmaps, and walks only the ports its switch cycle marks live.
//! Each fast audit folds its checks into one flag; when a flag fails,
//! the full audits ([`InvariantChecker::after_arbitration`],
//! [`InvariantChecker::end_of_cycle`]) run on the same state to name
//! each violation.
//!
//! The checker runs in one of two modes. In the default *panic* mode
//! ([`InvariantChecker::new`]) a violation aborts with the offending
//! cycle and state — a violation is a bug in the switch model or the
//! simulator itself. In *recording* mode
//! ([`InvariantChecker::recording`], selected by
//! [`crate::SimConfig::record_invariants`]) violations are collected as
//! [`InvariantViolation`] records instead, so a long experiment
//! campaign can finish and report *which configuration* tripped an
//! invariant rather than dying mid-run (the `hirise-lab` runner
//! surfaces them in its per-job result records).

use crate::packet::Packet;
use crate::port::InputPort;
use crate::switch_cycle::SwitchCycle;
use hirise_core::{Grant, OutputId, Request};

/// One recorded invariant violation (recording mode only).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Simulation cycle of the violation, when known at the check site.
    pub cycle: Option<u64>,
    /// Human-readable description of the violated invariant.
    pub message: String,
}

/// How the checker reacts to a violation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Mode {
    /// Panic at the violation site (the default; a violation is a bug).
    #[default]
    Panic,
    /// Record the violation and keep simulating.
    Record,
}

/// Cap on stored violation records; beyond it only the count grows (one
/// broken invariant usually re-fires every subsequent cycle).
const MAX_RECORDED: usize = 16;

/// FIFO lanes per input in the lane table: the most virtual channels an
/// [`InputPort`] can have.
const LANES_PER_INPUT: usize = 64;

/// Audits a simulation cycle-by-cycle for conservation, buffer-bound,
/// ordering, and grant-legality invariants.
#[derive(Clone, Debug, Default)]
pub struct InvariantChecker {
    injected_packets: u64,
    delivered_packets: u64,
    injected_flits: u64,
    delivered_flits: u64,
    /// One past the last delivered packet id per FIFO lane, at
    /// `input * LANES_PER_INPUT + vc` (0: the lane has delivered
    /// nothing). Grown on first use.
    next_delivery: Vec<u64>,
    cycles_checked: u64,
    mode: Mode,
    violations: Vec<InvariantViolation>,
    violation_count: u64,
    /// Scratch of the fast grant audit, sized on first use.
    round: RoundScratch,
}

/// What [`InvariantChecker::before_arbitration`] reads of one round for
/// the fast grant audit.
#[derive(Clone, Debug, Default)]
struct RoundScratch {
    /// Arbitration rounds seen; stamps `requested`, so the table is
    /// never cleared.
    round: u64,
    /// Per input: the round it last requested in and the output it
    /// requested then.
    requested: Vec<(u64, usize)>,
    /// No input presented two requests this round. Otherwise the
    /// request table holds only the last, and the full audit decides.
    one_request_per_input: bool,
    /// Bitmap over outputs: requested this round and busy before
    /// arbitration.
    out_busy: Vec<u64>,
    /// Bitmaps over outputs and inputs granted so far this round.
    out_granted: Vec<u64>,
    in_granted: Vec<u64>,
}

fn has(bits: &[u64], index: usize) -> bool {
    bits[index / 64] >> (index % 64) & 1 == 1
}

fn set(bits: &mut [u64], index: usize) {
    bits[index / 64] |= 1 << (index % 64);
}

impl InvariantChecker {
    /// Creates a fresh checker that panics on the first violation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a checker that records violations instead of panicking,
    /// for campaign runs that must survive a misbehaving configuration.
    pub fn recording() -> Self {
        Self {
            mode: Mode::Record,
            ..Self::default()
        }
    }

    /// Whether this checker records violations rather than panicking.
    pub fn is_recording(&self) -> bool {
        self.mode == Mode::Record
    }

    /// Violations recorded so far (empty in panic mode, which never
    /// survives one). At most the first 16 are kept;
    /// [`violation_count`](Self::violation_count) keeps the true total.
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Total violations observed, including those beyond the record cap.
    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }

    /// Packets injected so far.
    pub fn injected_packets(&self) -> u64 {
        self.injected_packets
    }

    /// Packets delivered so far.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Cycles audited so far.
    pub fn cycles_checked(&self) -> u64 {
        self.cycles_checked
    }

    /// Reports a violation detected by the caller's own bookkeeping —
    /// e.g. a buffered packet whose arena metadata slot is missing in
    /// the network simulators. Panics in panic mode, records otherwise,
    /// exactly like the checker's built-in audits.
    pub fn report_violation(&mut self, cycle: Option<u64>, message: String) {
        self.fail(cycle, message);
    }

    /// Fails one invariant: panics in panic mode, records otherwise.
    fn fail(&mut self, cycle: Option<u64>, message: String) {
        match self.mode {
            Mode::Panic => panic!("{message}"),
            Mode::Record => {
                self.violation_count += 1;
                if self.violations.len() < MAX_RECORDED {
                    self.violations.push(InvariantViolation { cycle, message });
                }
            }
        }
    }

    fn check(&mut self, ok: bool, cycle: Option<u64>, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(cycle, message());
        }
    }

    /// Records an injection.
    pub fn on_injection(&mut self, packet: &Packet) {
        self.injected_packets += 1;
        self.injected_flits += packet.len_flits as u64;
    }

    /// Records a delivery from `input`'s virtual channel `vc`, checking
    /// that the `(input, vc)` lane stays in FIFO order.
    ///
    /// # Panics
    ///
    /// In panic mode, panics if the lane delivered a packet with a
    /// non-increasing id — i.e. the switch reordered a FIFO stream.
    ///
    /// Panics in either mode if `vc` is 64 or more, beyond the virtual
    /// channels an [`InputPort`] can have.
    pub fn on_delivery(&mut self, input: usize, vc: usize, packet: &Packet) {
        self.delivered_packets += 1;
        self.delivered_flits += packet.len_flits as u64;
        assert!(vc < LANES_PER_INPUT, "VC {vc} out of range");
        let lane = input * LANES_PER_INPUT + vc;
        if lane >= self.next_delivery.len() {
            self.next_delivery.resize((input + 1) * LANES_PER_INPUT, 0);
        }
        let next = self.next_delivery[lane];
        self.check(packet.id >= next, None, || {
            format!(
                "invariant violated: input {input} VC {vc} delivered packet \
                 {} after packet {} (FIFO lane reordered)",
                packet.id,
                next - 1
            )
        });
        self.next_delivery[lane] = packet.id + 1;
    }

    /// Reads what the grant audit of one arbitration round needs before
    /// the fabric answers `requests`: which output each input requests,
    /// and whether each requested output is already mid-transfer
    /// (`output_busy`, called once per request). Outputs that nobody
    /// requested are not read: a legal grant can land only on a
    /// requested one, and a grant anywhere else already answers no
    /// request.
    pub(crate) fn before_arbitration(
        &mut self,
        radix: usize,
        requests: &[Request],
        mut output_busy: impl FnMut(OutputId) -> bool,
    ) {
        let round = &mut self.round;
        if round.requested.len() < radix {
            let words = radix.div_ceil(64);
            round.requested.resize(radix, (0, 0));
            for bits in [
                &mut round.out_busy,
                &mut round.out_granted,
                &mut round.in_granted,
            ] {
                bits.resize(words, 0);
            }
        }
        round.round += 1;
        round.one_request_per_input = true;
        round.out_busy.fill(0);
        round.out_granted.fill(0);
        round.in_granted.fill(0);
        for request in requests {
            let (input, output) = (request.input.index(), request.output.index());
            let slot = &mut round.requested[input];
            round.one_request_per_input &= slot.0 != round.round;
            *slot = (round.round, output);
            round.out_busy[output / 64] |= u64::from(output_busy(request.output)) << (output % 64);
        }
    }

    /// Audits one cycle of `switch` once its arbitration has committed:
    /// grant legality against what
    /// [`before_arbitration`](Self::before_arbitration) read, then
    /// conservation and buffer bounds over the ports `switch` marks
    /// live. A correct cycle costs O(requests + grants + live ports) and
    /// allocates nothing; a failing check runs the full audit to name
    /// each violation.
    pub(crate) fn after_switch_cycle(&mut self, cycle: u64, switch: &SwitchCycle, vcs: usize) {
        self.audit_grants(cycle, &switch.requests, &switch.grants);
        let (occupied, transferring) = switch.live_bitmaps();
        self.audit_live_ports(cycle, &switch.ports, vcs, occupied, transferring);
    }

    /// The fast grant audit: the checks of
    /// [`after_arbitration`](Self::after_arbitration), folded into one
    /// flag. The full audit that names a failure sees the outputs nobody
    /// requested as idle: a grant to one already answers no request.
    fn audit_grants(&mut self, cycle: u64, requests: &[Request], grants: &[Grant]) {
        let round = &mut self.round;
        let mut ok = round.one_request_per_input;
        for grant in grants {
            let (input, output) = (grant.input.index(), grant.output.index());
            ok &= round.requested.get(input) == Some(&(round.round, output))
                && !has(&round.out_granted, output)
                && !has(&round.in_granted, input)
                && !has(&round.out_busy, output);
            set(&mut round.out_granted, output);
            set(&mut round.in_granted, input);
        }
        if !ok {
            let busy: Vec<bool> = (0..round.requested.len())
                .map(|output| has(&round.out_busy, output))
                .collect();
            self.after_arbitration(cycle, requests, grants, &busy);
        }
    }

    /// The fast port audit: the checks of
    /// [`end_of_cycle`](Self::end_of_cycle) over the ports set in
    /// `occupied | transferring`, folded into one flag. A port outside
    /// that set that still holds a packet is missing from the in-flight
    /// sum, so it breaks conservation and fails the flag too.
    fn audit_live_ports(
        &mut self,
        cycle: u64,
        ports: &[InputPort],
        vcs: usize,
        occupied: &[u64],
        transferring: &[u64],
    ) {
        self.cycles_checked += 1;
        let mut ok = true;
        let mut in_flight_packets = 0u64;
        for (word_idx, (&occ, &moving)) in occupied.iter().zip(transferring).enumerate() {
            let mut word = occ | moving;
            while word != 0 {
                let port = &ports[word_idx * 64 + word.trailing_zeros() as usize];
                word &= word - 1;
                let buffered = port.buffered();
                ok &= buffered <= vcs;
                if let Some(vc) = port.active_vc() {
                    ok &= buffered >= 1 && vc < vcs;
                }
                in_flight_packets += port.occupancy() as u64;
            }
        }
        ok &= self.injected_packets == self.delivered_packets + in_flight_packets
            && self.delivered_flits >= self.delivered_packets
            && self.injected_flits >= self.delivered_flits;
        if ok {
            return;
        }
        let before = self.violation_count;
        self.audit_ports(cycle, ports, vcs);
        if self.violation_count == before {
            // The full walk is clean, so the live walk missed packets
            // held by ports outside the live set: name each one.
            for (input, port) in ports.iter().enumerate() {
                let held = port.occupancy();
                if held > 0 && !has(occupied, input) && !has(transferring, input) {
                    self.fail(
                        Some(cycle),
                        format!(
                            "invariant violated at cycle {cycle}: input {input} holds \
                             {held} packets but is marked neither occupied nor transferring"
                        ),
                    );
                }
            }
        }
    }

    /// Checks one arbitration round for grant legality.
    ///
    /// # Panics
    ///
    /// In panic mode, panics if a grant answers no presented request, an
    /// output or input is granted twice, or a grant lands on an output
    /// that `busy_out_before` marks as mid-transfer.
    pub fn after_arbitration(
        &mut self,
        cycle: u64,
        requests: &[Request],
        grants: &[Grant],
        busy_out_before: &[bool],
    ) {
        let radix = busy_out_before.len();
        let mut out_granted = vec![false; radix];
        let mut in_granted = vec![false; radix];
        for grant in grants {
            let input = grant.input.index();
            let output = grant.output.index();
            self.check(
                requests
                    .iter()
                    .any(|r| r.input == grant.input && r.output == grant.output),
                Some(cycle),
                || {
                    format!(
                        "invariant violated at cycle {cycle}: grant {input}->{output} \
                         answers no presented request"
                    )
                },
            );
            self.check(!out_granted[output], Some(cycle), || {
                format!("invariant violated at cycle {cycle}: output {output} granted twice")
            });
            self.check(!in_granted[input], Some(cycle), || {
                format!("invariant violated at cycle {cycle}: input {input} granted twice")
            });
            self.check(!busy_out_before[output], Some(cycle), || {
                format!("invariant violated at cycle {cycle}: grant to busy output {output}")
            });
            out_granted[output] = true;
            in_granted[input] = true;
        }
    }

    /// End-of-cycle audit: flit conservation and buffer bounds across
    /// all ports.
    ///
    /// # Panics
    ///
    /// In panic mode, panics if packets or flits have leaked or been
    /// duplicated (`injected != in-flight + delivered`), if a port
    /// buffers more packets than it has VCs, or if a mid-transfer port
    /// holds no packet.
    pub fn end_of_cycle(&mut self, cycle: u64, ports: &[InputPort], vcs: usize) {
        self.cycles_checked += 1;
        self.audit_ports(cycle, ports, vcs);
    }

    /// The checks of [`end_of_cycle`](Self::end_of_cycle), without
    /// counting the cycle.
    fn audit_ports(&mut self, cycle: u64, ports: &[InputPort], vcs: usize) {
        let mut in_flight_packets = 0u64;
        for (input, port) in ports.iter().enumerate() {
            let buffered = port.buffered();
            self.check(buffered <= vcs, Some(cycle), || {
                format!(
                    "invariant violated at cycle {cycle}: input {input} buffers \
                     {buffered} packets in {vcs} VCs"
                )
            });
            if port.is_transferring() {
                self.check(buffered >= 1, Some(cycle), || {
                    format!(
                        "invariant violated at cycle {cycle}: input {input} is \
                         mid-transfer with empty VCs"
                    )
                });
                if let Some(vc) = port.active_vc() {
                    self.check(vc < vcs, Some(cycle), || {
                        format!(
                            "invariant violated at cycle {cycle}: input {input} active \
                             VC {vc} out of range"
                        )
                    });
                } else {
                    self.fail(
                        Some(cycle),
                        format!(
                            "invariant violated at cycle {cycle}: input {input} is \
                             transferring with no active VC"
                        ),
                    );
                }
            }
            in_flight_packets += port.occupancy() as u64;
        }
        let (injected_packets, delivered_packets) = (self.injected_packets, self.delivered_packets);
        let (injected_flits, delivered_flits) = (self.injected_flits, self.delivered_flits);
        self.check(
            injected_packets == delivered_packets + in_flight_packets,
            Some(cycle),
            || {
                format!(
                    "invariant violated at cycle {cycle}: packet conservation broken \
                     ({injected_packets} injected != {delivered_packets} delivered + \
                     {in_flight_packets} in flight)"
                )
            },
        );
        // Flit conservation follows for completed packets; check the
        // delivered side directly (a torn packet would break it).
        self.check(delivered_flits >= delivered_packets, Some(cycle), || {
            format!(
                "invariant violated at cycle {cycle}: delivered flit count \
                 {delivered_flits} below packet count {delivered_packets}"
            )
        });
        self.check(injected_flits >= delivered_flits, Some(cycle), || {
            format!(
                "invariant violated at cycle {cycle}: delivered {delivered_flits} flits but \
                 only {injected_flits} were injected"
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hirise_core::{InputId, OutputId};

    fn packet(id: u64, len: usize) -> Packet {
        Packet {
            id,
            src: InputId::new(0),
            dst: OutputId::new(1),
            len_flits: len,
            birth_cycle: 0,
            measured: false,
            handle: hirise_core::PacketHandle::NONE,
        }
    }

    #[test]
    fn counts_injections_and_deliveries() {
        let mut ck = InvariantChecker::new();
        ck.on_injection(&packet(0, 4));
        ck.on_injection(&packet(1, 4));
        ck.on_delivery(0, 0, &packet(0, 4));
        assert_eq!(ck.injected_packets(), 2);
        assert_eq!(ck.delivered_packets(), 1);
    }

    #[test]
    #[should_panic(expected = "FIFO lane reordered")]
    fn reordered_lane_panics() {
        let mut ck = InvariantChecker::new();
        ck.on_delivery(3, 1, &packet(7, 4));
        ck.on_delivery(3, 1, &packet(5, 4));
    }

    #[test]
    fn different_lanes_may_interleave() {
        let mut ck = InvariantChecker::new();
        ck.on_delivery(3, 0, &packet(7, 4));
        ck.on_delivery(3, 1, &packet(5, 4)); // other VC: fine
        ck.on_delivery(2, 0, &packet(1, 4)); // other input: fine
    }

    #[test]
    #[should_panic(expected = "granted twice")]
    fn double_granted_output_panics() {
        let mut ck = InvariantChecker::new();
        let requests = vec![
            Request::new(InputId::new(0), OutputId::new(2)),
            Request::new(InputId::new(1), OutputId::new(2)),
        ];
        let grants = vec![
            Grant {
                input: InputId::new(0),
                output: OutputId::new(2),
            },
            Grant {
                input: InputId::new(1),
                output: OutputId::new(2),
            },
        ];
        ck.after_arbitration(0, &requests, &grants, &[false; 4]);
    }

    #[test]
    #[should_panic(expected = "busy output")]
    fn grant_to_busy_output_panics() {
        let mut ck = InvariantChecker::new();
        let requests = vec![Request::new(InputId::new(0), OutputId::new(1))];
        let grants = vec![Grant {
            input: InputId::new(0),
            output: OutputId::new(1),
        }];
        let mut busy = vec![false; 4];
        busy[1] = true;
        ck.after_arbitration(0, &requests, &grants, &busy);
    }

    #[test]
    #[should_panic(expected = "answers no presented request")]
    fn unsolicited_grant_panics() {
        let mut ck = InvariantChecker::new();
        let grants = vec![Grant {
            input: InputId::new(0),
            output: OutputId::new(1),
        }];
        ck.after_arbitration(0, &[], &grants, &[false; 4]);
    }

    #[test]
    #[should_panic(expected = "packet conservation broken")]
    fn leaked_packet_panics() {
        let mut ck = InvariantChecker::new();
        ck.on_injection(&packet(0, 4));
        // Packet neither delivered nor in any port: conservation broken.
        let ports = vec![InputPort::new(4)];
        ck.end_of_cycle(0, &ports, 4);
    }

    #[test]
    fn conserved_state_passes() {
        let mut ck = InvariantChecker::new();
        let mut port = InputPort::new(4);
        let p = packet(0, 4);
        ck.on_injection(&p);
        port.inject(p);
        let ports = vec![port];
        ck.end_of_cycle(0, &ports, 4);
        assert_eq!(ck.cycles_checked(), 1);
    }

    #[test]
    fn recording_mode_survives_and_records() {
        let mut ck = InvariantChecker::recording();
        assert!(ck.is_recording());
        ck.on_delivery(3, 1, &packet(7, 4));
        ck.on_delivery(3, 1, &packet(5, 4)); // reordered: would panic
        assert_eq!(ck.violation_count(), 1);
        assert_eq!(ck.violations().len(), 1);
        assert!(ck.violations()[0].message.contains("FIFO lane reordered"));
        assert_eq!(ck.violations()[0].cycle, None);
    }

    #[test]
    fn recording_mode_caps_stored_records_not_the_count() {
        let mut ck = InvariantChecker::recording();
        ck.on_injection(&packet(0, 4));
        let ports = vec![InputPort::new(4)];
        for cycle in 0..40 {
            ck.end_of_cycle(cycle, &ports, 4); // conservation broken every cycle
        }
        assert_eq!(ck.violation_count(), 40);
        assert_eq!(ck.violations().len(), 16);
        assert_eq!(ck.violations()[3].cycle, Some(3));
    }
}
