//! Differential co-simulation of switch fabrics against a golden model.
//!
//! The paper's central behavioural claim (§III–§IV) is that Hi-Rise's
//! hierarchical two-stage arbitration *delivers the same traffic* as a
//! flat Swizzle-Switch crossbar — it only redistributes *when* each
//! packet wins. That claim is mechanically checkable: drive several
//! [`Fabric`] implementations with the identical request schedule and
//! assert that
//!
//! 1. **per-cycle grant legality** holds for every fabric — at most one
//!    grant per output and per input, every grant answers a request
//!    actually presented that cycle, and no grant lands on a busy
//!    output or busy input; and
//! 2. **end-of-run delivery equivalence** holds — every fabric delivers
//!    exactly the injected multiset of `(source, destination)` packets
//!    (nothing lost, duplicated, or conjured), in FIFO order per
//!    `(source, destination)` flow, within a starvation deadline.
//!
//! The golden model is [`RefSwitch`]: an ideal single-cycle radix-`k`
//! crossbar with oracle least-recently-granted arbitration, implemented
//! from scratch on explicit priority lists — deliberately *not* sharing
//! the `MatrixArbiter`/`BitSet` machinery of `hirise-core`, so a bug in
//! that machinery cannot hide in both sides of the comparison.
//!
//! [`fuzz`] drives randomized short schedules across a fleet of fabrics
//! (2D Swizzle, 3D folded, Hi-Rise under L-2-L LRG / WLRG / CLRG) and
//! [`shrink`] reduces any failure to a minimal counterexample schedule.
//! The `diff_fuzz` binary (`cargo run -p hirise-sim --bin diff_fuzz`)
//! wraps both for command-line use, and `tests/differential.rs` pins the
//! whole fleet green for ≥ 10k randomized cycles per fabric × scheme.

use crate::packet::Packet;
use crate::switch_cycle::SwitchCycle;
use hirise_core::rng::{Rng, SeedableRng, StdRng};
use hirise_core::{
    ArbitrationScheme, Fabric, FoldedSwitch, Grant, HiRiseConfig, HiRiseSwitch, InputId,
    MatchingSwitch, OutputId, Request, Switch2d,
};
use std::collections::VecDeque;
use std::fmt;

/// An ideal single-cycle radix-`k` switch with oracle arbitration: the
/// golden model every real fabric is co-stepped against.
///
/// Semantics: any request from an idle input to an idle output is
/// granted; contention for one output is resolved by
/// least-recently-granted order, kept as an explicit per-output priority
/// list (front = highest priority). Connections are held until
/// [`Fabric::release`], like every other fabric in the workspace.
#[derive(Clone, Debug)]
pub struct RefSwitch {
    /// Per-output LRG priority list, front = highest priority.
    order: Vec<Vec<usize>>,
    connections: Vec<Option<OutputId>>,
    owners: Vec<Option<InputId>>,
    radix: usize,
}

impl RefSwitch {
    /// Creates a golden switch of the given radix.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is zero.
    pub fn new(radix: usize) -> Self {
        assert!(radix > 0, "radix must be at least 1");
        Self {
            order: (0..radix).map(|_| (0..radix).collect()).collect(),
            connections: vec![None; radix],
            owners: vec![None; radix],
            radix,
        }
    }
}

impl Fabric for RefSwitch {
    fn radix(&self) -> usize {
        self.radix
    }

    fn arbitrate(&mut self, requests: &[Request]) -> Vec<Grant> {
        // First request per idle input only, as the trait contract says.
        let mut requested: Vec<Option<OutputId>> = vec![None; self.radix];
        for request in requests {
            let input = request.input.index();
            assert!(input < self.radix, "input {input} out of range");
            assert!(
                request.output.index() < self.radix,
                "output {} out of range",
                request.output.index()
            );
            if requested[input].is_none() && self.connections[input].is_none() {
                requested[input] = Some(request.output);
            }
        }
        let mut grants = Vec::new();
        for output in 0..self.radix {
            if self.owners[output].is_some() {
                continue;
            }
            // Oracle LRG: the first input in the priority list that wants
            // this output wins.
            let winner = self.order[output]
                .iter()
                .copied()
                .find(|&input| requested[input] == Some(OutputId::new(output)));
            if let Some(winner) = winner {
                self.order[output].retain(|&i| i != winner);
                self.order[output].push(winner);
                self.connections[winner] = Some(OutputId::new(output));
                self.owners[output] = Some(InputId::new(winner));
                grants.push(Grant {
                    input: InputId::new(winner),
                    output: OutputId::new(output),
                });
            }
        }
        grants
    }

    fn release(&mut self, input: InputId) {
        assert!(input.index() < self.radix, "input {input} out of range");
        if let Some(output) = self.connections[input.index()].take() {
            self.owners[output.index()] = None;
        }
    }

    fn connection(&self, input: InputId) -> Option<OutputId> {
        self.connections[input.index()]
    }

    fn output_busy(&self, output: OutputId) -> bool {
        self.owners[output.index()].is_some()
    }
}

/// One packet of a co-simulation schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedPacket {
    /// Cycle at which the packet becomes available at its source.
    pub inject_cycle: u64,
    /// Source input port.
    pub src: usize,
    /// Destination output port.
    pub dst: usize,
    /// Length in flits (connection hold time after the arbitration win).
    pub len_flits: usize,
}

/// A deterministic request schedule driven identically into every
/// fabric under comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Switch radix the schedule targets.
    pub radix: usize,
    /// The packets, in injection order (ties broken by position).
    pub packets: Vec<SchedPacket>,
}

impl Schedule {
    /// A conservative completion deadline: every packet serialized
    /// through a single output bus, plus slack for arbitration cycles
    /// and release beats.
    pub fn deadline(&self) -> u64 {
        let last_inject = self
            .packets
            .iter()
            .map(|p| p.inject_cycle)
            .max()
            .unwrap_or(0);
        let serialized: u64 = self.packets.iter().map(|p| p.len_flits as u64 + 2).sum();
        last_inject + serialized + self.radix as u64 + 64
    }

    /// Generates a random schedule: `cycles` cycles of Bernoulli
    /// injections at `rate` packets/input/cycle with uniform random
    /// destinations and `len_flits`-flit packets.
    pub fn random(
        rng: &mut StdRng,
        radix: usize,
        cycles: u64,
        rate: f64,
        len_flits: usize,
    ) -> Self {
        let mut packets = Vec::new();
        for cycle in 0..cycles {
            for src in 0..radix {
                if rng.gen_bool(rate) {
                    packets.push(SchedPacket {
                        inject_cycle: cycle,
                        src,
                        dst: rng.gen_range(0..radix),
                        len_flits,
                    });
                }
            }
        }
        Self { radix, packets }
    }
}

/// A violation detected while co-stepping one fabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A grant did not answer any request presented this cycle.
    GrantWithoutRequest {
        /// Cycle of the offence.
        cycle: u64,
        /// The offending grant, as `(input, output)`.
        grant: (usize, usize),
    },
    /// Two grants named the same output in one cycle.
    DoubleGrantOutput {
        /// Cycle of the offence.
        cycle: u64,
        /// The output granted twice.
        output: usize,
    },
    /// Two grants named the same input in one cycle.
    DoubleGrantInput {
        /// Cycle of the offence.
        cycle: u64,
        /// The input granted twice.
        input: usize,
    },
    /// A grant landed on an output that was already mid-transfer.
    GrantToBusyOutput {
        /// Cycle of the offence.
        cycle: u64,
        /// The busy output.
        output: usize,
    },
    /// A held connection changed or vanished without a release.
    HeldConnectionDisturbed {
        /// Cycle of the offence.
        cycle: u64,
        /// The input whose connection was disturbed.
        input: usize,
    },
    /// Not every packet was delivered before the schedule deadline.
    Starvation {
        /// The deadline cycle that was reached.
        cycle: u64,
        /// Undelivered packets as `(src, dst)` pairs.
        pending: Vec<(usize, usize)>,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::GrantWithoutRequest { cycle, grant } => write!(
                f,
                "cycle {cycle}: grant {}->{} answers no presented request",
                grant.0, grant.1
            ),
            Violation::DoubleGrantOutput { cycle, output } => {
                write!(f, "cycle {cycle}: output {output} granted twice")
            }
            Violation::DoubleGrantInput { cycle, input } => {
                write!(f, "cycle {cycle}: input {input} granted twice")
            }
            Violation::GrantToBusyOutput { cycle, output } => {
                write!(f, "cycle {cycle}: grant to busy output {output}")
            }
            Violation::HeldConnectionDisturbed { cycle, input } => {
                write!(
                    f,
                    "cycle {cycle}: held connection of input {input} disturbed"
                )
            }
            Violation::Starvation { cycle, pending } => write!(
                f,
                "deadline {cycle}: {} packets undelivered: {pending:?}",
                pending.len()
            ),
        }
    }
}

/// The outcome of driving one fabric through a schedule.
#[derive(Clone, Debug)]
pub struct CoSimOutcome {
    /// Delivered packets in completion order, as indices into
    /// [`Schedule::packets`].
    pub delivered: Vec<usize>,
    /// Cycles simulated until everything drained.
    pub cycles: u64,
}

/// Drives `fabric` through `schedule`, checking per-cycle grant
/// legality, and returns the delivery log.
///
/// The engine is the simulators' own [`SwitchCycle`] with one VC per
/// input, so each input presents its packets in FIFO order: idle inputs
/// present their head packet as a request each cycle, a winner's last
/// beat lands on the transfer wheel `len_flits` cycles after its grant,
/// and its release beat one cycle after that (the output bus doubles as
/// the priority bus). A fault in the wheel, the release beat or the
/// request collection therefore shows up here as a violation or a
/// starvation.
///
/// # Errors
///
/// Returns the first [`Violation`] encountered.
pub fn run_schedule<F: Fabric>(
    fabric: &mut F,
    schedule: &Schedule,
) -> Result<CoSimOutcome, Violation> {
    assert_eq!(
        fabric.radix(),
        schedule.radix,
        "fabric/schedule radix mismatch"
    );
    let radix = schedule.radix;
    let deadline = schedule.deadline();

    let mut next_packet = 0usize; // schedule is scanned in order
    let mut by_cycle: Vec<usize> = (0..schedule.packets.len()).collect();
    by_cycle.sort_by_key(|&i| schedule.packets[i].inject_cycle);

    let mut cycle = SwitchCycle::new(radix, 1);
    let mut delivered = Vec::new();
    let mut now = 0u64;

    while delivered.len() < schedule.packets.len() {
        if now > deadline {
            let pending: Vec<(usize, usize)> = (0..schedule.packets.len())
                .filter(|i| !delivered.contains(i))
                .map(|i| (schedule.packets[i].src, schedule.packets[i].dst))
                .collect();
            return Err(Violation::Starvation {
                cycle: now,
                pending,
            });
        }

        // (a) Land the cycle's last beats and release beats.
        cycle.transfers(fabric, |_, _, _, packet| delivered.push(packet.id as usize));

        // (b) Inject this cycle's packets; a packet's id is its index.
        while next_packet < by_cycle.len()
            && schedule.packets[by_cycle[next_packet]].inject_cycle <= now
        {
            let index = by_cycle[next_packet];
            let packet = &schedule.packets[index];
            cycle.inject(Packet {
                id: index as u64,
                src: InputId::new(packet.src),
                dst: OutputId::new(packet.dst),
                len_flits: packet.len_flits,
                birth_cycle: packet.inject_cycle,
                measured: true,
                handle: hirise_core::PacketHandle::NONE,
            });
            next_packet += 1;
        }

        // (c) Present the head of every idle input's VC.
        cycle.collect(|_, packet| packet.dst, |_, _| true);

        // Snapshot held connections to verify they survive arbitration.
        let busy_out: Vec<bool> = (0..radix)
            .map(|o| fabric.output_busy(OutputId::new(o)))
            .collect();
        let held: Vec<Option<OutputId>> = (0..radix)
            .map(|i| fabric.connection(InputId::new(i)))
            .collect();

        fabric.arbitrate_into(&cycle.requests, &mut cycle.grants);

        // (d) Per-cycle grant legality.
        let mut out_seen = vec![false; radix];
        let mut in_seen = vec![false; radix];
        for grant in &cycle.grants {
            let gi = grant.input.index();
            let go = grant.output.index();
            if !cycle
                .requests
                .iter()
                .any(|r| r.input == grant.input && r.output == grant.output)
            {
                return Err(Violation::GrantWithoutRequest {
                    cycle: now,
                    grant: (gi, go),
                });
            }
            if out_seen[go] {
                return Err(Violation::DoubleGrantOutput {
                    cycle: now,
                    output: go,
                });
            }
            if in_seen[gi] {
                return Err(Violation::DoubleGrantInput {
                    cycle: now,
                    input: gi,
                });
            }
            out_seen[go] = true;
            in_seen[gi] = true;
            if busy_out[go] {
                return Err(Violation::GrantToBusyOutput {
                    cycle: now,
                    output: go,
                });
            }
        }
        for (input, held_output) in held.iter().enumerate() {
            if let Some(output) = held_output {
                if fabric.connection(InputId::new(input)) != Some(*output) {
                    return Err(Violation::HeldConnectionDisturbed { cycle: now, input });
                }
            }
        }

        // (e) Winners start transferring their head packet.
        cycle.commit();

        now += 1;
    }

    Ok(CoSimOutcome {
        delivered,
        cycles: now,
    })
}

/// How a fabric diverged from the schedule or from the golden model.
#[derive(Clone, Debug)]
pub struct DiffFailure {
    /// Name of the fabric that failed.
    pub fabric: String,
    /// What went wrong.
    pub kind: DiffFailureKind,
}

/// The failure classes the differential harness distinguishes.
#[derive(Clone, Debug)]
pub enum DiffFailureKind {
    /// A per-cycle invariant broke inside one fabric's run.
    Violation(Violation),
    /// The fabric's delivered multiset differs from the injected one.
    DeliverySetMismatch {
        /// `(src, dst)` pairs delivered but never injected (duplicates).
        extra: Vec<(usize, usize)>,
        /// `(src, dst)` pairs injected but never delivered.
        missing: Vec<(usize, usize)>,
    },
    /// Packets of one `(src, dst)` flow were delivered out of FIFO order.
    FlowOrderViolation {
        /// The flow, as `(src, dst)`.
        flow: (usize, usize),
        /// The schedule indices in delivery order.
        delivered: Vec<usize>,
    },
}

impl fmt::Display for DiffFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            DiffFailureKind::Violation(v) => write!(f, "[{}] {v}", self.fabric),
            DiffFailureKind::DeliverySetMismatch { extra, missing } => write!(
                f,
                "[{}] delivery-set mismatch: extra {extra:?}, missing {missing:?}",
                self.fabric
            ),
            DiffFailureKind::FlowOrderViolation { flow, delivered } => write!(
                f,
                "[{}] flow {:?} delivered out of order: {delivered:?}",
                self.fabric, flow
            ),
        }
    }
}

/// A named fabric constructor, so the harness can build fresh instances
/// for every (shrunk) schedule candidate.
pub type FabricBuilder = (String, fn(usize) -> Box<dyn Fabric>);

fn hirise_fleet_member(scheme: ArbitrationScheme, c: usize, radix: usize) -> Box<dyn Fabric> {
    let cfg = HiRiseConfig::builder(radix, 4)
        .channel_multiplicity(c)
        .scheme(scheme)
        .build()
        .expect("valid differential-fleet configuration");
    Box::new(HiRiseSwitch::new(&cfg))
}

/// The standard differential fleet: golden model, flat 2D Swizzle, 3D
/// folded, Hi-Rise under all three §III-B arbitration schemes at
/// channel multiplicities 1 and 2, and the iterative-matching opponents
/// (iSLIP at 1/2/4 iterations, ESLIP, wavefront). Radix must be
/// divisible by 4.
pub fn standard_fleet() -> Vec<FabricBuilder> {
    vec![
        ("ref".into(), |r| Box::new(RefSwitch::new(r))),
        ("switch2d".into(), |r| Box::new(Switch2d::new(r))),
        ("folded".into(), |r| Box::new(FoldedSwitch::new(r, 4))),
        ("hirise-l2l-lrg-c1".into(), |r| {
            hirise_fleet_member(ArbitrationScheme::LayerToLayerLrg, 1, r)
        }),
        ("hirise-wlrg-c1".into(), |r| {
            hirise_fleet_member(ArbitrationScheme::WeightedLrg, 1, r)
        }),
        ("hirise-clrg-c1".into(), |r| {
            hirise_fleet_member(ArbitrationScheme::class_based(), 1, r)
        }),
        ("hirise-l2l-lrg-c2".into(), |r| {
            hirise_fleet_member(ArbitrationScheme::LayerToLayerLrg, 2, r)
        }),
        ("hirise-wlrg-c2".into(), |r| {
            hirise_fleet_member(ArbitrationScheme::WeightedLrg, 2, r)
        }),
        ("hirise-clrg-c2".into(), |r| {
            hirise_fleet_member(ArbitrationScheme::class_based(), 2, r)
        }),
        ("islip1".into(), |r| Box::new(MatchingSwitch::islip(r, 1))),
        ("islip2".into(), |r| Box::new(MatchingSwitch::islip(r, 2))),
        ("islip4".into(), |r| Box::new(MatchingSwitch::islip(r, 4))),
        ("eslip".into(), |r| Box::new(MatchingSwitch::eslip(r, 2))),
        ("wavefront".into(), |r| {
            Box::new(MatchingSwitch::wavefront(r))
        }),
    ]
}

fn check_one(
    name: &str,
    build: fn(usize) -> Box<dyn Fabric>,
    schedule: &Schedule,
) -> Option<DiffFailure> {
    let mut fabric = build(schedule.radix);
    let outcome = match run_schedule(&mut fabric, schedule) {
        Ok(outcome) => outcome,
        Err(violation) => {
            return Some(DiffFailure {
                fabric: name.to_string(),
                kind: DiffFailureKind::Violation(violation),
            })
        }
    };

    // Delivery-set equivalence: delivered multiset == injected multiset.
    // (run_schedule only completes when every packet delivered exactly
    // once, but verify independently — the log could double-count.)
    let mut counts = vec![0i64; schedule.packets.len()];
    for &index in &outcome.delivered {
        counts[index] += 1;
    }
    let extra: Vec<(usize, usize)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 1)
        .map(|(i, _)| (schedule.packets[i].src, schedule.packets[i].dst))
        .collect();
    let missing: Vec<(usize, usize)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c == 0)
        .map(|(i, _)| (schedule.packets[i].src, schedule.packets[i].dst))
        .collect();
    if !extra.is_empty() || !missing.is_empty() {
        return Some(DiffFailure {
            fabric: name.to_string(),
            kind: DiffFailureKind::DeliverySetMismatch { extra, missing },
        });
    }

    // Per-flow FIFO order: within one (src, dst) pair, schedule indices
    // must be delivered in increasing order.
    let mut last_per_flow: std::collections::HashMap<(usize, usize), usize> =
        std::collections::HashMap::new();
    for &index in &outcome.delivered {
        let flow = (schedule.packets[index].src, schedule.packets[index].dst);
        if let Some(&last) = last_per_flow.get(&flow) {
            if index < last {
                let delivered: Vec<usize> = outcome
                    .delivered
                    .iter()
                    .copied()
                    .filter(|&i| (schedule.packets[i].src, schedule.packets[i].dst) == flow)
                    .collect();
                return Some(DiffFailure {
                    fabric: name.to_string(),
                    kind: DiffFailureKind::FlowOrderViolation { flow, delivered },
                });
            }
        }
        last_per_flow.insert(flow, index);
    }
    None
}

/// Co-steps every fabric in `fleet` through `schedule`, returning the
/// first divergence found (grant illegality, delivery-set inequality
/// versus the injected set, per-flow reordering, or starvation).
pub fn check_schedule(fleet: &[FabricBuilder], schedule: &Schedule) -> Option<DiffFailure> {
    fleet
        .iter()
        .find_map(|(name, build)| check_one(name, *build, schedule))
}

/// Greedy delta-debugging: repeatedly drop packets (in halves, then one
/// at a time) while the failure persists, returning a locally minimal
/// schedule that still fails.
pub fn shrink(fleet: &[FabricBuilder], schedule: &Schedule) -> Schedule {
    let mut current = schedule.clone();
    debug_assert!(
        check_schedule(fleet, &current).is_some(),
        "shrink needs a failing schedule"
    );
    let mut chunk = (current.packets.len() / 2).max(1);
    loop {
        let mut progressed = false;
        let mut start = 0;
        while start < current.packets.len() {
            let end = (start + chunk).min(current.packets.len());
            let mut candidate = current.clone();
            candidate.packets.drain(start..end);
            if !candidate.packets.is_empty() && check_schedule(fleet, &candidate).is_some() {
                current = candidate;
                progressed = true;
                // Retry the same window — it now holds fresh packets.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !progressed {
            return current;
        }
        if !progressed {
            chunk = (chunk / 2).max(1);
        }
    }
}

/// One fuzzing round: a random schedule for `radix` over `cycles`
/// cycles at `rate` load, checked across `fleet`. On failure the
/// counterexample is shrunk before being returned.
pub fn fuzz_once(
    fleet: &[FabricBuilder],
    radix: usize,
    cycles: u64,
    rate: f64,
    seed: u64,
) -> Option<(Schedule, DiffFailure)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule = Schedule::random(&mut rng, radix, cycles, rate, 4);
    check_schedule(fleet, &schedule).map(|_| {
        let minimal = shrink(fleet, &schedule);
        let failure = check_schedule(fleet, &minimal).expect("shrunk schedule still fails");
        (minimal, failure)
    })
}

/// Runs `rounds` fuzzing rounds with seeds `base_seed..base_seed+rounds`,
/// returning the first (shrunk) counterexample, or `None` when the whole
/// fleet stays equivalent.
pub fn fuzz(
    fleet: &[FabricBuilder],
    radix: usize,
    cycles: u64,
    rate: f64,
    base_seed: u64,
    rounds: u64,
) -> Option<(Schedule, DiffFailure)> {
    (0..rounds).find_map(|round| fuzz_once(fleet, radix, cycles, rate, base_seed + round))
}

/// The first cycle at which [`Fabric::arbitrate`] and
/// [`Fabric::arbitrate_into`] disagreed on twin instances of one fabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArbitrateIntoDivergence {
    /// Cycle of the divergence.
    pub cycle: u64,
    /// Grants from the allocating entry point, as `(input, output)`.
    pub via_arbitrate: Vec<(usize, usize)>,
    /// Grants from the buffer-reusing entry point, as `(input, output)`.
    pub via_arbitrate_into: Vec<(usize, usize)>,
}

impl fmt::Display for ArbitrateIntoDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: arbitrate granted {:?} but arbitrate_into granted {:?}",
            self.cycle, self.via_arbitrate, self.via_arbitrate_into
        )
    }
}

/// Co-steps two fresh instances of one fabric through `schedule` — one
/// driven via the allocating [`Fabric::arbitrate`], the other via the
/// buffer-reusing [`Fabric::arbitrate_into`] — and demands bit-identical
/// grant vectors every cycle (same winners, same order).
///
/// Returns the number of cycles compared. The loop keeps
/// [`run_schedule`]'s timing (each idle input requests with its FIFO
/// head, a winner holds its connection for `len_flits` beats and a
/// release beat) and stops at the schedule deadline even if traffic is
/// still draining, so a run always terminates.
///
/// # Errors
///
/// Returns the first cycle whose grant vectors differ.
pub fn check_arbitrate_into_equivalence(
    build: fn(usize) -> Box<dyn Fabric>,
    schedule: &Schedule,
) -> Result<u64, ArbitrateIntoDivergence> {
    let radix = schedule.radix;
    let deadline = schedule.deadline();
    let mut via_arbitrate = build(radix);
    let mut via_into = build(radix);

    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); radix];
    let mut next_packet = 0usize;
    let mut by_cycle: Vec<usize> = (0..schedule.packets.len()).collect();
    by_cycle.sort_by_key(|&i| schedule.packets[i].inject_cycle);

    let mut transfers: Vec<Option<(usize, usize)>> = vec![None; radix];
    let mut delivered = 0usize;
    let mut grants_into: Vec<Grant> = Vec::new();
    let mut now = 0u64;

    while delivered < schedule.packets.len() && now <= deadline {
        for (input, transfer) in transfers.iter_mut().enumerate() {
            if let Some((_, flits)) = transfer {
                if *flits > 0 {
                    *flits -= 1;
                    if *flits == 0 {
                        delivered += 1;
                    }
                } else {
                    via_arbitrate.release(InputId::new(input));
                    via_into.release(InputId::new(input));
                    *transfer = None;
                }
            }
        }

        while next_packet < by_cycle.len()
            && schedule.packets[by_cycle[next_packet]].inject_cycle <= now
        {
            let index = by_cycle[next_packet];
            queues[schedule.packets[index].src].push_back(index);
            next_packet += 1;
        }

        let mut requests = Vec::new();
        for (input, queue) in queues.iter().enumerate() {
            if transfers[input].is_some() {
                continue;
            }
            if let Some(&index) = queue.front() {
                requests.push(Request::new(
                    InputId::new(input),
                    OutputId::new(schedule.packets[index].dst),
                ));
            }
        }

        let grants = via_arbitrate.arbitrate(&requests);
        via_into.arbitrate_into(&requests, &mut grants_into);
        if grants != grants_into {
            return Err(ArbitrateIntoDivergence {
                cycle: now,
                via_arbitrate: grants
                    .iter()
                    .map(|g| (g.input.index(), g.output.index()))
                    .collect(),
                via_arbitrate_into: grants_into
                    .iter()
                    .map(|g| (g.input.index(), g.output.index()))
                    .collect(),
            });
        }

        for grant in &grants {
            let input = grant.input.index();
            let index = queues[input]
                .pop_front()
                .expect("granted input has a queued packet");
            transfers[input] = Some((index, schedule.packets[index].len_flits));
        }

        now += 1;
    }

    Ok(now)
}

/// Convenience: converts a schedule into the `Packet` type the
/// `NetworkSim` statistics use — handy when replaying a shrunk
/// counterexample inside the full simulator.
pub fn schedule_packets(schedule: &Schedule) -> Vec<Packet> {
    schedule
        .packets
        .iter()
        .enumerate()
        .map(|(id, p)| Packet {
            id: id as u64,
            src: InputId::new(p.src),
            dst: OutputId::new(p.dst),
            len_flits: p.len_flits,
            birth_cycle: p.inject_cycle,
            measured: true,
            handle: hirise_core::PacketHandle::NONE,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(cycle: u64, src: usize, dst: usize) -> SchedPacket {
        SchedPacket {
            inject_cycle: cycle,
            src,
            dst,
            len_flits: 4,
        }
    }

    #[test]
    fn refswitch_grants_all_disjoint_requests() {
        let mut sw = RefSwitch::new(8);
        let requests: Vec<Request> = (0..8)
            .map(|i| Request::new(InputId::new(i), OutputId::new((i + 1) % 8)))
            .collect();
        assert_eq!(sw.arbitrate(&requests).len(), 8);
    }

    #[test]
    fn refswitch_lrg_rotates_contenders() {
        let mut sw = RefSwitch::new(4);
        let requests: Vec<Request> = (0..4)
            .map(|i| Request::new(InputId::new(i), OutputId::new(0)))
            .collect();
        let mut sequence = Vec::new();
        for _ in 0..8 {
            let grants = sw.arbitrate(&requests);
            assert_eq!(grants.len(), 1);
            sequence.push(grants[0].input.index());
            sw.release(grants[0].input);
        }
        assert_eq!(sequence, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn empty_schedule_completes_immediately() {
        let schedule = Schedule {
            radix: 8,
            packets: vec![],
        };
        let outcome = run_schedule(&mut RefSwitch::new(8), &schedule).unwrap();
        assert_eq!(outcome.delivered.len(), 0);
    }

    #[test]
    fn single_packet_delivers_in_len_plus_one_cycles() {
        let schedule = Schedule {
            radix: 8,
            packets: vec![packet(0, 0, 3)],
        };
        let outcome = run_schedule(&mut RefSwitch::new(8), &schedule).unwrap();
        assert_eq!(outcome.delivered, vec![0]);
        // Inject + arbitrate at cycle 0, four flit beats -> done after 5.
        assert_eq!(outcome.cycles, 5);
    }

    #[test]
    fn hotspot_schedule_serializes_on_every_fabric() {
        let schedule = Schedule {
            radix: 16,
            packets: (0..8).map(|i| packet(0, i, 5)).collect(),
        };
        for (name, build) in standard_fleet() {
            let mut fabric = build(16);
            let outcome =
                run_schedule(&mut fabric, &schedule).unwrap_or_else(|v| panic!("{name}: {v}"));
            assert_eq!(outcome.delivered.len(), 8, "{name}");
        }
    }

    #[test]
    fn fleet_passes_a_quick_fuzz() {
        let fleet = standard_fleet();
        assert!(fuzz(&fleet, 16, 40, 0.2, 0xD1FF, 5).is_none());
    }

    #[test]
    fn arbitrate_into_agrees_with_arbitrate_on_the_fleet() {
        let mut rng = StdRng::seed_from_u64(0xA11C);
        let schedule = Schedule::random(&mut rng, 16, 60, 0.25, 4);
        for (name, build) in standard_fleet() {
            check_arbitrate_into_equivalence(build, &schedule)
                .unwrap_or_else(|d| panic!("{name}: {d}"));
        }
    }

    #[test]
    fn arbitrate_into_divergence_is_reported() {
        // A fabric whose arbitrate_into override deliberately drops the
        // last grant, so the two entry points disagree.
        struct Lossy(RefSwitch);
        impl Fabric for Lossy {
            fn radix(&self) -> usize {
                self.0.radix()
            }
            fn arbitrate(&mut self, requests: &[Request]) -> Vec<Grant> {
                self.0.arbitrate(requests)
            }
            fn arbitrate_into(&mut self, requests: &[Request], grants: &mut Vec<Grant>) {
                grants.clear();
                grants.extend(self.0.arbitrate(requests));
                grants.pop();
            }
            fn release(&mut self, input: InputId) {
                self.0.release(input);
            }
            fn connection(&self, input: InputId) -> Option<OutputId> {
                self.0.connection(input)
            }
            fn output_busy(&self, output: OutputId) -> bool {
                self.0.output_busy(output)
            }
        }
        fn build(radix: usize) -> Box<dyn Fabric> {
            Box::new(Lossy(RefSwitch::new(radix)))
        }
        let schedule = Schedule {
            radix: 8,
            packets: vec![packet(0, 0, 3)],
        };
        let divergence = check_arbitrate_into_equivalence(build, &schedule).unwrap_err();
        assert_eq!(divergence.cycle, 0);
        assert_eq!(divergence.via_arbitrate, vec![(0, 3)]);
        assert!(divergence.via_arbitrate_into.is_empty());
    }

    #[test]
    fn shrink_finds_small_counterexample_for_seeded_bug() {
        // A deliberately broken fabric: drops every 5th granted packet's
        // release (holds the output forever), starving later traffic.
        struct Leaky {
            inner: RefSwitch,
            grants: usize,
        }
        impl Fabric for Leaky {
            fn radix(&self) -> usize {
                self.inner.radix()
            }
            fn arbitrate(&mut self, requests: &[Request]) -> Vec<Grant> {
                let grants = self.inner.arbitrate(requests);
                self.grants += grants.len();
                grants
            }
            fn release(&mut self, input: InputId) {
                // Leak the release after the 5th grant.
                if self.grants < 5 {
                    self.inner.release(input);
                }
            }
            fn connection(&self, input: InputId) -> Option<OutputId> {
                self.inner.connection(input)
            }
            fn output_busy(&self, output: OutputId) -> bool {
                self.inner.output_busy(output)
            }
        }
        fn build_leaky(radix: usize) -> Box<dyn Fabric> {
            Box::new(Leaky {
                inner: RefSwitch::new(radix),
                grants: 0,
            })
        }
        let fleet: Vec<FabricBuilder> = vec![("leaky".into(), build_leaky)];
        let mut rng = StdRng::seed_from_u64(7);
        let schedule = Schedule::random(&mut rng, 8, 60, 0.4, 4);
        assert!(
            check_schedule(&fleet, &schedule).is_some(),
            "leaky fabric must fail"
        );
        let minimal = shrink(&fleet, &schedule);
        assert!(check_schedule(&fleet, &minimal).is_some());
        // 5 grants fill the leak; a 6th packet exposes it. The shrinker
        // must get close to that minimum.
        assert!(
            minimal.packets.len() <= 8,
            "shrunk to {} packets",
            minimal.packets.len()
        );
    }

    #[test]
    fn delivery_log_matches_injection_multiset() {
        let mut rng = StdRng::seed_from_u64(21);
        let schedule = Schedule::random(&mut rng, 16, 50, 0.3, 4);
        let outcome = run_schedule(&mut Switch2d::new(16), &schedule).unwrap();
        let mut delivered = outcome.delivered.clone();
        delivered.sort_unstable();
        assert_eq!(delivered, (0..schedule.packets.len()).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_packets_round_trip() {
        let schedule = Schedule {
            radix: 4,
            packets: vec![packet(3, 1, 2)],
        };
        let packets = schedule_packets(&schedule);
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].src, InputId::new(1));
        assert_eq!(packets[0].birth_cycle, 3);
    }
}
