//! `SwitchNet` steps the shared `SwitchCycle`; these tests pin it to the
//! network interface it replaced, cycle for cycle.
//!
//! [`RefNet`] is that earlier interface kept as a golden model: payloads
//! in a `HashMap` keyed by packet id, one `Option` transfer slot per
//! input, ports that own their VC packets ([`RefPort`]), every port
//! filled and scanned every cycle, and the allocating `Fabric::arbitrate`. Both nets see the same sends on the same
//! fabrics (with and without faults), and every cycle's arrivals,
//! delivery counts and latency sums must agree exactly.

use hirise_core::rng::{Rng, SeedableRng, StdRng};
use hirise_core::{
    Fabric, Fault, FaultSite, FoldedSwitch, HiRiseConfig, HiRiseSwitch, InputId, MatchingSwitch,
    OutputId, PacketHandle, Request, Switch2d,
};
use hirise_manycore::{Message, SwitchNet};
use hirise_sim::Packet;
use std::collections::{HashMap, VecDeque};

const RADIX: usize = 64;

/// The earlier input port, kept as the reference model: a source queue
/// and a heap `Vec` of VC slots per port, a rotating VC pointer, and a
/// tentative candidate confirmed on grant.
struct RefPort {
    source_queue: VecDeque<Packet>,
    vcs: Vec<Option<Packet>>,
    active_vc: Option<usize>,
    next_vc: usize,
}

impl RefPort {
    fn new(vcs: usize) -> Self {
        Self {
            source_queue: VecDeque::new(),
            vcs: vec![None; vcs],
            active_vc: None,
            next_vc: 0,
        }
    }

    fn inject(&mut self, packet: Packet) {
        self.source_queue.push_back(packet);
    }

    /// Moves at most one queued packet into the lowest free VC.
    fn fill_vcs(&mut self) {
        if let Some(vc) = self.vcs.iter().position(Option::is_none) {
            if let Some(packet) = self.source_queue.pop_front() {
                self.vcs[vc] = Some(packet);
            }
        }
    }

    /// The first occupied VC at or after the rotating pointer, unless
    /// the port is mid-transfer.
    fn select_candidate(&mut self) -> Option<&Packet> {
        if self.active_vc.is_some() {
            return None;
        }
        let n = self.vcs.len();
        let vc = (0..n)
            .map(|d| (self.next_vc + d) % n)
            .find(|&vc| self.vcs[vc].is_some())?;
        self.next_vc = (vc + 1) % n;
        self.active_vc = Some(vc);
        self.vcs[vc].as_ref()
    }

    fn confirm_grant(&mut self) {
        assert!(self.active_vc.is_some(), "no candidate to confirm");
    }

    fn revoke_candidate(&mut self) {
        self.active_vc = None;
    }

    fn complete_transfer(&mut self) -> Packet {
        let vc = self.active_vc.take().expect("no active transfer");
        self.vcs[vc].take().expect("active VC holds a packet")
    }
}

/// The earlier network interface, kept as the reference model.
struct RefNet<F> {
    fabric: F,
    ports: Vec<RefPort>,
    /// Packet and flit beats remaining, per input.
    transfers: Vec<Option<(Packet, usize)>>,
    /// Message payload and birth cycle, keyed by packet id.
    payloads: HashMap<u64, (Message, u64)>,
    arrivals: VecDeque<(usize, Message)>,
    next_id: u64,
    now: u64,
    delivered: u64,
    latency_sum: u64,
}

impl<F: Fabric> RefNet<F> {
    fn new(fabric: F) -> Self {
        let radix = fabric.radix();
        Self {
            fabric,
            ports: (0..radix).map(|_| RefPort::new(4)).collect(),
            transfers: vec![None; radix],
            payloads: HashMap::new(),
            arrivals: VecDeque::new(),
            next_id: 0,
            now: 0,
            delivered: 0,
            latency_sum: 0,
        }
    }

    fn send(&mut self, src: usize, dst: usize, message: Message) -> u64 {
        let id = self.next_id;
        let packet = Packet {
            id,
            src: InputId::new(src),
            dst: OutputId::new(dst),
            len_flits: message.len_flits(),
            birth_cycle: self.now,
            measured: false,
            handle: PacketHandle::NONE,
        };
        self.payloads.insert(id, (message, self.now));
        self.next_id += 1;
        self.ports[src].inject(packet);
        id
    }

    fn step(&mut self) {
        let radix = self.ports.len();
        for input in 0..radix {
            if let Some((packet, flits_remaining)) = &mut self.transfers[input] {
                if *flits_remaining > 0 {
                    *flits_remaining -= 1;
                    if *flits_remaining == 0 {
                        let (message, _) = self.payloads.remove(&packet.id).unwrap();
                        self.delivered += 1;
                        self.latency_sum += packet.latency(self.now);
                        self.arrivals.push_back((packet.dst.index(), message));
                        self.ports[input].complete_transfer();
                    }
                } else {
                    self.fabric.release(InputId::new(input));
                    self.transfers[input] = None;
                }
            }
        }
        for port in &mut self.ports {
            port.fill_vcs();
        }
        let mut candidates = Vec::new();
        let mut requests = Vec::new();
        for input in 0..radix {
            if self.transfers[input].is_some() {
                continue;
            }
            if let Some(&packet) = self.ports[input].select_candidate() {
                candidates.push(packet);
                requests.push(Request::new(InputId::new(input), packet.dst));
            }
        }
        let grants = self.fabric.arbitrate(&requests);
        let mut granted = vec![false; radix];
        for grant in &grants {
            granted[grant.input.index()] = true;
        }
        for packet in candidates {
            let input = packet.src.index();
            if granted[input] {
                self.ports[input].confirm_grant();
                self.transfers[input] = Some((packet, packet.len_flits));
            } else {
                self.ports[input].revoke_candidate();
            }
        }
        self.now += 1;
    }
}

/// A random CMP-shaped message: control or data, to any core or bank.
fn random_message(rng: &mut StdRng) -> Message {
    let core = rng.gen_range(0..RADIX);
    let bank = rng.gen_range(0..RADIX);
    match rng.gen_range(0..4u32) {
        0 => Message::L2Request {
            core,
            l2_miss: rng.gen_bool(0.5),
        },
        1 => Message::L2Reply { core },
        2 => Message::MemRequest { core, bank },
        _ => Message::MemReply { core, bank },
    }
}

/// Co-steps a [`SwitchNet`] and a [`RefNet`] over identical fabrics for
/// `cycles`, each tile sending with probability `rate` per cycle (several
/// sends may land between two steps, as in the CMP), and asserts they
/// agree on every cycle.
fn co_step<F: Fabric>(label: &str, build: impl Fn() -> F, rate: f64, cycles: u64) {
    let mut net = SwitchNet::new(build());
    let mut reference = RefNet::new(build());
    let mut rng = StdRng::seed_from_u64(0x7E1_5EED);
    for cycle in 0..cycles {
        for src in 0..RADIX {
            if rng.gen_bool(rate) {
                let dst = (src + rng.gen_range(1..RADIX)) % RADIX;
                let message = random_message(&mut rng);
                assert_eq!(
                    net.send(src, dst, message),
                    reference.send(src, dst, message)
                );
            }
        }
        net.step();
        reference.step();
        let arrived: Vec<_> = std::iter::from_fn(|| net.pop_arrival()).collect();
        let expected: Vec<_> = reference.arrivals.drain(..).collect();
        assert_eq!(
            arrived, expected,
            "{label}: arrivals differ at cycle {cycle}"
        );
    }
    assert!(reference.delivered > 0, "{label}: the run must deliver");
    assert_eq!(net.delivered(), reference.delivered, "{label}");
    assert_eq!(net.in_flight(), reference.payloads.len(), "{label}");
    assert_eq!(net.now(), reference.now, "{label}");
    assert_eq!(
        net.avg_latency_cycles().to_bits(),
        (reference.latency_sum as f64 / reference.delivered as f64).to_bits(),
        "{label}"
    );
}

fn with_faults<F: Fabric>(mut fabric: F, faults: &[Fault]) -> F {
    fabric
        .enable_faults(0xFA17)
        .expect("fabric supports faults");
    for &fault in faults {
        fabric.inject_fault(fault).expect("fault site in range");
    }
    fabric
}

#[test]
fn switch_net_matches_the_reference_interface_on_every_fabric() {
    let hirise = HiRiseConfig::paper_optimal();
    co_step("2d", || Switch2d::new(RADIX), 0.06, 3_000);
    co_step("hirise", || HiRiseSwitch::new(&hirise), 0.06, 3_000);
    co_step("folded", || FoldedSwitch::new(RADIX, 4), 0.06, 3_000);
    co_step("islip2", || MatchingSwitch::islip(RADIX, 2), 0.06, 3_000);
    // Past saturation the source queues grow without bound.
    co_step("hirise-overload", || HiRiseSwitch::new(&hirise), 0.3, 1_000);
}

#[test]
fn switch_net_matches_the_reference_interface_under_faults() {
    let hirise = HiRiseConfig::paper_optimal();
    co_step(
        "hirise+tsv-faults",
        || {
            with_faults(
                HiRiseSwitch::new(&hirise),
                &[
                    Fault::dead(FaultSite::TsvBundle { index: 0 }),
                    Fault::flaky(FaultSite::TsvBundle { index: 5 }, 0.5),
                ],
            )
        },
        0.06,
        3_000,
    );
    // A dead input never wins: its messages pile up undelivered.
    co_step(
        "2d+dead-port",
        || {
            with_faults(
                Switch2d::new(RADIX),
                &[Fault::dead(FaultSite::Port { input: 3 })],
            )
        },
        0.06,
        3_000,
    );
}
