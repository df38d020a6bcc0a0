//! Network interface: drives a switch [`Fabric`] with tile-to-tile
//! [`Message`]s through the same [`SwitchCycle`] as the synthetic-traffic
//! simulator (one arbitration cycle, one flit per cycle, release beat).
//!
//! Message payloads wait in a slab indexed by the [`PacketHandle`]
//! carried inside each packet, with a free list, so a steady-state
//! cycle neither hashes nor allocates.

use crate::message::Message;
use hirise_core::{Fabric, InputId, OutputId, PacketHandle};
use hirise_sim::{Packet, SwitchCycle};
use std::collections::VecDeque;

/// A message waiting in the network, in its slab slot.
#[derive(Clone, Copy, Debug)]
struct Payload {
    message: Message,
    /// Id returned by [`SwitchNet::send`].
    id: u64,
    /// Cycle the message was sent.
    birth: u64,
}

/// A bounded wait for a delivery expired: the network stepped the
/// requested number of cycles without any message arriving. Carries the
/// oldest undelivered message so the caller can report *which* request
/// stalled and for how long — a faulty or saturated switch surfaces as
/// a diagnosable error instead of an `expect` panic deep in a test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryTimeout {
    /// Id (as returned by [`SwitchNet::send`]) of the oldest message
    /// still undelivered, `None` when nothing was in flight at all.
    pub id: Option<u64>,
    /// Age in cycles of that message at the time the wait expired.
    pub age_cycles: u64,
}

impl std::fmt::Display for DeliveryTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.id {
            Some(id) => write!(
                f,
                "no delivery within the wait; oldest undelivered message \
                 {id} is {} cycles old",
                self.age_cycles
            ),
            None => write!(f, "no delivery within the wait; nothing in flight"),
        }
    }
}

impl std::error::Error for DeliveryTimeout {}

/// A switch plus per-tile injection ports carrying [`Message`]s.
#[derive(Debug)]
pub struct SwitchNet<F> {
    fabric: F,
    cycle: SwitchCycle,
    /// Messages in the network, indexed by their packet's handle;
    /// `None` marks a free slot.
    payloads: Vec<Option<Payload>>,
    /// Free slots of `payloads`, reused before the slab grows.
    free: Vec<u32>,
    arrivals: VecDeque<(usize, Message)>,
    next_id: u64,
    now: u64,
    delivered: u64,
    latency_sum: u64,
}

impl<F: Fabric> SwitchNet<F> {
    /// Wraps `fabric` with 4-VC injection ports on every tile.
    pub fn new(fabric: F) -> Self {
        Self {
            cycle: SwitchCycle::new(fabric.radix(), 4),
            fabric,
            payloads: Vec::new(),
            free: Vec::new(),
            arrivals: VecDeque::new(),
            next_id: 0,
            now: 0,
            delivered: 0,
            latency_sum: 0,
        }
    }

    /// Queues `message` for transmission from tile `src` to tile `dst`,
    /// returning the message's id (reported by [`DeliveryTimeout`] if
    /// the message later stalls).
    ///
    /// # Panics
    ///
    /// Panics if either tile index is out of range or `src == dst`
    /// (same-tile traffic should bypass the network).
    pub fn send(&mut self, src: usize, dst: usize, message: Message) -> u64 {
        let radix = self.fabric.radix();
        assert!(src < radix && dst < radix);
        assert_ne!(src, dst, "same-tile messages bypass the switch");
        let id = self.next_id;
        self.next_id += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.payloads.push(None);
            u32::try_from(self.payloads.len() - 1).expect("payload slab outgrew u32 handles")
        });
        self.payloads[slot as usize] = Some(Payload {
            message,
            id,
            birth: self.now,
        });
        self.cycle.inject(Packet {
            id,
            src: InputId::new(src),
            dst: OutputId::new(dst),
            len_flits: message.len_flits(),
            birth_cycle: self.now,
            measured: false,
            handle: PacketHandle::new(slot),
        });
        id
    }

    /// Advances the network one switch cycle.
    pub fn step(&mut self) {
        self.cycle
            .transfers(&mut self.fabric, |_input, _vc, _output, packet| {
                let slot = packet.handle.slot();
                let payload = self.payloads[slot as usize]
                    .take()
                    .expect("payload recorded at send time");
                self.free.push(slot);
                self.delivered += 1;
                self.latency_sum += packet.latency(self.now);
                self.arrivals
                    .push_back((packet.dst.index(), payload.message));
            });
        self.cycle.arbitrate(&mut self.fabric);
        self.now += 1;
    }

    /// Takes the next delivered message, if any.
    pub fn pop_arrival(&mut self) -> Option<(usize, Message)> {
        self.arrivals.pop_front()
    }

    /// Steps the network until a message arrives, for at most
    /// `max_cycles` cycles, returning the arrival. Already-queued
    /// arrivals are returned without stepping.
    ///
    /// # Errors
    ///
    /// [`DeliveryTimeout`] when the bound expires with no delivery,
    /// naming the oldest undelivered message and its age — the typed
    /// replacement for "step N times then panic" wait loops, and the
    /// way a dead-port fault or saturated switch shows up in tests.
    pub fn step_until_arrival(
        &mut self,
        max_cycles: u64,
    ) -> Result<(usize, Message), DeliveryTimeout> {
        for _ in 0..max_cycles {
            if let Some(arrival) = self.pop_arrival() {
                return Ok(arrival);
            }
            self.step();
        }
        if let Some(arrival) = self.pop_arrival() {
            return Ok(arrival);
        }
        let oldest = self
            .payloads
            .iter()
            .flatten()
            .min_by_key(|payload| (payload.birth, payload.id));
        Err(DeliveryTimeout {
            id: oldest.map(|payload| payload.id),
            age_cycles: oldest.map_or(0, |payload| self.now - payload.birth),
        })
    }

    /// Messages still queued, buffered or in flight.
    pub fn in_flight(&self) -> usize {
        self.payloads.len() - self.free.len()
    }

    /// Total messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Mean network latency in switch cycles over delivered messages.
    pub fn avg_latency_cycles(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered as f64
        }
    }

    /// Current network cycle.
    pub fn now(&self) -> u64 {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hirise_core::Switch2d;

    #[test]
    fn delivers_a_message_end_to_end() {
        let mut net = SwitchNet::new(Switch2d::new(8));
        net.send(0, 5, Message::L2Reply { core: 3 });
        let mut arrived = None;
        for _ in 0..20 {
            net.step();
            if let Some(a) = net.pop_arrival() {
                arrived = Some(a);
                break;
            }
        }
        assert_eq!(arrived, Some((5, Message::L2Reply { core: 3 })));
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.delivered(), 1);
    }

    #[test]
    fn control_packets_are_faster_than_data() {
        let latency_of = |message: Message| {
            let mut net = SwitchNet::new(Switch2d::new(8));
            net.send(1, 2, message);
            net.step_until_arrival(20).expect("uncontended delivery");
            net.avg_latency_cycles()
        };
        let control = latency_of(Message::L2Request {
            core: 0,
            l2_miss: false,
        });
        let data = latency_of(Message::L2Reply { core: 0 });
        assert_eq!(control, 1.0);
        assert_eq!(data, 4.0);
    }

    #[test]
    fn stalled_delivery_is_a_typed_timeout_not_a_panic() {
        use hirise_core::{Fault, FaultSite};
        // Kill input port 1, then send from it: the message can never
        // win arbitration, and the bounded wait reports exactly which
        // message stalled and for how long.
        let mut fabric = Switch2d::new(8);
        fabric
            .inject_fault(Fault::dead(FaultSite::Port { input: 1 }))
            .unwrap();
        let mut net = SwitchNet::new(fabric);
        let id = net.send(1, 2, Message::L2Reply { core: 0 });
        let err = net.step_until_arrival(30).unwrap_err();
        assert_eq!(err.id, Some(id));
        assert_eq!(err.age_cycles, 30);
        assert!(err.to_string().contains("30 cycles old"));
        assert_eq!(net.in_flight(), 1);
    }

    #[test]
    fn empty_network_timeout_reports_nothing_in_flight() {
        let mut net = SwitchNet::new(Switch2d::new(8));
        let err = net.step_until_arrival(3).unwrap_err();
        assert_eq!(
            err,
            DeliveryTimeout {
                id: None,
                age_cycles: 0
            }
        );
        assert!(err.to_string().contains("nothing in flight"));
    }

    #[test]
    fn contention_serialises_same_destination() {
        let mut net = SwitchNet::new(Switch2d::new(8));
        net.send(0, 7, Message::L2Reply { core: 0 });
        net.send(1, 7, Message::L2Reply { core: 1 });
        let mut arrivals = Vec::new();
        for _ in 0..40 {
            net.step();
            while let Some(a) = net.pop_arrival() {
                arrivals.push((net.now(), a.0));
            }
        }
        assert_eq!(arrivals.len(), 2);
        // Second delivery at least a full packet later than the first.
        assert!(arrivals[1].0 >= arrivals[0].0 + 4);
    }

    #[test]
    #[should_panic(expected = "bypass the switch")]
    fn same_tile_send_is_rejected() {
        let mut net = SwitchNet::new(Switch2d::new(8));
        net.send(3, 3, Message::L2Reply { core: 3 });
    }
}
