//! Input port model: source queue plus virtual channels.
//!
//! Matching §V of the paper, each input port has a small set of virtual
//! channels (4 by default), each deep enough to hold one packet
//! (4 flits). Packets wait in an unbounded source queue — standard
//! open-loop injection methodology — move into a free VC one per cycle,
//! and a rotating pointer picks which occupied VC competes for the
//! switch each cycle (giving blocked packets head-of-line relief).
//!
//! An [`InputPort`] is the port's header: its source queue, VC
//! occupancy mask, selected VC and rotation pointer, in one 64-byte
//! cache line. The packets its VCs hold, and the request each VC makes,
//! live in the owning [`SwitchCycle`](crate::SwitchCycle)'s slot
//! arrays, `vcs` slots per port, and the methods that move packets take
//! the port's slots.

use crate::packet::Packet;
use std::collections::VecDeque;

/// `active_vc` of a port with no VC selected or transferring.
const NO_VC: u8 = u8::MAX;

/// The request a VC's packet makes of the switch, recorded once when
/// the packet enters the VC: the output it is routed to and the length
/// of the transfer it asks for.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct VcRequest {
    /// Flit beats of the packet. The packet stays in its port's active
    /// VC until its last beat lands, `len` cycles after the grant; the
    /// connection releases on the *next* cycle (the output bus doubles
    /// as the arbitration priority bus, so the release beat and a new
    /// arbitration cannot share a cycle).
    pub(crate) len: u32,
    /// The output requested.
    pub(crate) output: u32,
}

/// The header of one input port of the simulated network.
///
/// VC occupancy is a bitmask so the per-cycle hot paths (fill,
/// candidate selection, idle checks) test and scan single words instead
/// of walking packet slots.
#[derive(Clone, Debug)]
#[repr(align(64))]
pub struct InputPort {
    source_queue: VecDeque<Packet>,
    /// Bit `v` set iff VC `v` holds a packet.
    occupied: u64,
    /// Virtual channels, `1..=64`.
    vcs: u8,
    /// VC currently selected or transferring, or [`NO_VC`].
    active_vc: u8,
    /// Rotating pointer for VC selection.
    next_vc: u8,
}

impl InputPort {
    /// Creates a port with `vcs` virtual channels.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` is zero or exceeds 64 (the occupancy mask width).
    pub fn new(vcs: usize) -> Self {
        assert!(vcs > 0, "a port needs at least one virtual channel");
        assert!(vcs <= 64, "at most 64 virtual channels per port");
        Self {
            source_queue: VecDeque::new(),
            occupied: 0,
            vcs: vcs as u8,
            active_vc: NO_VC,
            next_vc: 0,
        }
    }

    /// Queues a freshly injected packet.
    pub fn inject(&mut self, packet: Packet) {
        self.source_queue.push_back(packet);
    }

    /// Moves at most one packet from the source queue into a free VC of
    /// `slots`, the port's `vcs` packet slots, and returns that VC.
    pub(crate) fn fill_vcs(&mut self, slots: &mut [Option<Packet>]) -> Option<usize> {
        if self.source_queue.is_empty() {
            return None;
        }
        let all = if self.vcs == 64 {
            !0
        } else {
            (1u64 << self.vcs) - 1
        };
        let free = !self.occupied & all;
        if free == 0 {
            return None;
        }
        let vc = free.trailing_zeros() as usize;
        slots[vc] = self.source_queue.pop_front();
        self.occupied |= 1 << vc;
        Some(vc)
    }

    /// Picks the VC that will request the switch this cycle: the first
    /// occupied VC at or after the rotating pointer (wrapping), skipping
    /// a port that is mid-transfer. Marks the choice tentative and
    /// rotates the pointer, so a persistently blocked packet does not
    /// monopolise the port's request slot. The candidate packet stays
    /// in its slot until the transfer completes, so losing candidates
    /// never cost a packet copy.
    pub(crate) fn select_vc(&mut self) -> Option<usize> {
        if self.active_vc != NO_VC || self.occupied == 0 {
            return None; // port busy transferring, or nothing buffered
        }
        let at_or_after = self.occupied & (!0u64 << self.next_vc);
        let vc = if at_or_after != 0 {
            at_or_after.trailing_zeros()
        } else {
            self.occupied.trailing_zeros()
        } as u8;
        // `vc < vcs`, so the wrap is a compare rather than the hardware
        // division `%` would emit for a runtime modulus — this runs for
        // every buffered port every cycle.
        self.next_vc = if vc + 1 == self.vcs { 0 } else { vc + 1 };
        self.active_vc = vc; // tentative; confirmed on grant
        Some(vc as usize)
    }

    /// Confirms that the candidate VC won arbitration and is now
    /// transferring, and returns it.
    ///
    /// # Panics
    ///
    /// Panics if no candidate was selected this cycle.
    pub(crate) fn confirm_grant(&mut self) -> usize {
        assert!(self.active_vc != NO_VC, "no candidate to confirm");
        self.active_vc as usize
    }

    /// Reverts the tentative selection after losing arbitration.
    pub(crate) fn revoke_candidate(&mut self) {
        self.active_vc = NO_VC;
    }

    /// Completes the in-flight transfer, freeing its VC in `slots` and
    /// returning the packet that finished.
    ///
    /// # Panics
    ///
    /// Panics if no transfer is active.
    pub(crate) fn complete_transfer(&mut self, slots: &mut [Option<Packet>]) -> Packet {
        assert!(self.active_vc != NO_VC, "no active transfer");
        let vc = self.active_vc as usize;
        self.active_vc = NO_VC;
        self.occupied &= !(1u64 << vc);
        slots[vc].take().expect("active VC holds a packet")
    }

    /// Whether the port is mid-transfer.
    pub fn is_transferring(&self) -> bool {
        self.active_vc != NO_VC
    }

    /// Index of the VC currently selected or transferring, if any.
    /// Exposed so the invariant checker can attribute deliveries to
    /// their FIFO lane.
    pub fn active_vc(&self) -> Option<usize> {
        (self.active_vc != NO_VC).then_some(self.active_vc as usize)
    }

    /// Packets currently waiting in the source queue.
    pub fn queued(&self) -> usize {
        self.source_queue.len()
    }

    /// Packets currently buffered in VCs.
    pub fn buffered(&self) -> usize {
        self.occupied.count_ones() as usize
    }

    /// Total packets held by this port (source queue + VCs) — what a
    /// credit-based upstream link checks before forwarding.
    pub fn occupancy(&self) -> usize {
        self.queued() + self.buffered()
    }

    /// Whether the port holds no packets at all.
    pub fn is_idle(&self) -> bool {
        self.source_queue.is_empty() && self.occupied == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hirise_core::{InputId, OutputId};

    fn packet(id: u64, dst: usize) -> Packet {
        Packet {
            id,
            src: InputId::new(0),
            dst: OutputId::new(dst),
            len_flits: 4,
            birth_cycle: 0,
            measured: false,
            handle: hirise_core::PacketHandle::NONE,
        }
    }

    /// The slot candidate selection picked, as the switch cycle reads it.
    fn candidate(port: &mut InputPort, slots: &[Option<Packet>]) -> Option<Packet> {
        port.select_vc()
            .map(|vc| slots[vc].expect("occupied VC holds a packet"))
    }

    #[test]
    fn packets_flow_queue_to_vc() {
        let mut port = InputPort::new(2);
        let mut slots = vec![None; 2];
        port.inject(packet(1, 5));
        port.inject(packet(2, 6));
        port.inject(packet(3, 7));
        assert_eq!(port.queued(), 3);
        port.fill_vcs(&mut slots);
        port.fill_vcs(&mut slots);
        assert_eq!(port.buffered(), 2);
        assert_eq!(port.queued(), 1, "third packet waits for a free VC");
    }

    #[test]
    fn candidate_selection_rotates() {
        let mut port = InputPort::new(4);
        let mut slots = vec![None; 4];
        port.inject(packet(1, 5));
        port.inject(packet(2, 6));
        port.fill_vcs(&mut slots);
        port.fill_vcs(&mut slots);
        assert_eq!(candidate(&mut port, &slots).unwrap().id, 1);
        port.revoke_candidate();
        // After losing, the pointer has rotated: packet 2 goes next.
        assert_eq!(candidate(&mut port, &slots).unwrap().id, 2);
        port.revoke_candidate();
    }

    #[test]
    fn transfer_lifecycle() {
        let mut port = InputPort::new(2);
        let mut slots = vec![None; 2];
        port.inject(packet(1, 5));
        port.fill_vcs(&mut slots);
        assert_eq!(candidate(&mut port, &slots).unwrap().id, 1);
        port.confirm_grant();
        assert!(port.is_transferring());
        // While transferring, no new candidate is offered.
        assert!(candidate(&mut port, &slots).is_none());
        let done = port.complete_transfer(&mut slots);
        assert_eq!(done.id, 1);
        assert!(port.is_idle());
    }

    #[test]
    fn the_header_fills_one_cache_line() {
        assert_eq!(std::mem::size_of::<InputPort>(), 64);
        assert_eq!(std::mem::align_of::<InputPort>(), 64);
    }

    #[test]
    #[should_panic(expected = "no active transfer")]
    fn completing_idle_port_panics() {
        let mut port = InputPort::new(1);
        let _ = port.complete_transfer(&mut [None]);
    }
}
