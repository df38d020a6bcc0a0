//! Weighted LRG (WLRG) hold-credit state (§III-B3).
//!
//! WLRG makes the inter-layer sub-block hold a channel's LRG priority for
//! a number of consecutive wins proportional to how many requestors the
//! channel represents. The local switch counts its parallel requestors
//! (the *weight*) and transmits it with the request; the sub-block keeps
//! the winner at the top of the LRG order until its credit is spent.
//!
//! The paper rejects WLRG for hardware (single-cycle population count and
//! weight transmission over the L2LC are prohibitive) but uses it as a
//! fairness yardstick in Fig. 11; this model plays the same role.

/// The WLRG hold credits of `count` sub-blocks over `slots` contender
/// slots each, in one array (`credits[m * slots + slot]`): the credit
/// kernel behind [`WlrgState`] and a Hi-Rise switch's sub-blocks.
#[derive(Clone, Debug)]
pub(crate) struct WlrgBank {
    credits: Vec<u32>,
    slots: usize,
}

impl WlrgBank {
    pub(crate) fn new(count: usize, slots: usize) -> Self {
        Self {
            credits: vec![0; count * slots],
            slots,
        }
    }

    /// Records that `slot` of sub-block `m` won while representing
    /// `weight` requestors; returns whether the LRG demotion commits.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or `weight` is zero.
    pub(crate) fn record_win(&mut self, m: usize, slot: usize, weight: u32) -> bool {
        assert!(slot < self.slots, "slot {slot} out of range");
        assert!(weight >= 1, "weight must be at least 1");
        let credit = &mut self.credits[m * self.slots + slot];
        if *credit == 0 {
            // Fresh win: charge the full weight.
            *credit = weight - 1;
        } else {
            *credit -= 1;
        }
        *credit == 0
    }

    #[inline]
    pub(crate) fn credit(&self, m: usize, slot: usize) -> u32 {
        assert!(slot < self.slots, "slot {slot} out of range");
        self.credits[m * self.slots + slot]
    }
}

/// Per-sub-block WLRG credit tracker over `m` contender slots.
#[derive(Clone, Debug)]
pub struct WlrgState {
    bank: WlrgBank,
}

impl WlrgState {
    /// Creates credit state for `m` contender slots.
    pub fn new(m: usize) -> Self {
        Self {
            bank: WlrgBank::new(1, m),
        }
    }

    /// Number of contender slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.bank.slots
    }

    /// Whether zero slots are tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bank.slots == 0
    }

    /// Records that `slot` won while representing `weight` requestors
    /// (weight ≥ 1). Returns `true` if the sub-block should commit the
    /// LRG demotion for this slot, `false` if the priority is held.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or `weight` is zero.
    pub fn record_win(&mut self, slot: usize, weight: u32) -> bool {
        self.bank.record_win(0, slot, weight)
    }

    /// Remaining hold credit for `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    pub fn credit(&self, slot: usize) -> u32 {
        self.bank.credit(0, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_one_always_demotes() {
        let mut wlrg = WlrgState::new(2);
        assert!(wlrg.record_win(0, 1));
        assert!(wlrg.record_win(0, 1));
    }

    #[test]
    fn weight_four_holds_for_four_wins() {
        let mut wlrg = WlrgState::new(2);
        assert!(!wlrg.record_win(1, 4)); // win 1 of 4: held
        assert!(!wlrg.record_win(1, 4)); // win 2
        assert!(!wlrg.record_win(1, 4)); // win 3
        assert!(wlrg.record_win(1, 4)); // win 4: demote
        assert_eq!(wlrg.credit(1), 0);
    }

    #[test]
    fn weight_resamples_after_credit_spent() {
        let mut wlrg = WlrgState::new(1);
        assert!(!wlrg.record_win(0, 2));
        assert!(wlrg.record_win(0, 2));
        // Requestor count dropped to 1: immediate demotion resumes.
        assert!(wlrg.record_win(0, 1));
    }

    #[test]
    #[should_panic(expected = "weight must be at least 1")]
    fn zero_weight_is_rejected() {
        let mut wlrg = WlrgState::new(1);
        let _ = wlrg.record_win(0, 0);
    }
}
