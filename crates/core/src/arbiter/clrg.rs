//! Class-based Least Recently Granted (CLRG) counter state (§III-B4).
//!
//! Each inter-layer sub-block (one per final output) keeps a short
//! thermometer counter *per primary input* recording how often that input
//! has won this output. The counter value is the input's priority class —
//! class 0 (count 0) is the highest priority. Contenders are compared by
//! class first; LRG breaks ties within the winning class.
//!
//! To keep the counters short and to forgive bursts, whenever a counter
//! saturates all counters in the sub-block are divided by two, which
//! preserves the relative class ordering (the `Div2` block of Fig. 7).

/// The CLRG class counters of `count` sub-blocks over `n` primary
/// inputs each, in one array (`counters[m * n + input]`): the counter
/// kernel behind [`ClrgState`] and a Hi-Rise switch's per-output
/// sub-blocks.
#[derive(Clone, Debug)]
pub(crate) struct ClrgBank {
    counters: Vec<u8>,
    n: usize,
    max: u8,
    halve_on_saturation: bool,
}

impl ClrgBank {
    /// # Panics
    ///
    /// Panics if `classes < 2` (a single class degenerates to plain LRG).
    pub(crate) fn new(count: usize, n: usize, classes: u8) -> Self {
        assert!(classes >= 2, "CLRG needs at least 2 classes");
        Self {
            counters: vec![0; count * n],
            n,
            max: classes - 1,
            halve_on_saturation: true,
        }
    }

    #[inline]
    pub(crate) fn classes(&self) -> u8 {
        self.max + 1
    }

    /// Sub-block `m`'s counters, indexed by primary input.
    #[inline]
    pub(crate) fn counters(&self, m: usize) -> &[u8] {
        &self.counters[m * self.n..(m + 1) * self.n]
    }

    /// Records that `input` won sub-block `m`: its counter increments,
    /// after halving every counter of the sub-block if it was saturated.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub(crate) fn record_win(&mut self, m: usize, input: usize) {
        assert!(input < self.n, "input {input} out of range");
        let counters = &mut self.counters[m * self.n..(m + 1) * self.n];
        if counters[input] == self.max {
            if self.halve_on_saturation {
                for c in counters.iter_mut() {
                    *c /= 2;
                }
            } else {
                return; // stuck at the maximum class
            }
        }
        counters[input] += 1;
    }
}

/// Per-output CLRG class counters over `n` primary inputs.
///
/// The paper's hardware uses a 2-bit thermometer counter
/// (`{00, 01, 11}` = 3 classes); the class count is configurable here for
/// the tuning study the paper alludes to ("the number of classes required
/// is a heuristic that needs to be tuned").
#[derive(Clone, Debug)]
pub struct ClrgState {
    bank: ClrgBank,
}

impl ClrgState {
    /// Creates counters for `n` primary inputs with `classes` priority
    /// classes (counter values `0..classes`).
    ///
    /// # Panics
    ///
    /// Panics if `classes < 2` (a single class degenerates to plain LRG).
    pub fn new(n: usize, classes: u8) -> Self {
        Self {
            bank: ClrgBank::new(1, n, classes),
        }
    }

    /// Disables the divide-by-2 on saturation (counters stick at the
    /// maximum class instead). Ablation knob; the paper's design halves.
    pub fn without_halving(mut self) -> Self {
        self.bank.halve_on_saturation = false;
        self
    }

    /// Number of primary inputs tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.bank.n
    }

    /// Whether zero inputs are tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bank.n == 0
    }

    /// Number of priority classes.
    #[inline]
    pub fn classes(&self) -> u8 {
        self.bank.classes()
    }

    /// Priority class of `input` (0 is the highest priority).
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    #[inline]
    pub fn class_of(&self, input: usize) -> u8 {
        self.bank.counters(0)[input]
    }

    /// Records that `input` won this output: its counter increments,
    /// relegating it to a lower-priority class. If the counter is already
    /// saturated, every counter in the sub-block is first divided by two.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub fn record_win(&mut self, input: usize) {
        self.bank.record_win(0, input);
    }

    /// The lowest (best) class among `contenders`, or `None` if empty.
    pub fn best_class(&self, contenders: &[usize]) -> Option<u8> {
        contenders.iter().map(|&i| self.class_of(i)).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wins_demote_class() {
        let mut clrg = ClrgState::new(4, 3);
        assert_eq!(clrg.class_of(2), 0);
        clrg.record_win(2);
        assert_eq!(clrg.class_of(2), 1);
        clrg.record_win(2);
        assert_eq!(clrg.class_of(2), 2);
    }

    #[test]
    fn saturation_halves_all_counters() {
        let mut clrg = ClrgState::new(3, 3);
        clrg.record_win(0);
        clrg.record_win(0); // 0 at class 2 (saturated)
        clrg.record_win(1); // 1 at class 1
        clrg.record_win(0); // saturation: {2,1,0} -> {1,0,0}, then 0 -> 2
        assert_eq!(clrg.class_of(0), 2);
        assert_eq!(clrg.class_of(1), 0);
        assert_eq!(clrg.class_of(2), 0);
    }

    #[test]
    fn halving_preserves_relative_order() {
        let mut clrg = ClrgState::new(2, 4);
        for _ in 0..3 {
            clrg.record_win(0);
        }
        clrg.record_win(1);
        assert!(clrg.class_of(0) > clrg.class_of(1));
        clrg.record_win(0); // triggers halving
        assert!(clrg.class_of(0) > clrg.class_of(1));
    }

    #[test]
    fn without_halving_sticks_at_max() {
        let mut clrg = ClrgState::new(2, 2).without_halving();
        clrg.record_win(0);
        clrg.record_win(0);
        clrg.record_win(0);
        assert_eq!(clrg.class_of(0), 1);
        assert_eq!(clrg.class_of(1), 0);
    }

    #[test]
    fn best_class_finds_minimum() {
        let mut clrg = ClrgState::new(4, 3);
        clrg.record_win(0);
        clrg.record_win(1);
        clrg.record_win(1);
        assert_eq!(clrg.best_class(&[0, 1]), Some(1));
        assert_eq!(clrg.best_class(&[0, 1, 3]), Some(0));
        assert_eq!(clrg.best_class(&[]), None);
    }

    #[test]
    #[should_panic(expected = "at least 2 classes")]
    fn rejects_single_class() {
        let _ = ClrgState::new(4, 1);
    }
}
