//! Least Recently Granted (LRG) matrix arbiter.
//!
//! Models the priority vectors stored in Swizzle-Switch cross-points
//! (§II-A): a matrix `p` where `p[i][j]` means requestor `i` currently
//! outranks requestor `j`. Granting is purely combinational (single
//! cycle); updating moves the winner to the lowest priority, which yields
//! least-recently-granted order.
//!
//! `grant` and `update` are deliberately separate operations: the Hi-Rise
//! local switch computes a phase-1 winner every cycle but only commits the
//! priority update when that winner also wins the inter-layer arbitration
//! (the back-propagated update of §III-B1 that prevents starvation).
//!
//! The matrix an LRG update maintains is always a total order, so the
//! simulator stores it as what it encodes: one rank per requestor, 0
//! the highest. Row `i` of the matrix is the set of requestors ranked
//! below `i`, so a grant (the requestor no other requestor outranks) is
//! the lowest-ranked requestor, and an update (winner below everybody,
//! the rest in their order) gives the winner the last rank and moves up
//! everyone it outranked. Every LRG in the crate runs one rank kernel,
//! `LrgBank`: a switch keeps all of its arbiters of one size as rows of
//! one rank array, and the standalone [`MatrixArbiter`] is a bank of
//! one.

use crate::bits::BitSet;

/// A bank of equal-size LRG arbiters stored as rows of one rank array:
/// the kernel every LRG arbiter in the crate runs on.
///
/// Arbiter `m` of an `n`-way bank occupies `ranks[m * n..(m + 1) * n]`;
/// entry `i` is requestor `i`'s rank, and the ranks of one arbiter are
/// a permutation of `0..n`. A switch keeps each of its arbiter banks
/// (Hi-Rise's local-switch columns and per-output sub-blocks, a 2D
/// switch's output columns) in one bank, so an arbitration touches a
/// few adjacent cache lines instead of one heap allocation per arbiter,
/// and an `n`-way arbiter fills `2n` bytes instead of the matrix's
/// `n²` bits. [`MatrixArbiter`] is a bank of one.
#[derive(Clone, Debug)]
pub(crate) struct LrgBank {
    ranks: Vec<u16>,
    /// Requestors per arbiter.
    n: usize,
}

impl LrgBank {
    /// `count` arbiters over `n` requestors, each in the default order
    /// (lower indices outrank higher ones).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the `u16` rank range.
    pub(crate) fn new(count: usize, n: usize) -> Self {
        assert!(
            n <= usize::from(u16::MAX) + 1,
            "{n} requestors exceed the rank range"
        );
        let default: Vec<u16> = (0..n).map(|i| i as u16).collect();
        Self {
            ranks: default.repeat(count),
            n,
        }
    }

    /// The ranks of arbiter `m`.
    #[inline]
    fn block(&self, m: usize) -> &[u16] {
        &self.ranks[m * self.n..(m + 1) * self.n]
    }

    /// Replaces arbiter `m`'s priority order, `order[0]` highest.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..n`.
    pub(crate) fn seed(&mut self, m: usize, order: &[usize]) {
        let n = self.n;
        assert_eq!(order.len(), n, "order must be a permutation of 0..n");
        let mut seen = vec![false; n];
        for &r in order {
            assert!(r < n && !seen[r], "order must be a permutation of 0..n");
            seen[r] = true;
        }
        let block = &mut self.ranks[m * n..(m + 1) * n];
        for (rank, &requestor) in order.iter().enumerate() {
            block[requestor] = rank as u16;
        }
    }

    /// Whether requestor `a` outranks `b` in arbiter `m`.
    #[inline]
    pub(crate) fn outranks(&self, m: usize, a: usize, b: usize) -> bool {
        let block = self.block(m);
        block[a] < block[b]
    }

    /// Arbiter `m`'s highest-priority requestor among `requests`, or
    /// `None` for an empty set. State is not changed.
    ///
    /// # Panics
    ///
    /// Panics if the mask capacity differs from the arbiter size.
    pub(crate) fn grant_mask(&self, m: usize, requests: &BitSet) -> Option<usize> {
        assert_eq!(requests.capacity(), self.n, "request mask size mismatch");
        let block = self.block(m);
        requests.iter().min_by_key(|&candidate| block[candidate])
    }

    /// As [`grant_mask`](Self::grant_mask) over `W` raw request words
    /// (`requests[v]` holds requestors `64v..64v+63`). `W` must equal
    /// `ceil(n / 64)` and bits at or beyond `n` must be zero (both
    /// debug-asserted). Ranks are distinct, so the winner is the one
    /// `grant_mask` picks on the same set.
    #[inline]
    pub(crate) fn grant_words<const W: usize>(
        &self,
        m: usize,
        requests: &[u64; W],
    ) -> Option<usize> {
        debug_assert_eq!(W, self.n.div_ceil(64), "word count mismatch");
        debug_assert!(
            self.n.is_multiple_of(64) || requests[W - 1] & !((1u64 << (self.n % 64)) - 1) == 0,
            "request bits beyond the arbiter size"
        );
        let block = self.block(m);
        let mut best: Option<usize> = None;
        let mut best_rank = u32::MAX;
        for (word, &bits) in requests.iter().enumerate() {
            let mut rest = bits;
            while rest != 0 {
                let candidate = word * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let rank = u32::from(block[candidate]);
                if rank < best_rank {
                    best_rank = rank;
                    best = Some(candidate);
                }
            }
        }
        best
    }

    /// Commits an LRG update in arbiter `m`: `winner` drops to the
    /// lowest priority and every requestor it outranked moves up one
    /// rank, so the others keep their order.
    ///
    /// # Panics
    ///
    /// Panics if `winner` is out of range.
    #[inline]
    pub(crate) fn update(&mut self, m: usize, winner: usize) {
        assert!(winner < self.n, "winner {winner} out of range");
        let n = self.n;
        let block = &mut self.ranks[m * n..(m + 1) * n];
        let won = block[winner];
        // A branch-free sweep the compiler vectorizes: a Hi-Rise grant
        // runs it twice (local column + sub-block), so it is hot.
        for rank in block.iter_mut() {
            *rank -= u16::from(*rank > won);
        }
        block[winner] = (n - 1) as u16;
    }

    /// Arbiter `m`'s priority order, highest first. For tests and
    /// debugging.
    pub(crate) fn priority_order(&self, m: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.n).collect();
        order.sort_by_key(|&i| self.block(m)[i]);
        order
    }

    /// Arbiter `m` copied out as a standalone arbiter (the circuit-model
    /// cross-check reads one).
    pub(crate) fn matrix(&self, m: usize) -> MatrixArbiter {
        MatrixArbiter {
            bank: Self {
                ranks: self.block(m).to_vec(),
                n: self.n,
            },
        }
    }
}

/// An `n`-way LRG matrix arbiter.
///
/// The priority relation is kept antisymmetric and total: for any two
/// distinct requestors exactly one outranks the other, so every non-empty
/// request set has exactly one winner.
///
/// The arbiter is a one-arbiter `LrgBank`, the rank kernel every switch
/// arbitrates with: it holds the matrix as one rank per requestor, so
/// `grant` reads one rank per requestor and `update` is a linear sweep
/// the compiler can vectorize.
#[derive(Clone, Debug)]
pub struct MatrixArbiter {
    bank: LrgBank,
}

impl MatrixArbiter {
    /// Creates an arbiter over `n` requestors with the default initial
    /// order: lower indices outrank higher ones.
    pub fn new(n: usize) -> Self {
        Self {
            bank: LrgBank::new(1, n),
        }
    }

    /// Creates an arbiter with an explicit initial priority order,
    /// `order[0]` being the highest-priority requestor.
    ///
    /// This exists so tests can reproduce the paper's worked examples
    /// (Figs. 4 and 5), which start from particular LRG states.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn with_order(order: &[usize]) -> Self {
        let mut arbiter = Self::new(order.len());
        arbiter.bank.seed(0, order);
        arbiter
    }

    /// Every requestor's rank, 0 highest.
    #[cfg(test)]
    fn ranks(&self) -> &[u16] {
        self.bank.block(0)
    }

    /// Number of requestors.
    #[inline]
    pub fn len(&self) -> usize {
        self.bank.n
    }

    /// Whether the arbiter has zero requestors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bank.n == 0
    }

    /// Returns whether requestor `a` currently outranks requestor `b`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or `a == b`.
    pub fn outranks(&self, a: usize, b: usize) -> bool {
        assert!(a != b, "a requestor does not outrank itself");
        assert!(a < self.len() && b < self.len(), "requestor out of range");
        self.bank.outranks(0, a, b)
    }

    /// Picks the highest-priority requestor among `requests`, without
    /// changing any state. Returns `None` when `requests` is empty.
    ///
    /// Duplicates in `requests` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn grant(&self, requests: &[usize]) -> Option<usize> {
        let mut mask = BitSet::new(self.len());
        for &r in requests {
            assert!(r < self.len(), "requestor {r} out of range");
            mask.insert(r);
        }
        self.grant_mask(&mask)
    }

    /// As [`grant`](Self::grant), but taking a pre-built request mask.
    ///
    /// # Panics
    ///
    /// Panics if the mask capacity differs from the arbiter size.
    pub fn grant_mask(&self, requests: &BitSet) -> Option<usize> {
        self.bank.grant_mask(0, requests)
    }

    /// As [`grant_mask`](Self::grant_mask), but taking the request set as
    /// raw words (`requests[w]` holds requestors `64w..64w+63`) — the
    /// word-parallel kernel entry point. `W` must equal the arbiter's
    /// word count (`ceil(n / 64)`), and bits at or beyond `n` must be
    /// zero; both are debug-asserted. The result is identical to
    /// `grant_mask` on the same set.
    #[inline]
    pub fn grant_words<const W: usize>(&self, requests: &[u64; W]) -> Option<usize> {
        self.bank.grant_words::<W>(0, requests)
    }

    /// Commits an LRG update: `winner` drops to the lowest priority and
    /// every other requestor gains priority over it.
    ///
    /// # Panics
    ///
    /// Panics if `winner` is out of range.
    #[inline]
    pub fn update(&mut self, winner: usize) {
        self.bank.update(0, winner);
    }

    /// Current priority order, highest first. Intended for tests and
    /// debugging; it sorts the ranks.
    pub fn priority_order(&self) -> Vec<usize> {
        self.bank.priority_order(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_order_prefers_low_indices() {
        let arb = MatrixArbiter::new(4);
        assert_eq!(arb.grant(&[2, 1, 3]), Some(1));
        assert_eq!(arb.grant(&[0, 1, 2, 3]), Some(0));
    }

    #[test]
    fn update_moves_winner_to_back() {
        let mut arb = MatrixArbiter::new(3);
        assert_eq!(arb.grant(&[0, 1, 2]), Some(0));
        arb.update(0);
        assert_eq!(arb.grant(&[0, 1, 2]), Some(1));
        arb.update(1);
        assert_eq!(arb.grant(&[0, 1, 2]), Some(2));
        arb.update(2);
        // Back to the original order: least recently granted first.
        assert_eq!(arb.grant(&[0, 1, 2]), Some(0));
    }

    #[test]
    fn grant_without_update_is_stable() {
        let arb = MatrixArbiter::new(5);
        for _ in 0..3 {
            assert_eq!(arb.grant(&[4, 3]), Some(3));
        }
    }

    #[test]
    fn with_order_seeds_exact_priorities() {
        // The paper's Fig. 4 initial state on L1: 15 > 11 > 7 > 3 (we use a
        // 4-entry arbiter with that relative order).
        let arb = MatrixArbiter::with_order(&[3, 2, 1, 0]);
        assert_eq!(arb.grant(&[0, 1, 2, 3]), Some(3));
        assert_eq!(arb.priority_order(), vec![3, 2, 1, 0]);
    }

    #[test]
    fn empty_requests_grant_nothing() {
        let arb = MatrixArbiter::new(4);
        assert_eq!(arb.grant(&[]), None);
    }

    #[test]
    fn single_requestor_always_wins() {
        let mut arb = MatrixArbiter::new(8);
        arb.update(5);
        assert_eq!(arb.grant(&[5]), Some(5));
    }

    #[test]
    fn lrg_order_emerges_from_grants() {
        // Repeatedly granting all requestors cycles through them.
        let mut arb = MatrixArbiter::new(4);
        let mut sequence = Vec::new();
        for _ in 0..8 {
            let w = arb.grant(&[0, 1, 2, 3]).unwrap();
            arb.update(w);
            sequence.push(w);
        }
        assert_eq!(sequence, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn duplicate_requests_are_ignored() {
        let arb = MatrixArbiter::new(4);
        assert_eq!(arb.grant(&[2, 2, 3, 3]), Some(2));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn with_order_rejects_duplicates() {
        let _ = MatrixArbiter::with_order(&[0, 0, 1]);
    }

    /// Property test at radices straddling the word boundary (17, 33,
    /// 63, 65 plus exact-word sizes): random request sets and random
    /// LRG updates, with `grant_words` checked against `grant_mask`
    /// every step and the ranks a permutation of `0..n` throughout.
    #[test]
    fn grant_words_matches_grant_mask_across_awkward_radices() {
        use crate::rng::{Rng, SeedableRng, StdRng};

        fn check<const W: usize>(n: usize, seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut arb = MatrixArbiter::new(n);
            for step in 0..500 {
                let mut words = [0u64; W];
                let mut mask = BitSet::new(n);
                // Mix sparse and dense request sets.
                let requestors = if step % 3 == 0 { n } else { n / 4 + 1 };
                for _ in 0..rng.gen_range(0..requestors + 1) {
                    let r = rng.gen_range(0..n);
                    words[r / 64] |= 1 << (r % 64);
                    mask.insert(r);
                }
                let expected = arb.grant_mask(&mask);
                assert_eq!(arb.grant_words::<W>(&words), expected, "n={n} step={step}");
                if let Some(winner) = expected {
                    arb.update(winner);
                }
                // The ranks stay a total order: a permutation of 0..n.
                let mut ranks = arb.ranks().to_vec();
                ranks.sort_unstable();
                assert!(
                    ranks.iter().enumerate().all(|(i, &r)| usize::from(r) == i),
                    "ranks are not a permutation at n={n} step={step}"
                );
            }
        }

        for (n, seed) in [(13, 1u64), (16, 2), (17, 3), (33, 4), (63, 5), (64, 6)] {
            check::<1>(n, 0xA5B1_7000 + seed);
        }
        for (n, seed) in [(65, 7u64), (128, 8)] {
            check::<2>(n, 0xA5B1_7000 + seed);
        }
    }

    #[test]
    fn antisymmetry_is_preserved_by_updates() {
        let mut arb = MatrixArbiter::new(6);
        for winner in [3, 1, 4, 1, 5, 0, 2] {
            arb.update(winner);
            for a in 0..6 {
                for b in 0..6 {
                    if a != b {
                        assert_ne!(
                            arb.outranks(a, b),
                            arb.outranks(b, a),
                            "antisymmetry violated for ({a},{b})"
                        );
                    }
                }
            }
        }
    }
}
