//! Rotating round-robin arbiter.
//!
//! Not part of the paper's design — the Swizzle-Switch fabric uses LRG —
//! but provided as an ablation point (EXPERIMENTS.md) and because the
//! related-work discussion (§VII) contrasts CLRG with round-robin-based
//! allocators such as iSLIP. Like [`MatrixArbiter`](super::matrix::MatrixArbiter)
//! it separates `grant` from `update` so callers can apply the Hi-Rise
//! back-propagated update rule.

use crate::bits::BitSet;

/// The highest-priority requestor among `requests` for an `n`-way
/// round-robin pointer at `next`: the first set bit at or after `next`,
/// wrapping. The one grant rule behind [`RoundRobinArbiter`] and every
/// pointer bank.
fn grant_mask_at(next: usize, n: usize, requests: &BitSet) -> Option<usize> {
    assert_eq!(requests.capacity(), n, "request mask size mismatch");
    requests.iter().min_by_key(|&r| (r + n - next) % n)
}

/// As [`grant_mask_at`] over `W` raw request words. `W` must equal
/// `ceil(n / 64)` and bits at or beyond `n` must be zero
/// (debug-asserted).
#[inline]
fn grant_words_at<const W: usize>(next: usize, n: usize, requests: &[u64; W]) -> Option<usize> {
    if n == 0 {
        return None;
    }
    debug_assert_eq!(W, n.div_ceil(64), "word count mismatch");
    debug_assert!(
        n.is_multiple_of(64) || requests[W - 1] & !((1u64 << (n % 64)) - 1) == 0,
        "request bits beyond the arbiter size"
    );
    let start_word = next / 64;
    let start_bit = next % 64;
    // At or after the pointer, within the pointer's word…
    let high = requests[start_word] & (!0u64 << start_bit);
    if high != 0 {
        return Some(start_word * 64 + high.trailing_zeros() as usize);
    }
    // …then whole words after it…
    for (w, &word) in requests.iter().enumerate().skip(start_word + 1) {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
    }
    // …then wrap: whole words before the pointer's word, and finally
    // the bits below the pointer.
    for (w, &word) in requests.iter().enumerate().take(start_word) {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
    }
    let low = requests[start_word] & !(!0u64 << start_bit);
    if low != 0 {
        return Some(start_word * 64 + low.trailing_zeros() as usize);
    }
    None
}

/// The pointer after `winner` was granted: it becomes the lowest
/// priority next cycle.
fn pointer_after(n: usize, winner: usize) -> usize {
    assert!(winner < n, "winner {winner} out of range");
    (winner + 1) % n
}

/// The rotating pointers of `count` independent `n`-way round-robin
/// arbiters in one array (a Hi-Rise switch's round-robin local columns).
#[derive(Clone, Debug)]
pub(crate) struct RoundRobinBank {
    next: Vec<u32>,
    n: usize,
}

impl RoundRobinBank {
    pub(crate) fn new(count: usize, n: usize) -> Self {
        Self {
            next: vec![0; count],
            n,
        }
    }

    pub(crate) fn grant_mask(&self, m: usize, requests: &BitSet) -> Option<usize> {
        grant_mask_at(self.next[m] as usize, self.n, requests)
    }

    #[inline]
    pub(crate) fn grant_words<const W: usize>(
        &self,
        m: usize,
        requests: &[u64; W],
    ) -> Option<usize> {
        grant_words_at::<W>(self.next[m] as usize, self.n, requests)
    }

    #[inline]
    pub(crate) fn update(&mut self, m: usize, winner: usize) {
        self.next[m] = pointer_after(self.n, winner) as u32;
    }
}

/// An `n`-way round-robin arbiter with a rotating highest-priority pointer.
#[derive(Clone, Debug)]
pub struct RoundRobinArbiter {
    next: usize,
    n: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `n` requestors, with requestor 0 initially
    /// at the highest priority.
    pub fn new(n: usize) -> Self {
        Self { next: 0, n }
    }

    /// Number of requestors.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the arbiter has zero requestors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Picks the first requestor at or after the rotating pointer.
    /// Returns `None` when `requests` is empty.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn grant(&self, requests: &[usize]) -> Option<usize> {
        if requests.is_empty() || self.n == 0 {
            return None;
        }
        requests
            .iter()
            .inspect(|&&r| assert!(r < self.n, "requestor {r} out of range"))
            .copied()
            .min_by_key(|&r| (r + self.n - self.next) % self.n)
    }

    /// As [`grant`](Self::grant), but taking a pre-built request mask —
    /// the allocation-free hot path, mirroring
    /// [`MatrixArbiter::grant_mask`](super::matrix::MatrixArbiter::grant_mask).
    ///
    /// # Panics
    ///
    /// Panics if the mask capacity differs from the arbiter size.
    pub fn grant_mask(&self, requests: &BitSet) -> Option<usize> {
        grant_mask_at(self.next, self.n, requests)
    }

    /// As [`grant_mask`](Self::grant_mask), but taking the request set as
    /// raw words (`requests[w]` holds requestors `64w..64w+63`) — the
    /// word-parallel kernel entry point. `W` must equal `ceil(n / 64)`
    /// and bits at or beyond `n` must be zero (debug-asserted). Picks
    /// the first set bit at or after the rotating pointer, wrapping,
    /// which is exactly the `grant_mask` minimum-distance winner.
    #[inline]
    pub fn grant_words<const W: usize>(&self, requests: &[u64; W]) -> Option<usize> {
        grant_words_at::<W>(self.next, self.n, requests)
    }

    /// The requestor currently at the highest priority (the rotating
    /// pointer). Exposed so schedulers built on top — iSLIP keeps one
    /// grant pointer per output and one accept pointer per input — can
    /// be audited for the pointer-update-only-on-accept discipline.
    #[inline]
    pub fn pointer(&self) -> usize {
        self.next
    }

    /// Rotates the pointer past `winner` so it becomes the lowest
    /// priority next cycle.
    ///
    /// # Panics
    ///
    /// Panics if `winner` is out of range.
    pub fn update(&mut self, winner: usize) {
        self.next = pointer_after(self.n, winner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotates_through_requestors() {
        let mut arb = RoundRobinArbiter::new(4);
        let mut seq = Vec::new();
        for _ in 0..8 {
            let w = arb.grant(&[0, 1, 2, 3]).unwrap();
            arb.update(w);
            seq.push(w);
        }
        assert_eq!(seq, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn skips_non_requestors() {
        let mut arb = RoundRobinArbiter::new(4);
        arb.update(0); // pointer at 1
        assert_eq!(arb.grant(&[0, 3]), Some(3));
    }

    #[test]
    fn empty_requests_grant_nothing() {
        let arb = RoundRobinArbiter::new(4);
        assert_eq!(arb.grant(&[]), None);
    }

    #[test]
    fn grant_without_update_is_stable() {
        let arb = RoundRobinArbiter::new(4);
        assert_eq!(arb.grant(&[2, 3]), Some(2));
        assert_eq!(arb.grant(&[2, 3]), Some(2));
    }

    #[test]
    fn grant_mask_matches_grant() {
        let mut arb = RoundRobinArbiter::new(5);
        for rotate in 0..5 {
            let requests = [0usize, 2, 4];
            let mut mask = BitSet::new(5);
            for &r in &requests {
                mask.insert(r);
            }
            assert_eq!(arb.grant_mask(&mask), arb.grant(&requests), "{rotate}");
            arb.update(rotate);
        }
        assert_eq!(arb.grant_mask(&BitSet::new(5)), None);
    }

    /// Property test at radices straddling the word boundary: random
    /// request sets and random pointer rotations, with `grant_words`
    /// checked against `grant_mask` at every step.
    #[test]
    fn grant_words_matches_grant_mask_across_awkward_radices() {
        use crate::rng::{Rng, SeedableRng, StdRng};

        fn check<const W: usize>(n: usize, seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut arb = RoundRobinArbiter::new(n);
            for step in 0..500 {
                let mut words = [0u64; W];
                let mut mask = BitSet::new(n);
                for _ in 0..rng.gen_range(0..n + 1) {
                    let r = rng.gen_range(0..n);
                    words[r / 64] |= 1 << (r % 64);
                    mask.insert(r);
                }
                let expected = arb.grant_mask(&mask);
                assert_eq!(
                    arb.grant_words::<W>(&words),
                    expected,
                    "n={n} step={step} next={}",
                    arb.next
                );
                if let Some(winner) = expected {
                    arb.update(winner);
                }
            }
        }

        for (n, seed) in [(13, 1u64), (16, 2), (17, 3), (33, 4), (63, 5), (64, 6)] {
            check::<1>(n, 0x2B2B_7000 + seed);
        }
        for (n, seed) in [(65, 7u64), (128, 8)] {
            check::<2>(n, 0x2B2B_7000 + seed);
        }
    }
}
