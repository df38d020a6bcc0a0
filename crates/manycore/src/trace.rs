//! Synthetic trace generation.
//!
//! Stands in for the paper's Pin-collected instruction traces: a core's
//! execution is a stream of CPU bursts separated by L1 misses, with the
//! burst length geometrically distributed around `1000 / l1_mpki`
//! instructions and each miss hashed to a uniform L2 bank. Whether a
//! miss also misses in the L2 is drawn from the benchmark's L2 miss
//! fraction. Streams are deterministic per (benchmark, seed).

use crate::profiles::BenchmarkProfile;
use hirise_core::rng::StdRng;
use hirise_core::rng::{Rng, SeedableRng};

/// One memory access in a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// Target L2 bank (tile index).
    pub bank: usize,
    /// Whether the access misses in the L2 and continues to memory.
    pub l2_miss: bool,
}

/// A deterministic synthetic trace for one core.
#[derive(Clone, Debug)]
pub struct SyntheticTrace {
    profile: BenchmarkProfile,
    banks: usize,
    rng: StdRng,
    /// `ln(1 - p)` for the per-instruction L1 miss probability `p`, or
    /// `None` for a benchmark that never misses.
    ln_no_miss: Option<f64>,
    /// The profile's L2 miss fraction.
    l2_miss_fraction: f64,
}

impl SyntheticTrace {
    /// Creates the trace for `profile` over `banks` L2 banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn new(profile: BenchmarkProfile, banks: usize, seed: u64) -> Self {
        assert!(banks > 0, "need at least one L2 bank");
        let l1 = profile.l1_mpki();
        Self {
            profile,
            banks,
            rng: StdRng::seed_from_u64(seed),
            ln_no_miss: (l1 > 1e-6).then(|| (1.0 - (l1 / 1000.0).min(1.0)).ln()),
            l2_miss_fraction: profile.l2_miss_fraction(),
        }
    }

    /// The benchmark this trace models.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// Instructions until the next L1 miss (geometric, mean
    /// `1000 / l1_mpki`; effectively infinite for benchmarks that
    /// never miss).
    pub fn next_gap(&mut self) -> u64 {
        let Some(ln_no_miss) = self.ln_no_miss else {
            return u64::MAX / 2; // compute-bound: next miss beyond any run
        };
        // Geometric sampling via inverse transform.
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        (u.ln() / ln_no_miss).ceil().max(1.0) as u64
    }

    /// The next miss's target bank and L2 outcome.
    pub fn next_access(&mut self) -> MemAccess {
        MemAccess {
            bank: self.rng.gen_range(0..self.banks),
            l2_miss: self.rng.gen_bool(self.l2_miss_fraction),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::benchmark_profile;

    #[test]
    fn gap_mean_tracks_mpki() {
        let mut trace = SyntheticTrace::new(benchmark_profile("mcf"), 64, 1);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| trace.next_gap()).sum();
        let mean = total as f64 / n as f64;
        let expected = 1000.0 / benchmark_profile("mcf").l1_mpki();
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean {mean}, expected {expected}"
        );
    }

    #[test]
    fn compute_bound_benchmark_rarely_misses() {
        let mut trace = SyntheticTrace::new(benchmark_profile("sjeng"), 64, 1);
        // sjeng at 0.03 MPKI: gaps are tens of thousands of instructions.
        assert!(trace.next_gap() > 1_000);
    }

    #[test]
    fn banks_are_covered_uniformly() {
        let mut trace = SyntheticTrace::new(benchmark_profile("tpcw"), 8, 2);
        let mut counts = [0usize; 8];
        for _ in 0..8_000 {
            counts[trace.next_access().bank] += 1;
        }
        for (bank, &c) in counts.iter().enumerate() {
            assert!((800..1200).contains(&c), "bank {bank}: {c}");
        }
    }

    #[test]
    fn l2_miss_rate_tracks_fraction() {
        let profile = benchmark_profile("milc");
        let mut trace = SyntheticTrace::new(profile, 64, 3);
        let misses = (0..10_000).filter(|_| trace.next_access().l2_miss).count();
        let rate = misses as f64 / 10_000.0;
        assert!(
            (rate - profile.l2_miss_fraction()).abs() < 0.02,
            "rate {rate}"
        );
    }

    #[test]
    fn same_seed_same_trace() {
        let p = benchmark_profile("sap");
        let mut a = SyntheticTrace::new(p, 64, 9);
        let mut b = SyntheticTrace::new(p, 64, 9);
        for _ in 0..100 {
            assert_eq!(a.next_gap(), b.next_gap());
            assert_eq!(a.next_access(), b.next_access());
        }
    }
}
