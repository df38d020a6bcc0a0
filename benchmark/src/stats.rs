//! Order statistics used for every reported number.

/// Median of `values` (mean of the two middle values for an even
/// count, as Python's `statistics.median`). `0.0` for no values.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive"), so
/// the spreads this benchmark reports match the ones computed from its
/// output. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n as i64 + 1;
    Some([1i64, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // Negative or >4 at the ends: Python extrapolates there too.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    }))
}

/// Nearest-rank percentile `p` (in percent) of `values`: the smallest
/// sample with at least `p`% of the samples at or below it. `0.0` for no
/// values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    match rank(sorted.len(), p) {
        Some(r) => sorted[r - 1],
        None => 0.0,
    }
}

/// The samples a tail percentile must have beyond it before it is
/// reported: with fewer, one outlier decides the number.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile `p` of `values`, or `None` when fewer than
/// [`TAIL_SUPPORT`] samples lie beyond it.
pub fn supported_percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    let r = rank(sorted.len(), p)?;
    (sorted.len() - r >= TAIL_SUPPORT).then(|| sorted[r - 1])
}

/// The highest of the usual tail percentiles that has
/// [`TAIL_SUPPORT`] samples beyond it, with its value.
pub fn highest_supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 98.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find_map(|p| supported_percentile(values, p).map(|v| (p, v)))
}

fn rank(n: usize, p: f64) -> Option<usize> {
    (n > 0).then(|| ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// FNV-1a 64-bit hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), Some([0.0, 3.0, 6.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 98.0), 98.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 9.0], 98.0), 9.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 leaves exactly 10 samples beyond; p95 only 5.
        assert_eq!(supported_percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(supported_percentile(&hundred, 95.0), None);
        assert_eq!(highest_supported_tail(&hundred), Some((90.0, 90.0)));
        let six_hundred: Vec<f64> = (1..=600).map(f64::from).collect();
        assert_eq!(supported_percentile(&six_hundred, 98.0), Some(588.0));
        assert_eq!(highest_supported_tail(&six_hundred), Some((98.0, 588.0)));
        assert_eq!(highest_supported_tail(&[1.0; 12]), None);
        assert_eq!(supported_percentile(&[], 50.0), None);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
