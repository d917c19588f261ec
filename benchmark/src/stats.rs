//! Order statistics over raw samples.
//!
//! Everything the benchmark reports is a median or a nearest-rank
//! percentile of samples it kept in full, so a reported time carries the
//! clock's own resolution instead of a histogram bucket's.

/// Index of the nearest-rank `p`-th percentile among `n` sorted samples:
/// the smallest sample with at least `p` percent of the samples at or
/// below it.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Nearest-rank percentile of unsorted nanosecond samples, reordering
/// them in place (selection, not a full sort). Empty input gives 0.
pub fn percentile_ns(samples: &mut [u32], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let k = rank(samples.len(), p);
    *samples.select_nth_unstable(k).1 as f64
}

/// Median of `values` (mean of the two middle samples for an even count),
/// sorting them in place. Empty input gives 0.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for empty input.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work
/// reports 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        // 1..=100 shuffled by a multiplicative step coprime to 100.
        let mut v: Vec<u32> = (0..100u32).map(|i| (i * 37) % 100 + 1).collect();
        assert_eq!(percentile_ns(&mut v, 50.0), 50.0);
        assert_eq!(percentile_ns(&mut v, 99.0), 99.0);
        assert_eq!(percentile_ns(&mut v, 99.9), 100.0);
        assert_eq!(percentile_ns(&mut v, 100.0), 100.0);
        assert_eq!(percentile_ns(&mut v, 0.0), 1.0);
        assert_eq!(percentile_ns(&mut [7], 99.0), 7.0);
        assert_eq!(percentile_ns(&mut [], 50.0), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
