//! Percentile summaries.
//!
//! Figure 1 of the paper reports per-workload throughput as CDF percentile
//! bars (5th/25th/50th/75th/90th over five runs); [`PercentileSummary`]
//! produces exactly those rows.

use serde::{Deserialize, Serialize};

/// The CDF observation points reported in Figure 1.
pub const FIG1_PERCENTILES: [f64; 5] = [5.0, 25.0, 50.0, 75.0, 90.0];

/// Percentile summary over a stored sample set.
///
/// Samples are retained (experiments keep at most a few thousand per series)
/// and sorted on demand; `percentile` uses nearest-rank interpolation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PercentileSummary {
    samples: Vec<f64>,
}

impl PercentileSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        PercentileSummary { samples: Vec::new() }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The `p`-th percentile (`0 ≤ p ≤ 100`) by linear interpolation between
    /// closest ranks. Returns `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }

    /// Sample mean. Returns `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// The five Figure-1 percentiles, in ascending order.
    pub fn fig1_bars(&self) -> Option<[f64; 5]> {
        let mut out = [0.0; 5];
        for (slot, p) in out.iter_mut().zip(FIG1_PERCENTILES) {
            *slot = self.percentile(p)?;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let mut s = PercentileSummary::new();
        for x in [10.0, 20.0, 30.0, 40.0] {
            s.push(x);
        }
        assert_eq!(s.percentile(0.0), Some(10.0));
        assert_eq!(s.percentile(100.0), Some(40.0));
        assert_eq!(s.percentile(50.0), Some(25.0));
    }

    #[test]
    fn fig1_bars_are_monotone() {
        let mut s = PercentileSummary::new();
        for i in 0..100 {
            s.push(i as f64);
        }
        let bars = s.fig1_bars().unwrap();
        for w in bars.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn empty_summary_returns_none() {
        let s = PercentileSummary::new();
        assert_eq!(s.percentile(50.0), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.fig1_bars(), None);
    }
}
