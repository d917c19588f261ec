//! Per-server queueing latency: service-time costing of real storage work
//! and a deterministic response-time distribution per server.
//!
//! Two halves, both closed-form (no sampling), so results are bit-identical
//! from run to run:
//!
//! * [`op_service_ms`] prices one executed [`hstore`] operation from the
//!   work it actually did ([`OpStats`]): a memstore insert costs CPU only,
//!   a cache hit costs a block decode, a disk block read costs a seek plus
//!   the transfer, and background compaction IO inflates the disk part —
//!   the service-time inputs the queueing model consumes.
//! * [`LatencyMixture`] models a server's response-time distribution as a
//!   mixture of exponential components, one per (partition, op class,
//!   hit/miss) stream: component weight is the stream's request rate,
//!   component mean is its queue-inflated response time from the
//!   equilibrium solver. Waiting time enters through those means — they
//!   already carry the `1/(1-rho)` inflation — so the mixture's tail grows
//!   super-linearly as utilization approaches saturation, producing the
//!   hockey-stick p99 the `exp-latency` bench sweeps. Quantiles come from
//!   bisection on the mixture CDF (no sampling, no RNG).

use crate::model::{queue_inflation, CostParams};
use hstore::{OpStats, StoreConfig};

/// Digest of a latency distribution, all in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Mean response time.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile — the SLO signal `core::decision` gates on.
    pub p99_ms: f64,
}

/// A mixture of exponential response-time components.
///
/// Each component is a request stream: `weight` requests per second whose
/// response times are exponentially distributed with the given mean. The
/// exponential is the M/M/1 sojourn-time shape, so a component whose mean
/// is already queue-inflated contributes the correct heavy tail.
#[derive(Debug, Clone, Default)]
pub struct LatencyMixture {
    components: Vec<(f64, f64)>, // (weight rps, mean ms)
}

impl LatencyMixture {
    /// An empty mixture (no traffic).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a component; zero or negative weights/means are ignored.
    pub fn push(&mut self, weight_rps: f64, mean_ms: f64) {
        if weight_rps > 0.0 && mean_ms > 0.0 && weight_rps.is_finite() && mean_ms.is_finite() {
            self.components.push((weight_rps, mean_ms));
        }
    }

    /// Total request rate across components.
    pub fn total_weight(&self) -> f64 {
        self.components.iter().map(|(w, _)| w).sum()
    }

    /// Weighted mean response time.
    pub fn mean_ms(&self) -> f64 {
        let w = self.total_weight();
        if w <= 0.0 {
            return 0.0;
        }
        self.components.iter().map(|(wi, mi)| wi * mi).sum::<f64>() / w
    }

    /// Empties the mixture, keeping its allocation for the next tick.
    pub fn clear(&mut self) {
        self.components.clear();
    }

    /// `P(T ≤ t)` for a mixture of total weight `w > 0`.
    fn cdf(&self, w: f64, t_ms: f64) -> f64 {
        self.components.iter().map(|(wi, mi)| wi * (1.0 - (-t_ms / mi).exp())).sum::<f64>() / w
    }

    /// The `q`-quantile (e.g. `0.99`) by bisection on the CDF.
    ///
    /// Deterministic: pure float math over the components in insertion
    /// order, a doubling search for an upper bracket, then bisection until
    /// the bracket collapses to adjacent doubles (at most 64 halvings).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.components.is_empty() {
            return 0.0;
        }
        // Components have positive weights, so the total is positive.
        let w = self.total_weight();
        let q = q.clamp(0.0, 0.999_999);
        // Bracket: the slowest component bounds how far the tail can reach;
        // double until the CDF crosses q (terminates: cdf → 1).
        let max_mean = self.components.iter().map(|(_, m)| *m).fold(0.0, f64::max);
        let mut hi = (max_mean * -(1.0 - q).ln()).max(1e-9);
        let mut bracketed = false;
        for _ in 0..64 {
            if self.cdf(w, hi) >= q {
                bracketed = true;
                break;
            }
            hi *= 2.0;
        }
        let mut lo = 0.0;
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            // Once the midpoint rounds onto an end of a bracket with
            // cdf(lo) < q <= cdf(hi), every further halving re-takes the
            // same branch and moves nothing: the remaining steps are a
            // fixed point, so stopping here returns the same bits.
            if bracketed && (mid == lo || mid == hi) {
                break;
            }
            if self.cdf(w, mid) < q {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Mean plus the standard quantiles.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            mean_ms: self.mean_ms(),
            p50_ms: self.quantile_ms(0.50),
            p95_ms: self.quantile_ms(0.95),
            p99_ms: self.quantile_ms(0.99),
        }
    }
}

/// Service time of one executed storage operation, priced from the work
/// [`OpStats`] says it did.
///
/// * memstore insert / memstore-served read: CPU only;
/// * each cached block touched: one block decode ([`CostParams::cache_hit_block_ms`]);
/// * each disk block read: one seek plus the block transfer, inflated by
///   background compaction IO sharing the disk (`background_mb_s`).
pub fn op_service_ms(
    params: &CostParams,
    config: &StoreConfig,
    stats: &OpStats,
    background_mb_s: f64,
) -> f64 {
    let cpu_ms = if stats.memstore && stats.blocks_touched() == 0 {
        // Pure memstore op (a put, or a read answered by the write buffer).
        params.cpu_write_ms
    } else {
        params.cpu_read_ms
    };
    let hit_ms = stats.cache_hits as f64 * params.cache_hit_block_ms;
    let block_mb = config.block_size as f64 / 1e6;
    let block_io_ms = params.disk_seek_ms + block_mb / params.disk_bw_mb_s * 1_000.0;
    // Compaction interference: the background stream occupies the disk,
    // queueing this op's reads behind it.
    let rho_bg = background_mb_s / params.disk_bw_mb_s / params.disk_parallelism;
    let disk_ms = stats.blocks_read as f64 * block_io_ms * queue_inflation(params, rho_bg);
    cpu_ms + hit_ms + disk_ms
}

/// Coarse Table-1 profile label for a storage configuration, used to key
/// per-profile latency histograms. Mirrors the paper's profiles: a big
/// block cache marks a read node, a big memstore a write node, large
/// blocks a scan node.
pub fn profile_label(config: &StoreConfig) -> &'static str {
    if config.memstore_fraction >= 0.40 {
        "write"
    } else if config.block_cache_fraction >= 0.40 {
        if config.block_size >= 64 * 1024 {
            "scan"
        } else {
            "read"
        }
    } else {
        "balanced"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(mean: f64) -> LatencyMixture {
        let mut m = LatencyMixture::new();
        m.push(100.0, mean);
        m
    }

    /// The quantile search as it was before the weight was hoisted and the
    /// bisection learned to stop: `total_weight()` re-summed on every CDF
    /// evaluation, all 64 halvings run. Kept as the reference the
    /// production search is held to bit for bit.
    fn quantile_ms_oracle(m: &LatencyMixture, q: f64) -> f64 {
        let cdf = |t_ms: f64| {
            let w = m.total_weight();
            if w <= 0.0 {
                return 1.0;
            }
            m.components.iter().map(|(wi, mi)| wi * (1.0 - (-t_ms / mi).exp())).sum::<f64>() / w
        };
        if m.components.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 0.999_999);
        let max_mean = m.components.iter().map(|(_, m)| *m).fold(0.0, f64::max);
        let mut hi = (max_mean * -(1.0 - q).ln()).max(1e-9);
        for _ in 0..64 {
            if cdf(hi) >= q {
                break;
            }
            hi *= 2.0;
        }
        let mut lo = 0.0;
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if cdf(mid) < q {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// Random mixtures, weights and means each spread over nine
        /// decades: the early-exit search returns the oracle's bits at
        /// every quantile anybody asks for (and at the clamp).
        #[test]
        fn quantile_search_matches_the_64_step_oracle(
            comps in proptest::collection::vec((-3.0f64..6.0, -3.0f64..6.0), 1..41),
        ) {
            let mut m = LatencyMixture::new();
            for (w_exp, m_exp) in comps {
                m.push(10f64.powf(w_exp), 10f64.powf(m_exp));
            }
            for q in [0.0, 0.5, 0.95, 0.99, 0.999_999, 1.0] {
                proptest::prop_assert_eq!(
                    m.quantile_ms(q).to_bits(),
                    quantile_ms_oracle(&m, q).to_bits(),
                    "q = {}", q
                );
            }
        }
    }

    #[test]
    fn cleared_mixture_is_empty_again() {
        let mut m = single(10.0);
        m.clear();
        assert_eq!(m.summary(), LatencySummary::default());
    }

    #[test]
    fn exponential_quantiles_match_closed_form() {
        let m = single(10.0);
        // Exponential q-quantile = mean × -ln(1-q).
        for (q, expect) in [(0.5, 10.0 * 2f64.ln()), (0.99, 10.0 * 100f64.ln())] {
            let got = m.quantile_ms(q);
            assert!((got - expect).abs() / expect < 1e-6, "q{q}: {got} vs {expect}");
        }
    }

    #[test]
    fn empty_mixture_is_all_zero() {
        let s = LatencyMixture::new().summary();
        assert_eq!(s, LatencySummary::default());
    }

    #[test]
    fn slow_minority_dominates_the_tail_not_the_median() {
        let mut m = LatencyMixture::new();
        m.push(95.0, 1.0); // cache hits
        m.push(5.0, 50.0); // disk misses
        let s = m.summary();
        assert!(s.p50_ms < 2.0, "median should look like a hit: {}", s.p50_ms);
        // The 5 % slow stream owns the tail: P(T>t) ≈ 0.05·exp(-t/50), so
        // p99 = 50·ln 5 ≈ 80 ms — far beyond the 1 ms hit component.
        assert!(s.p99_ms > 50.0, "p99 should look like a queued miss: {}", s.p99_ms);
        assert!(s.p95_ms > s.p50_ms && s.p99_ms > s.p95_ms);
    }

    #[test]
    fn quantiles_are_deterministic() {
        let mk = || {
            let mut m = LatencyMixture::new();
            for i in 1..40 {
                m.push(i as f64, 0.37 * i as f64);
            }
            m.summary()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn service_cost_orders_memstore_hit_miss() {
        let p = CostParams::default();
        let cfg = StoreConfig::default_homogeneous();
        let memstore = OpStats { cache_hits: 0, blocks_read: 0, memstore: true };
        let hit = OpStats { cache_hits: 1, blocks_read: 0, memstore: false };
        let miss = OpStats { cache_hits: 0, blocks_read: 1, memstore: false };
        let c_mem = op_service_ms(&p, &cfg, &memstore, 0.0);
        let c_hit = op_service_ms(&p, &cfg, &hit, 0.0);
        let c_miss = op_service_ms(&p, &cfg, &miss, 0.0);
        assert!(c_hit < c_miss, "hit {c_hit} must undercut miss {c_miss}");
        assert!(c_mem < c_miss, "memstore {c_mem} must undercut miss {c_miss}");
        // A scan that spans more blocks costs proportionally more disk.
        let scan3 = OpStats { cache_hits: 0, blocks_read: 3, memstore: false };
        assert!(op_service_ms(&p, &cfg, &scan3, 0.0) > 2.5 * (c_miss - p.cpu_read_ms));
    }

    #[test]
    fn compaction_interference_inflates_disk_reads() {
        let p = CostParams::default();
        let cfg = StoreConfig::default_homogeneous();
        let miss = OpStats { cache_hits: 0, blocks_read: 2, memstore: false };
        let quiet = op_service_ms(&p, &cfg, &miss, 0.0);
        let busy = op_service_ms(&p, &cfg, &miss, p.compact_mb_s);
        assert!(busy > quiet, "compaction must slow disk reads: {busy} vs {quiet}");
        // CPU-only work is untouched by disk interference.
        let mem = OpStats { cache_hits: 0, blocks_read: 0, memstore: true };
        assert_eq!(op_service_ms(&p, &cfg, &mem, 0.0), op_service_ms(&p, &cfg, &mem, 50.0));
    }

    #[test]
    fn profile_labels_follow_table1_shapes() {
        let mut cfg = StoreConfig::default_homogeneous();
        cfg.block_cache_fraction = 0.55;
        cfg.memstore_fraction = 0.10;
        cfg.block_size = 32 * 1024;
        assert_eq!(profile_label(&cfg), "read");
        cfg.block_size = 128 * 1024;
        assert_eq!(profile_label(&cfg), "scan");
        cfg.block_cache_fraction = 0.10;
        cfg.memstore_fraction = 0.55;
        assert_eq!(profile_label(&cfg), "write");
        assert_eq!(profile_label(&StoreConfig::default_homogeneous()), "balanced");
    }
}
