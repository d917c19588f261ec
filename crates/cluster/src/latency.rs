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
//!   hockey-stick p99 the `exp latency` bench sweeps. Quantiles come from
//!   a search on the mixture CDF (no sampling, no RNG) that returns a
//!   fixed bisection's bits.

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
    // The distinct component means, in first-seen order, and each
    // component's index into them: a CDF evaluation takes one `exp` per
    // distinct mean (a server's read hits all share one, for instance).
    means: Vec<f64>,
    mean_index: Vec<usize>,
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
            let k = self.means.iter().position(|m| *m == mean_ms).unwrap_or_else(|| {
                self.means.push(mean_ms);
                self.means.len() - 1
            });
            self.mean_index.push(k);
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
        self.means.clear();
        self.mean_index.clear();
    }

    /// The `q`-quantile (e.g. `0.99`), `q` clamped to `[0, 0.999999]`.
    ///
    /// Returns the bits of a fixed reference search: from `max_mean ·
    /// ln(1/(1-q))`, double until `cdf ≥ q`, then bisect from 0 until the
    /// bracket collapses to adjacent doubles (≈ 55 CDF evaluations). Each
    /// of its steps turns only on whether `cdf(t) < q`, so a safeguarded
    /// Newton iteration first finds a verified bracket `cdf(a) < q ≤
    /// cdf(b)` a few dozen ulps wide; the reference's steps are then
    /// replayed, evaluating the CDF only at points strictly inside
    /// `(a, b)`. A fig-4 server's p99 takes ≈ 12 evaluations, each with one
    /// `exp` per distinct mean.
    ///
    /// Sound because the float CDF never decreases as `t` grows: each step
    /// of it is monotone — the division by a positive mean, `exp`, `1 − x`,
    /// the product with a positive weight, the left-to-right sum and the
    /// division by the (finite) total weight. That holds only if libm's
    /// `exp` is monotone; the oracle proptests below check the result.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.search(q).0
    }

    /// [`Self::quantile_ms`] and the number of CDF evaluations it took.
    fn search(&self, q: f64) -> (f64, usize) {
        if self.components.is_empty() {
            return (0.0, 0);
        }
        let q = q.clamp(0.0, 0.999_999);
        let max_mean = self.components.iter().map(|(_, m)| *m).fold(0.0, f64::max);
        let start = (max_mean * -(1.0 - q).ln()).max(1e-9);
        let mut cdf = Bracket::new(self, q);
        cdf.narrow(start);
        // The reference search, every test answered through the bracket.
        let mut hi = start;
        let mut bracketed = false;
        for _ in 0..64 {
            if cdf.reaches(hi) {
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
            if cdf.reaches(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        (0.5 * (lo + hi), cdf.evals)
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

/// What the quantile search knows of a mixture's float CDF against `q`:
/// `cdf(t) < q` for every `t ≤ low`, `cdf(t) ≥ q` for every `t ≥ high`.
/// True from the start, as `cdf(0) = 0` and `cdf(∞) = 1` (and at `q = 0`
/// every `t` reaches `q`); every evaluation narrows it.
struct Bracket<'a> {
    mix: &'a LatencyMixture,
    w: f64,
    q: f64,
    low: f64,
    high: f64,
    // `exp(-t / mean)` per distinct mean.
    exps: Vec<f64>,
    evals: usize,
}

impl<'a> Bracket<'a> {
    fn new(mix: &'a LatencyMixture, q: f64) -> Self {
        let (low, high) =
            if q > 0.0 { (0.0, f64::INFINITY) } else { (f64::NEG_INFINITY, f64::NEG_INFINITY) };
        // Components have positive weights, so the total is positive.
        let (w, exps) = (mix.total_weight(), vec![0.0; mix.means.len()]);
        Bracket { mix, w, q, low, high, exps, evals: 0 }
    }

    /// Whether `cdf(t) ≥ q`, evaluated only when the bracket cannot tell.
    fn reaches(&mut self, t: f64) -> bool {
        t > self.low && (t >= self.high || self.eval(t).0 >= self.q)
    }

    /// `(cdf, survival · w, density · w)` at `t`. The CDF is the
    /// reference's sum term for term, so it has the reference's bits.
    fn eval(&mut self, t: f64) -> (f64, f64, f64) {
        self.evals += 1;
        for (e, m) in self.exps.iter_mut().zip(&self.mix.means) {
            *e = (-t / m).exp();
        }
        let (mut cdf, mut surv, mut dens) = (0.0, 0.0, 0.0);
        for (&(wi, mi), &k) in self.mix.components.iter().zip(&self.mix.mean_index) {
            let e = self.exps[k];
            cdf += wi * (1.0 - e);
            surv += wi * e;
            dens += wi * e / mi;
        }
        let cdf = cdf / self.w;
        if cdf < self.q {
            self.low = self.low.max(t);
        } else {
            self.high = self.high.min(t);
        }
        (cdf, surv, dens)
    }

    /// Whether `t` lies strictly inside the bracket.
    fn inside(&self, t: f64) -> bool {
        t > self.low && t < self.high && t.is_finite()
    }

    /// Newton's method on the log-survival `ln S(t) − ln(1 − q)` from
    /// `start`: convex and near-linear in the tail, so from below the
    /// root the iterates climb to it in a handful of steps. A step that
    /// leaves the bracket (an overshoot from `start`, above the root) is
    /// replaced once by Newton's step from `t = 0` — where `S = 1` and the
    /// density is `Σ wᵢ/mᵢ / w`, so it costs no evaluation and, by
    /// convexity, lands below the root — and after that bisects. Once a
    /// step is under `2^-26` of `t`, the next iterate sits at the float
    /// noise; a probe across it by twice the linear distance to `q`,
    /// growing ×4 until it crosses, verifies the other side.
    fn narrow(&mut self, start: f64) {
        if self.q <= 0.0 {
            return;
        }
        let target = 1.0 - self.q;
        let rate: f64 = self.mix.components.iter().map(|(wi, mi)| wi / mi).sum();
        let mut from_zero = Some(-target.ln() * self.w / rate);
        let mut t = start;
        let mut at = self.eval(t);
        for _ in 0..48 {
            let (_, surv, dens) = at;
            let step = (surv / self.w / target).ln() * surv / dens;
            let next = t + step;
            if step.abs() <= t * f64::powi(2.0, -26) {
                // Outside the bracket, `next` is noise and `t` converged.
                if self.inside(next) {
                    (t, at) = (next, self.eval(next));
                }
                break;
            }
            t = if self.inside(next) {
                next
            } else if let Some(t0) = from_zero.take().filter(|t0| self.inside(*t0)) {
                t0
            } else if self.high.is_finite() {
                0.5 * (self.low + self.high)
            } else {
                2.0 * self.low.max(start)
            };
            at = self.eval(t);
        }
        let (cdf, _, dens) = at;
        let up = cdf < self.q;
        let mut d = 2.0 * (self.q - cdf).abs() * self.w / dens + 8.0 * f64::EPSILON * t;
        for _ in 0..32 {
            let p = if up { t + d } else { t - d };
            // Outside the bracket, that side is already within `d`.
            if !self.inside(p) || (self.eval(p).0 < self.q) != up {
                break;
            }
            (t, d) = (p, 4.0 * d);
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

    /// The quantiles a caller asks for, and both sides of the clamp.
    const QS: [f64; 8] = [-0.5, 0.0, 0.5, 0.95, 0.99, 0.999_999, 1.0, 1.5];

    fn assert_matches_oracle(m: &LatencyMixture) {
        for q in QS {
            assert_eq!(m.quantile_ms(q).to_bits(), quantile_ms_oracle(m, q).to_bits(), "q = {q}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// Random mixtures, weights and means each spread over nine
        /// decades: the search returns the oracle's bits at every quantile
        /// anybody asks for (and at the clamp). A component whose `k`
        /// indexes the small `pool` takes its mean from there, repeating it
        /// as `server_mixture` does (a server's read hits all share one),
        /// so one `exp` serves several components.
        #[test]
        fn quantile_search_matches_the_64_step_oracle(
            pool in proptest::collection::vec(-2.0f64..4.0, 1..6),
            comps in proptest::collection::vec((-3.0f64..6.0, -3.0f64..6.0, 0usize..8), 1..41),
        ) {
            let mut m = LatencyMixture::new();
            for (w_exp, m_exp, k) in comps {
                let m_exp = pool.get(k).copied().unwrap_or(m_exp);
                m.push(10f64.powf(w_exp), 10f64.powf(m_exp));
            }
            assert_matches_oracle(&m);
        }
    }

    #[test]
    fn degenerate_mixtures_match_the_oracle() {
        // One component; many components with one mean; q = 0 and the
        // clamp (in `QS`).
        for mean in [1e-3, 0.28, 7.3, 153.6, 1e6] {
            assert_matches_oracle(&single(mean));
            let mut m = LatencyMixture::new();
            for w in [3715.1, 70.6, 0.02, 2478.8, 1e5] {
                m.push(w, mean);
            }
            assert_matches_oracle(&m);
        }
    }

    /// Two servers' mixtures from `exp fig4` at minute 10: ten components
    /// over five and three distinct means.
    fn fig4_mixtures() -> [LatencyMixture; 2] {
        let build = |comps: &[(f64, f64)]| {
            let mut m = LatencyMixture::new();
            for &(w, mean) in comps {
                m.push(w, mean);
            }
            m
        };
        [
            build(&[
                (3715.1102962535924, 0.28249076562130576),
                (70.62084013470081, 141.98804566314377),
                (2478.7648422853326, 0.28249076562130576),
                (44.995400734436664, 141.98804566314377),
                (435.3513495930571, 0.28249076562130576),
                (7.902648973009174, 214.28664249141238),
                (221.62699928303311, 7.326713064417991),
                (163.68419735243387, 0.28249076562130576),
                (177.0923999996788, 225.13407064647274),
                (170.38829867605634, 7.326713064417991),
            ]),
            build(&[
                (3258.6348414359277, 0.26010733790475676),
                (9.817729856262199, 4.281029122750692),
                (2517.3860650407155, 0.26010733790475676),
                (7.584469427571055, 4.281029122750692),
                (508.3947271430043, 0.26010733790475676),
                (1.5317095453502005, 4.281029122750692),
                (254.96321834417725, 2.2796756122259914),
                (313.3846432927821, 0.26010733790475676),
                (27.588145637915062, 4.281029122750692),
                (170.48639446534855, 2.2796756122259914),
            ]),
        ]
    }

    /// The search's cost, pinned: the reference bisection takes ≈ 55 CDF
    /// evaluations per quantile, so a silent fallback to it shows here.
    #[test]
    fn fig4_quantiles_take_at_most_twenty_cdf_evaluations() {
        for m in fig4_mixtures() {
            assert_matches_oracle(&m);
            for q in [0.5, 0.95, 0.99] {
                let (_, evals) = m.search(q);
                assert!(evals <= 20, "q = {q}: {evals} CDF evaluations");
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
