//! `exp-latency` — the queueing model's p99 knee and the latency-SLO gate.
//!
//! Two halves:
//!
//! 1. **Sweep**: the §3 YCSB suite, scaled by a load factor, runs on a
//!    fixed Random-Homogeneous fleet with no controller. As offered load
//!    crosses the fleet's service capacity the equilibrium solver's queue
//!    inflation (`1/(1-rho)`) drives response-time tails super-linearly:
//!    p99 versus load shows the hockey-stick knee every queueing system
//!    has, while mean throughput merely flattens at saturation.
//! 2. **SLO gate**: at an overload point, MeT runs with its utilization
//!    thresholds parked above 100 % so the latency SLO is the *only*
//!    scale-out trigger. The gated run (`slo_p99_ms` set) sees every
//!    server's smoothed p99 above the SLO, counts them overloaded, scales
//!    out and restores the tail; the ungated twin performs the same
//!    initial reconfiguration but never adds a node. The difference
//!    between the two final states is exactly what the gate buys.

use crate::fig1::Strategy;
use crate::scenario::FIG1_SERVERS;
use crate::{ScenarioRun, ScenarioSpec, ScenarioStrategy};
use cluster::admin::ServerHealth;
use met::MetConfig;
use telemetry::Telemetry;

/// The sweep's load factors (1.0 = the paper's §3 offered load). The
/// clients are closed-loop, so offered load self-throttles as queues grow:
/// the interesting region starts well below 1.0, where the hottest server
/// of the random placement crosses saturation.
pub const SWEEP_LOADS: [f64; 8] = [0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0];
/// Load factor for the SLO-gate demonstration (past the knee).
pub const SLO_LOAD: f64 = 1.5;
/// The demonstration's p99 SLO in milliseconds: comfortably above the
/// healthy fleet's tail, comfortably below the overloaded fleet's.
pub const SLO_P99_MS: f64 = 60.0;
/// Nodes the gated run may add beyond the initial fleet.
pub const EXTRA_NODES: usize = 3;
/// Default simulated minutes per sweep point.
pub const SWEEP_MINUTES: u64 = 5;
/// Default simulated minutes for each SLO run (MeT needs its 3-minute
/// decision periods plus reconfiguration time).
pub const SLO_MINUTES: u64 = 18;

/// One point of the load sweep.
#[derive(Debug, Clone)]
pub struct LatencyPoint {
    /// Offered-load multiplier.
    pub load_factor: f64,
    /// Mean total throughput over the final 2 minutes (ops/s).
    pub throughput: f64,
    /// Worst online server's p99 at the end of the run (ms).
    pub worst_p99_ms: f64,
    /// Request-rate-weighted mean of per-server p99s (ms) — the tail a
    /// random request sees.
    pub weighted_p99_ms: f64,
}

/// Worst and rate-weighted p99 across the online fleet at the end of a run.
pub fn fleet_p99(run: &ScenarioRun) -> (f64, f64) {
    let mut worst: f64 = 0.0;
    let mut num = 0.0;
    let mut den = 0.0;
    for s in run.snapshot.servers.iter().filter(|s| s.health == ServerHealth::Online) {
        worst = worst.max(s.p99_latency_ms);
        num += s.requests_per_sec * s.p99_latency_ms;
        den += s.requests_per_sec;
    }
    (worst, if den > 0.0 { num / den } else { 0.0 })
}

fn steady_throughput(run: &ScenarioRun, minutes: u64) -> f64 {
    use simcore::SimTime;
    let end = SimTime::from_mins(minutes + 2);
    let from = SimTime::from_mins((minutes + 2).saturating_sub(2));
    run.total_series.mean_between(from, end).unwrap_or(0.0)
}

/// Runs one sweep point: the fixed fleet with no controller at
/// `load_factor` times the paper's offered load.
pub fn sweep_point(seed: u64, load_factor: f64, minutes: u64) -> LatencyPoint {
    let run =
        ScenarioSpec::new(ScenarioStrategy::Manual(Strategy::RandomHomogeneous), seed, minutes)
            .load(load_factor)
            .run();
    let (worst_p99_ms, weighted_p99_ms) = fleet_p99(&run);
    LatencyPoint {
        load_factor,
        throughput: steady_throughput(&run, minutes),
        worst_p99_ms,
        weighted_p99_ms,
    }
}

/// The MeT configuration for the SLO demonstration: scaling on, the
/// latency gate (when `slo` is set) the only possible overload signal.
pub fn slo_config(slo: Option<f64>) -> MetConfig {
    MetConfig {
        allow_scaling: true,
        min_nodes: FIG1_SERVERS,
        max_nodes: FIG1_SERVERS + EXTRA_NODES,
        // Parked above 100 %: utilization alone can never mark a server
        // overloaded, so any scale-out is attributable to the SLO gate.
        cpu_high: 1.01,
        io_high: 1.01,
        // Parked near 0 %: the overloaded fleet never looks underloaded.
        cpu_low: 0.05,
        io_low: 0.05,
        slo_p99_ms: slo,
        ..MetConfig::default()
    }
}

/// One SLO run (gated or ungated).
pub fn run_slo(seed: u64, minutes: u64, slo: Option<f64>, telemetry: Telemetry) -> ScenarioRun {
    ScenarioSpec::new(ScenarioStrategy::MetFixedFleet, seed, minutes)
        .load(SLO_LOAD)
        .met_config(slo_config(slo))
        .telemetry(telemetry)
        .run()
}

/// Outcome of one SLO run, reduced to the numbers the comparison needs.
#[derive(Debug, Clone)]
pub struct SloOutcome {
    /// Online servers at the end.
    pub online: usize,
    /// Reconfiguration plans MeT completed.
    pub reconfigurations: u64,
    /// Worst online p99 at the end (ms).
    pub worst_p99_ms: f64,
    /// Rate-weighted p99 at the end (ms).
    pub weighted_p99_ms: f64,
    /// Mean throughput over the final 2 minutes (ops/s).
    pub throughput: f64,
}

fn outcome_of(run: &ScenarioRun, minutes: u64) -> SloOutcome {
    let (worst_p99_ms, weighted_p99_ms) = fleet_p99(run);
    SloOutcome {
        online: run.online,
        reconfigurations: run.reconfigurations,
        worst_p99_ms,
        weighted_p99_ms,
        throughput: steady_throughput(run, minutes),
    }
}

/// The whole experiment: the sweep plus the gated/ungated pair.
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// One point per sweep load factor.
    pub sweep: Vec<LatencyPoint>,
    /// The run with `slo_p99_ms` set.
    pub gated: SloOutcome,
    /// The twin with the gate disabled.
    pub ungated: SloOutcome,
    /// The SLO both runs were measured against (ms).
    pub slo_p99_ms: f64,
    /// The overload factor both runs carried.
    pub slo_load: f64,
}

/// Runs the full `exp-latency` experiment. `telemetry` instruments the
/// gated SLO run (the decision maker's audit trail is where the gate's
/// verdicts live); the sweep and the ungated twin run uninstrumented.
pub fn run(seed: u64, sweep_minutes: u64, slo_minutes: u64, telemetry: Telemetry) -> LatencyResult {
    let sweep = SWEEP_LOADS.iter().map(|&load| sweep_point(seed, load, sweep_minutes)).collect();
    let gated = outcome_of(&run_slo(seed, slo_minutes, Some(SLO_P99_MS), telemetry), slo_minutes);
    let ungated = outcome_of(&run_slo(seed, slo_minutes, None, Telemetry::disabled()), slo_minutes);
    LatencyResult { sweep, gated, ungated, slo_p99_ms: SLO_P99_MS, slo_load: SLO_LOAD }
}

/// Renders every latency artifact of a run as one string for digesting:
/// per-server run histograms (`sim_server_p99_ms`), per-profile run
/// histograms (`sim_profile_p99_ms`) and the final snapshot's per-server
/// p99 gauges. `f64`'s shortest-round-trip formatting makes any bit
/// difference visible.
pub fn latency_digest_string(telemetry: &Telemetry, run: &ScenarioRun) -> String {
    let mut out = String::new();
    for s in &run.snapshot.servers {
        let label = s.server.0.to_string();
        if let Some(h) = telemetry.histogram_summary("sim_server_p99_ms", &[("server", &label)]) {
            out.push_str(&format!("server {label} hist {h:?}\n"));
        }
        out.push_str(&format!("server {label} final {:?}\n", s.p99_latency_ms));
    }
    for profile in ["read", "write", "scan", "balanced"] {
        if let Some(h) = telemetry.histogram_summary("sim_profile_p99_ms", &[("profile", profile)])
        {
            out.push_str(&format!("profile {profile} hist {h:?}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tail must grow super-linearly through the knee. The clients
    /// are closed-loop, so the honest x-axis is *delivered* throughput:
    /// below saturation, extra ops/s cost almost no tail; past the knee,
    /// each additional op/s of delivered throughput buys an order of
    /// magnitude more p99.
    #[test]
    fn p99_knee_is_super_linear() {
        let lo = sweep_point(1_000, 0.1, 4);
        let mid = sweep_point(1_000, 0.2, 4);
        let sat = sweep_point(1_000, 0.5, 4);
        let over = sweep_point(1_000, 1.0, 4);
        // ms of weighted p99 per delivered op/s, below vs past the knee.
        let slope_below =
            (mid.weighted_p99_ms - lo.weighted_p99_ms) / (mid.throughput - lo.throughput);
        let slope_above =
            (over.weighted_p99_ms - sat.weighted_p99_ms) / (over.throughput - sat.throughput);
        assert!(
            slope_below > 0.0 && slope_above > 4.0 * slope_below,
            "p99 must turn a knee: {slope_below:.4} -> {slope_above:.4} ms per op/s \
             (p99s {:.1} / {:.1} / {:.1} / {:.1})",
            lo.weighted_p99_ms,
            mid.weighted_p99_ms,
            sat.weighted_p99_ms,
            over.weighted_p99_ms,
        );
        assert!(
            over.worst_p99_ms > 2.0 * sat.worst_p99_ms,
            "overload must blow up the worst tail: {:.1} vs {:.1}",
            over.worst_p99_ms,
            sat.worst_p99_ms
        );
    }

    /// The SLO gate is the only difference between the two runs: the gated
    /// one scales out and lands with a lower tail, the ungated one keeps
    /// the initial fleet.
    #[test]
    fn slo_gate_scales_out_and_restores_p99() {
        let gated = outcome_of(
            &run_slo(1_000, SLO_MINUTES, Some(SLO_P99_MS), Telemetry::disabled()),
            SLO_MINUTES,
        );
        let ungated =
            outcome_of(&run_slo(1_000, SLO_MINUTES, None, Telemetry::disabled()), SLO_MINUTES);
        assert_eq!(
            ungated.online, FIG1_SERVERS,
            "without the gate nothing can look overloaded: {ungated:?}"
        );
        assert!(gated.online > FIG1_SERVERS, "the gate must trigger scale-out: {gated:?}");
        assert!(
            gated.weighted_p99_ms < ungated.weighted_p99_ms,
            "scale-out must lower the tail: {:.1} vs {:.1}",
            gated.weighted_p99_ms,
            ungated.weighted_p99_ms
        );
    }
}
