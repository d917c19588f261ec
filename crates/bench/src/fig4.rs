//! Figure 4 — convergence: MeT starting from a Random-Homogeneous cluster
//! versus the two manual strategies, throughput over 30 minutes.
//!
//! §6.2: the cluster ramps for 2 minutes, MeT starts at minute 2, fully
//! reconfigures between roughly minutes 2 and 8 (restarts and major
//! compactions dominate the cost; throughput floors around 7 500 ops/s and
//! recovers to 20 000 by minute 5), then tracks Manual-Heterogeneous.

use crate::fig1::{run_once, Strategy};
use simcore::timeseries::TimeSeries;
use simcore::SimTime;
use std::collections::BTreeMap;

/// One Figure 4 curve: total throughput resampled to 30-second points.
pub type Curve = Vec<(f64, f64)>; // (minutes, ops/s)

/// The figure's three curves plus summary numbers.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Curve per strategy label.
    pub curves: BTreeMap<&'static str, Curve>,
    /// Lowest MeT throughput during the reconfiguration window (ops/s).
    pub met_reconfig_floor: f64,
    /// MeT steady-state mean over the final 10 minutes.
    pub met_steady: f64,
    /// Manual-Heterogeneous steady-state mean over the final 10 minutes.
    pub het_steady: f64,
    /// Manual-Homogeneous steady-state mean over the final 10 minutes.
    pub homog_steady: f64,
    /// Minute by which MeT's cumulative average overtakes
    /// Manual-Homogeneous's (`None` if it never does).
    pub met_overtakes_homog_at_min: Option<f64>,
    /// Reconfigurations MeT completed.
    pub reconfigurations: u64,
}

fn resample(series: &TimeSeries) -> Curve {
    series.resample_avg(30_000).points().iter().map(|(t, v)| (t.as_mins_f64(), *v)).collect()
}

/// Runs the MeT curve: Random-Homogeneous start, MeT attached at minute 2.
pub fn run_met_curve(seed: u64, minutes: u64) -> (TimeSeries, u64) {
    let (series, reconfigurations, _) =
        run_met_curve_traced(seed, minutes, telemetry::Telemetry::disabled());
    (series, reconfigurations)
}

/// [`run_met_curve`] with the control loop and simulator reporting through
/// `telemetry` — the registry feeds the report summary and, when a JSONL
/// sink is attached, the run leaves a full audit trail behind — and the
/// final cluster snapshot, so determinism checks can compare end states. A
/// thin wrapper over the unified [`ScenarioSpec`](crate::ScenarioSpec)
/// runner.
pub fn run_met_curve_traced(
    seed: u64,
    minutes: u64,
    telemetry: telemetry::Telemetry,
) -> (TimeSeries, u64, cluster::ClusterSnapshot) {
    let run = crate::ScenarioSpec::new(crate::ScenarioStrategy::MetFixedFleet, seed, minutes)
        .telemetry(telemetry)
        .run();
    (run.total_series, run.reconfigurations, run.snapshot)
}

/// Runs a manual strategy and returns its total-throughput series (the
/// same construction as the fig1 runner, via the unified spec).
pub fn run_manual_curve(strategy: Strategy, seed: u64, minutes: u64) -> TimeSeries {
    crate::ScenarioSpec::new(crate::ScenarioStrategy::Manual(strategy), seed, minutes)
        .run()
        .total_series
}

/// Picks the best-throughput seed out of `candidates` for a manual curve
/// (§6.2 compares against "the run with the best throughput from both
/// strategies").
pub fn best_seed(strategy: Strategy, candidates: u64, minutes: u64) -> u64 {
    (0..candidates)
        .map(|s| (s + 1_000, run_once(strategy, s + 1_000, minutes).total))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite totals"))
        .map(|(s, _)| s)
        .expect("at least one candidate")
}

/// Runs the full Figure 4 experiment.
pub fn run(seed: u64, minutes: u64) -> Fig4Result {
    run_traced(seed, minutes, telemetry::Telemetry::disabled())
}

/// [`run`] with the MeT curve instrumented through `telemetry` (the manual
/// baselines have no control loop to audit).
pub fn run_traced(seed: u64, minutes: u64, telemetry: telemetry::Telemetry) -> Fig4Result {
    let (met_series, reconfigurations, _) = run_met_curve_traced(seed, minutes, telemetry);
    let homog = run_manual_curve(Strategy::ManualHomogeneous, seed, minutes);
    let het = run_manual_curve(Strategy::ManualHeterogeneous, seed, minutes);

    let end = SimTime::from_mins(minutes + 2);
    let steady_from = SimTime::from_mins(minutes + 2 - 10);
    let met_steady = met_series.mean_between(steady_from, end).unwrap_or(0.0);
    let het_steady = het.mean_between(steady_from, end).unwrap_or(0.0);
    let homog_steady = homog.mean_between(steady_from, end).unwrap_or(0.0);
    // Read the floor off the 30-second plot, as one would from the
    // paper's figure (1-second transients are invisible there).
    let met_reconfig_floor = met_series
        .resample_avg(30_000)
        .min_between(SimTime::from_mins(2), SimTime::from_mins(12))
        .unwrap_or(0.0);

    // Cumulative-average crossover vs Manual-Homogeneous.
    let met_cum = met_series.cumulative();
    let homog_cum = homog.cumulative();
    let met_overtakes_homog_at_min = met_cum
        .points()
        .iter()
        .zip(homog_cum.points())
        .find(|((t, m), (_, h))| t.as_mins_f64() > 6.0 && m > h)
        .map(|((t, _), _)| t.as_mins_f64());

    let mut curves = BTreeMap::new();
    curves.insert("MeT", resample(&met_series));
    curves.insert("Manual-Homogeneous", resample(&homog));
    curves.insert("Manual-Heterogeneous", resample(&het));
    Fig4Result {
        curves,
        met_reconfig_floor,
        met_steady,
        het_steady,
        homog_steady,
        met_overtakes_homog_at_min,
        reconfigurations,
    }
}
