//! The `exp-profile` harness: wall-clock phase attribution for the fig4
//! run.
//!
//! One leg arms the span profiler ([`telemetry::span`]), runs the fig4 MeT
//! curve, and drains the recorded spans; the per-phase self time and its
//! share of the run's wall time say where a tick goes.
//!
//! Sim results are unaffected by profiling (the spans are trace-invisible
//! by construction; `tests/determinism.rs` pins this).

use simcore::config::EnvConfig;
use std::path::PathBuf;
use std::time::Instant;
use telemetry::span::{self as wallspan, SpanRecord, SpanStats};

/// Configuration for one `exp-profile` run.
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Scenario seed.
    pub seed: u64,
    /// Simulated minutes (`MET_PROFILE_MINUTES`, default 4).
    pub minutes: u64,
    /// Artifact directory (`MET_PROFILE_OUT`, default `results/profile`).
    pub out_dir: PathBuf,
}

impl ProfileConfig {
    /// Reads the knobs from a parsed environment.
    pub fn from_env(cfg: &EnvConfig) -> Self {
        ProfileConfig {
            seed: 1_000,
            minutes: cfg.profile_minutes.unwrap_or(4),
            out_dir: cfg.profile_out.clone().unwrap_or_else(|| PathBuf::from("results/profile")),
        }
    }
}

/// One profiled fig4 run.
#[derive(Debug)]
pub struct ProfileLeg {
    /// End-to-end wall seconds for the leg.
    pub wall_s: f64,
    /// Simulated ticks executed.
    pub ticks: u64,
    /// Every span the leg recorded, in start order.
    pub records: Vec<SpanRecord>,
    /// Per-phase aggregate, ordered by self time.
    pub stats: Vec<SpanStats>,
}

impl ProfileLeg {
    /// Simulated ticks per wall second.
    pub fn ticks_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.ticks as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Runs the profiled fig4 leg. Arms the profiler for the duration of the
/// run and disarms it before returning.
pub fn run_leg(cfg: &ProfileConfig) -> ProfileLeg {
    wallspan::clear();
    wallspan::set_enabled(true);
    let start = Instant::now();
    let _ =
        crate::fig4::run_met_curve_traced(cfg.seed, cfg.minutes, telemetry::Telemetry::disabled());
    let wall_s = start.elapsed().as_secs_f64();
    wallspan::set_enabled(false);
    let records = wallspan::drain();
    let stats = wallspan::aggregate(&records);
    // The scenario runner executes (minutes + 2) * 60 ticks (2 ramp
    // minutes before the controller window).
    ProfileLeg { wall_s, ticks: (cfg.minutes + 2) * 60, records, stats }
}

/// Renders the attribution table: per phase, span count, self wall ms and
/// the share of the leg's wall time that self time is.
pub fn render_table(leg: &ProfileLeg) -> String {
    let wall_ms = leg.wall_s * 1_000.0;
    let mut out = format!("{:<22} {:>8} {:>12} {:>8}\n", "phase", "count", "self ms", "share");
    for s in &leg.stats {
        let share = if wall_ms > 0.0 { s.self_ms / wall_ms * 100.0 } else { 0.0 };
        out.push_str(&format!(
            "{:<22} {:>8} {:>12.1} {:>7.1}%\n",
            s.name, s.count, s.self_ms, share
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_every_phase_with_its_share() {
        let stats = |name: &'static str, self_ms: f64| SpanStats {
            name,
            count: 1,
            total_ms: self_ms,
            self_ms,
            p50_ms: self_ms,
            p95_ms: self_ms,
            p99_ms: self_ms,
        };
        let leg = ProfileLeg {
            wall_s: 0.2,
            ticks: 60,
            records: Vec::new(),
            stats: vec![stats("a", 150.0), stats("b", 50.0)],
        };
        let table = render_table(&leg);
        assert_eq!(table.lines().count(), 3);
        assert!(table.contains("share"));
        assert!(table.contains("75.0%") && table.contains("25.0%"), "{table}");
    }

    #[test]
    fn profiled_leg_runs_and_records_the_tick_pipeline() {
        // A tiny end-to-end leg: one simulated minute.
        let cfg = ProfileConfig { seed: 1_000, minutes: 1, out_dir: PathBuf::from("unused") };
        let leg = run_leg(&cfg);
        assert_eq!(leg.ticks, 180);
        assert!(leg.wall_s > 0.0);
        let names: Vec<&str> = leg.stats.iter().map(|s| s.name).collect();
        for expected in ["sim.tick", "sim.solver", "solver.evaluate", "met.tick"] {
            assert!(names.contains(&expected), "missing phase {expected} in {names:?}");
        }
        // Profiler is disarmed on return (concurrent tests in this binary
        // may still drop in-flight spans, so only the gate is asserted).
        assert!(!wallspan::enabled());
    }
}
