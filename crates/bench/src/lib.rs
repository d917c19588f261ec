//! The experiment harness regenerating every table and figure of the MeT
//! paper (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
//! paper-vs-measured).

#![forbid(unsafe_code)]

pub mod ablations;
pub mod chaos;
pub mod crash;
pub mod elastic;
pub mod fig1;
pub mod fig4;
pub mod latency;
pub mod report;
pub mod scenario;
pub mod spec;
pub mod table2;

pub use spec::{ScenarioRun, ScenarioSpec, ScenarioStrategy};

/// Builds the telemetry pipeline an experiment binary should use, from the
/// typed environment config ([`simcore::config::env_config`]).
///
/// The registry always aggregates (it feeds the JSON report); the event
/// stream is controlled by two knobs (see the README's knob table):
///
/// * `MET_TRACE=<path>` — export the full audit trail as JSONL to `path`
///   and keep the tail in an in-memory ring buffer;
/// * `MET_TRACE_LEVEL=off|info|debug` — event verbosity for the trace
///   (default `debug` so monitor samples appear alongside the decisions
///   and actions they caused).
pub fn telemetry_from_env() -> telemetry::Telemetry {
    telemetry_from_config(simcore::config::env_config())
}

/// [`telemetry_from_env`] over an explicit config (tests pass their own).
pub fn telemetry_from_config(cfg: &simcore::config::EnvConfig) -> telemetry::Telemetry {
    let level = cfg.trace_level.as_deref().and_then(telemetry::Verbosity::parse).unwrap_or(
        if cfg.trace_path.is_some() {
            telemetry::Verbosity::Debug
        } else {
            telemetry::Verbosity::Off
        },
    );
    let t = telemetry::Telemetry::new(level);
    if let Some(path) = &cfg.trace_path {
        t.attach_ring(1 << 16);
        if let Err(e) = t.attach_jsonl(path) {
            eprintln!("telemetry: cannot create trace file {}: {e}", path.display());
        } else {
            eprintln!("telemetry: exporting {level:?}-level trace to {}", path.display());
        }
    }
    t
}
