//! Typed, parse-once view of the process environment knobs.
//!
//! Every `MET_*` environment variable the workspace honors is read here,
//! exactly once, into an [`EnvConfig`] that callers receive explicitly (or
//! through the cached [`env_config`] accessor). This replaces the previous
//! sprawl of ad-hoc `std::env::var` calls scattered over the bench harness
//! and the experiment binaries; the README's knob table is the one place
//! all of them are documented.
//!
//! Values that belong to other crates' vocabularies (the trace verbosity,
//! the fault-plan grammar) are carried as raw strings — `simcore` sits at
//! the bottom of the dependency graph, so the owning crate parses them
//! from the typed config instead of from the environment.

use std::path::PathBuf;
use std::sync::OnceLock;

/// Every environment knob, parsed once.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvConfig {
    /// `MET_TRACE` — JSONL audit-trail export path, if tracing is on.
    pub trace_path: Option<PathBuf>,
    /// `MET_TRACE_LEVEL` — raw verbosity string (`off|info|debug`);
    /// `telemetry::Verbosity::parse` interprets it.
    pub trace_level: Option<String>,
    /// `MET_FAULT_PLAN` — raw fault-plan selector (`reference`, `random`,
    /// or a `FaultPlan::parse` spec); the bench harness interprets it.
    pub fault_plan: Option<String>,
    /// `MET_FAULT_SEED` — seed for the `random` fault plan.
    pub fault_seed: u64,
    /// `MET_CRASH_OPS` — `exp-crash` operations per workload schedule.
    pub crash_ops: Option<usize>,
    /// `MET_CRASH_SEED` — `exp-crash` base seed for its schedules.
    pub crash_seed: Option<u64>,
    /// `MET_CRASH_BG` — run `exp-crash`'s store audit with the background
    /// maintenance pipeline enabled. Truthy values: `1`, `true`, `on`, `yes`.
    pub crash_bg: bool,
    /// `MET_RESULTS_DIR` — directory the `exp-*` binaries write their
    /// reports to (default `results`).
    pub results_dir: Option<PathBuf>,
}

/// Interprets an on/off knob: `1`, `true`, `on`, `yes` (case-insensitive)
/// turn it on, anything else leaves it off.
fn is_truthy(s: &str) -> bool {
    matches!(s.trim().to_ascii_lowercase().as_str(), "1" | "true" | "on" | "yes")
}

impl EnvConfig {
    /// Parses a config from an arbitrary lookup function (tests feed maps;
    /// [`EnvConfig::from_env`] feeds the real environment).
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Self {
        EnvConfig {
            trace_path: get("MET_TRACE").map(PathBuf::from),
            trace_level: get("MET_TRACE_LEVEL"),
            fault_plan: get("MET_FAULT_PLAN"),
            fault_seed: get("MET_FAULT_SEED").and_then(|s| s.trim().parse().ok()).unwrap_or(42),
            crash_ops: get("MET_CRASH_OPS").and_then(|s| s.trim().parse().ok()),
            crash_seed: get("MET_CRASH_SEED").and_then(|s| s.trim().parse().ok()),
            crash_bg: get("MET_CRASH_BG").as_deref().map(is_truthy).unwrap_or(false),
            results_dir: get("MET_RESULTS_DIR").map(PathBuf::from),
        }
    }

    /// Parses the real process environment.
    pub fn from_env() -> Self {
        Self::from_lookup(|k| std::env::var(k).ok())
    }
}

/// The process-wide [`EnvConfig`], parsed on first use and cached for the
/// life of the process. Tests that need a specific value should construct
/// an [`EnvConfig`] instead of mutating the environment.
pub fn env_config() -> &'static EnvConfig {
    static CONFIG: OnceLock<EnvConfig> = OnceLock::new();
    CONFIG.get_or_init(EnvConfig::from_env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn lookup(pairs: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let map: BTreeMap<String, String> =
            pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        move |k: &str| map.get(k).cloned()
    }

    #[test]
    fn defaults_when_nothing_is_set() {
        let c = EnvConfig::from_lookup(lookup(&[]));
        assert_eq!(c.trace_path, None);
        assert_eq!(c.trace_level, None);
        assert_eq!(c.fault_plan, None);
        assert_eq!(c.fault_seed, 42);
        assert_eq!(c.crash_ops, None);
        assert_eq!(c.crash_seed, None);
        assert!(!c.crash_bg, "crash audit runs inline maintenance by default");
        assert_eq!(c.results_dir, None);
    }

    #[test]
    fn parses_every_knob() {
        let c = EnvConfig::from_lookup(lookup(&[
            ("MET_TRACE", "/tmp/trail.jsonl"),
            ("MET_TRACE_LEVEL", "info"),
            ("MET_FAULT_PLAN", "reference"),
            ("MET_FAULT_SEED", "7"),
            ("MET_CRASH_OPS", "200"),
            ("MET_CRASH_SEED", "9"),
            ("MET_CRASH_BG", "1"),
            ("MET_RESULTS_DIR", "/tmp/results"),
        ]));
        assert_eq!(c.trace_path.as_deref(), Some(std::path::Path::new("/tmp/trail.jsonl")));
        assert_eq!(c.trace_level.as_deref(), Some("info"));
        assert_eq!(c.fault_plan.as_deref(), Some("reference"));
        assert_eq!(c.fault_seed, 7);
        assert_eq!(c.crash_ops, Some(200));
        assert_eq!(c.crash_seed, Some(9));
        assert!(c.crash_bg);
        assert_eq!(c.results_dir.as_deref(), Some(std::path::Path::new("/tmp/results")));
    }

    #[test]
    fn on_off_knobs_accept_truthy_spellings() {
        for v in ["1", "true", "ON", "yes"] {
            assert!(EnvConfig::from_lookup(lookup(&[("MET_CRASH_BG", v)])).crash_bg, "{v}");
        }
        for v in ["0", "false", "off", "", "maybe"] {
            assert!(!EnvConfig::from_lookup(lookup(&[("MET_CRASH_BG", v)])).crash_bg, "{v:?}");
        }
    }

    #[test]
    fn bad_values_fall_back() {
        let c = EnvConfig::from_lookup(lookup(&[("MET_FAULT_SEED", "NaN")]));
        assert_eq!(c.fault_seed, 42);
    }
}
