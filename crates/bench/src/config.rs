//! Typed, parse-once view of the process environment knobs.
//!
//! Every `MET_*` environment variable the workspace honors is read here,
//! exactly once, into an [`EnvConfig`] that the `exp` binary hands to
//! [`crate::exp::parse`]; the README's knob table is the one place all of
//! them are documented. What an experiment run varies (its seed, its fault
//! plan) is a flag of `exp`, not a knob.

use std::path::PathBuf;

/// Every environment knob, parsed once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnvConfig {
    /// `MET_TRACE` — JSONL audit-trail export path, if tracing is on.
    pub trace_path: Option<PathBuf>,
    /// `MET_TRACE_LEVEL` — raw verbosity string (`off|info|debug`);
    /// `telemetry::Verbosity::parse` interprets it.
    pub trace_level: Option<String>,
    /// `MET_RESULTS_DIR` — directory `exp` writes its reports to (default
    /// `results`).
    pub results_dir: Option<PathBuf>,
}

impl EnvConfig {
    /// Parses a config from an arbitrary lookup function (tests feed maps;
    /// [`EnvConfig::from_env`] feeds the real environment).
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Self {
        EnvConfig {
            trace_path: get("MET_TRACE").map(PathBuf::from),
            trace_level: get("MET_TRACE_LEVEL"),
            results_dir: get("MET_RESULTS_DIR").map(PathBuf::from),
        }
    }

    /// Parses the real process environment.
    pub fn from_env() -> Self {
        Self::from_lookup(|k| std::env::var(k).ok())
    }
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
        assert_eq!(EnvConfig::from_lookup(lookup(&[])), EnvConfig::default());
    }

    #[test]
    fn parses_every_knob() {
        let c = EnvConfig::from_lookup(lookup(&[
            ("MET_TRACE", "/tmp/trail.jsonl"),
            ("MET_TRACE_LEVEL", "info"),
            ("MET_RESULTS_DIR", "/tmp/results"),
        ]));
        assert_eq!(c.trace_path.as_deref(), Some(std::path::Path::new("/tmp/trail.jsonl")));
        assert_eq!(c.trace_level.as_deref(), Some("info"));
        assert_eq!(c.results_dir.as_deref(), Some(std::path::Path::new("/tmp/results")));
    }
}
