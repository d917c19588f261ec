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
    /// `MET_PERF_OPS` — `exp-perf` ops per repetition of each store mix.
    pub perf_ops: Option<u64>,
    /// `MET_PERF_TICKS` — `exp-perf` measured cluster ticks per repetition.
    pub perf_ticks: Option<u64>,
    /// `MET_PERF_WARMUP_TICKS` — `exp-perf` cluster warmup ticks.
    pub perf_warmup_ticks: Option<u64>,
    /// `MET_PERF_REPS` — `exp-perf` repetitions (median reported).
    pub perf_reps: Option<usize>,
    /// `MET_PERF_CLIENTS` — `exp-perf` client threads for the threaded
    /// store legs (`1` skips them).
    pub perf_clients: Option<usize>,
    /// `MET_PERF_ASSERT_CLIENT_SPEEDUP` — minimum
    /// point-get-at-N-clients / point-get-at-1-thread ratio `exp-perf`
    /// exits non-zero below. Meaningful only where real cores exist, so
    /// armed on multi-core CI, not by default.
    pub perf_assert_client_speedup: Option<f64>,
    /// `MET_PERF_COMMIT` — `exp-perf` commit label override.
    pub perf_commit: Option<String>,
    /// `MET_BENCH_PATH` — `exp-perf` output path.
    pub bench_path: Option<PathBuf>,
    /// `MET_PROFILE` / `MET_SPANS` — arm the wall-clock span profiler
    /// (`telemetry::span`). Truthy values: `1`, `true`, `on`, `yes`.
    pub profile: bool,
    /// `MET_PROFILE_OUT` — directory for `exp-profile` artifacts (Chrome
    /// traces, phase table).
    pub profile_out: Option<PathBuf>,
    /// `MET_PROFILE_MINUTES` — simulated minutes per `exp-profile` leg.
    pub profile_minutes: Option<u64>,
    /// `MET_CRASH_OPS` — `exp-crash` operations per workload schedule.
    pub crash_ops: Option<usize>,
    /// `MET_CRASH_SEED` — `exp-crash` base seed for its schedules.
    pub crash_seed: Option<u64>,
    /// `MET_CRASH_BG` — run `exp-crash`'s store audit with the background
    /// maintenance pipeline enabled. Truthy values as for `MET_PROFILE`.
    pub crash_bg: bool,
    /// `MET_FLUSH_MEMSTORE_BYTES` — background-maintenance flush
    /// threshold (heap bytes in the active memstore).
    pub flush_memstore_bytes: Option<usize>,
    /// `MET_FLUSH_MAX_FROZEN` — bounded frozen-memstore queue: writers
    /// stall once this many memstores await a background flush.
    pub flush_max_frozen: Option<usize>,
    /// `MET_COMPACT_MIN_FILES` — file count that triggers a background
    /// compaction.
    pub compact_min_files: Option<usize>,
    /// `MET_COMPACT_WORKERS` — background compactor pool size.
    pub compact_workers: Option<usize>,
    /// `MET_STORE_THROTTLE_FILES` — soft stall limit: writes are
    /// throttled from this store-file count up.
    pub store_throttle_files: Option<usize>,
    /// `MET_STORE_BLOCKING_FILES` — hard stall limit: writers block while
    /// this many store files exist (HBase's `blockingStoreFiles`).
    pub store_blocking_files: Option<usize>,
    /// `MET_PERF_ASSERT_WRITER_SPEEDUP` — minimum background-on /
    /// background-off writer ops/s ratio on `store-put-heavy` below which
    /// `exp-perf` exits non-zero. Armed on multi-core CI only (cf.
    /// `MET_PERF_ASSERT_CLIENT_SPEEDUP`).
    pub perf_assert_writer_speedup: Option<f64>,
}

/// Interprets a profiler-gate string: `1`, `true`, `on`, `yes`
/// (case-insensitive) arm it, anything else leaves it off.
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
            perf_ops: get("MET_PERF_OPS").and_then(|s| s.trim().parse().ok()),
            perf_ticks: get("MET_PERF_TICKS").and_then(|s| s.trim().parse().ok()),
            perf_warmup_ticks: get("MET_PERF_WARMUP_TICKS").and_then(|s| s.trim().parse().ok()),
            perf_reps: get("MET_PERF_REPS").and_then(|s| s.trim().parse().ok()),
            perf_clients: get("MET_PERF_CLIENTS").and_then(|s| s.trim().parse().ok()),
            perf_assert_client_speedup: get("MET_PERF_ASSERT_CLIENT_SPEEDUP")
                .and_then(|s| s.trim().parse().ok()),
            perf_commit: get("MET_PERF_COMMIT")
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty()),
            bench_path: get("MET_BENCH_PATH").map(PathBuf::from),
            profile: get("MET_PROFILE").as_deref().map(is_truthy).unwrap_or(false)
                || get("MET_SPANS").as_deref().map(is_truthy).unwrap_or(false),
            profile_out: get("MET_PROFILE_OUT").map(PathBuf::from),
            profile_minutes: get("MET_PROFILE_MINUTES").and_then(|s| s.trim().parse().ok()),
            crash_ops: get("MET_CRASH_OPS").and_then(|s| s.trim().parse().ok()),
            crash_seed: get("MET_CRASH_SEED").and_then(|s| s.trim().parse().ok()),
            crash_bg: get("MET_CRASH_BG").as_deref().map(is_truthy).unwrap_or(false),
            flush_memstore_bytes: get("MET_FLUSH_MEMSTORE_BYTES")
                .and_then(|s| s.trim().parse().ok()),
            flush_max_frozen: get("MET_FLUSH_MAX_FROZEN").and_then(|s| s.trim().parse().ok()),
            compact_min_files: get("MET_COMPACT_MIN_FILES").and_then(|s| s.trim().parse().ok()),
            compact_workers: get("MET_COMPACT_WORKERS").and_then(|s| s.trim().parse().ok()),
            store_throttle_files: get("MET_STORE_THROTTLE_FILES")
                .and_then(|s| s.trim().parse().ok()),
            store_blocking_files: get("MET_STORE_BLOCKING_FILES")
                .and_then(|s| s.trim().parse().ok()),
            perf_assert_writer_speedup: get("MET_PERF_ASSERT_WRITER_SPEEDUP")
                .and_then(|s| s.trim().parse().ok()),
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
        assert!(!c.profile, "profiling is off by default");
        assert_eq!(c.profile_out, None);
        assert_eq!(c.profile_minutes, None);
        assert_eq!(c.crash_ops, None);
        assert_eq!(c.crash_seed, None);
        assert!(!c.crash_bg, "crash audit runs inline maintenance by default");
        assert_eq!(c.flush_memstore_bytes, None);
        assert_eq!(c.flush_max_frozen, None);
        assert_eq!(c.compact_min_files, None);
        assert_eq!(c.compact_workers, None);
        assert_eq!(c.store_throttle_files, None);
        assert_eq!(c.store_blocking_files, None);
        assert_eq!(c.perf_assert_writer_speedup, None);
    }

    #[test]
    fn parses_every_knob() {
        let c = EnvConfig::from_lookup(lookup(&[
            ("MET_TRACE", "/tmp/trail.jsonl"),
            ("MET_TRACE_LEVEL", "info"),
            ("MET_FAULT_PLAN", "reference"),
            ("MET_FAULT_SEED", "7"),
            ("MET_PERF_OPS", "5000"),
            ("MET_PERF_TICKS", "30"),
            ("MET_PERF_WARMUP_TICKS", "10"),
            ("MET_PERF_REPS", "3"),
            ("MET_PERF_CLIENTS", "4"),
            ("MET_PERF_ASSERT_CLIENT_SPEEDUP", "2.0"),
            ("MET_PERF_COMMIT", " abc1234 "),
            ("MET_BENCH_PATH", "/tmp/BENCH_perf.json"),
            ("MET_PROFILE", "1"),
            ("MET_PROFILE_OUT", "/tmp/profile"),
            ("MET_PROFILE_MINUTES", "6"),
            ("MET_CRASH_OPS", "200"),
            ("MET_CRASH_SEED", "9"),
            ("MET_CRASH_BG", "1"),
            ("MET_FLUSH_MEMSTORE_BYTES", "65536"),
            ("MET_FLUSH_MAX_FROZEN", "3"),
            ("MET_COMPACT_MIN_FILES", "5"),
            ("MET_COMPACT_WORKERS", "2"),
            ("MET_STORE_THROTTLE_FILES", "10"),
            ("MET_STORE_BLOCKING_FILES", "20"),
            ("MET_PERF_ASSERT_WRITER_SPEEDUP", "1.1"),
        ]));
        assert_eq!(c.trace_path.as_deref(), Some(std::path::Path::new("/tmp/trail.jsonl")));
        assert_eq!(c.trace_level.as_deref(), Some("info"));
        assert_eq!(c.fault_plan.as_deref(), Some("reference"));
        assert_eq!(c.fault_seed, 7);
        assert_eq!(c.perf_ops, Some(5000));
        assert_eq!(c.perf_ticks, Some(30));
        assert_eq!(c.perf_warmup_ticks, Some(10));
        assert_eq!(c.perf_reps, Some(3));
        assert_eq!(c.perf_clients, Some(4));
        assert_eq!(c.perf_assert_client_speedup, Some(2.0));
        assert_eq!(c.perf_commit.as_deref(), Some("abc1234"));
        assert_eq!(c.bench_path.as_deref(), Some(std::path::Path::new("/tmp/BENCH_perf.json")));
        assert!(c.profile);
        assert_eq!(c.profile_out.as_deref(), Some(std::path::Path::new("/tmp/profile")));
        assert_eq!(c.profile_minutes, Some(6));
        assert_eq!(c.crash_ops, Some(200));
        assert_eq!(c.crash_seed, Some(9));
        assert!(c.crash_bg);
        assert_eq!(c.flush_memstore_bytes, Some(65536));
        assert_eq!(c.flush_max_frozen, Some(3));
        assert_eq!(c.compact_min_files, Some(5));
        assert_eq!(c.compact_workers, Some(2));
        assert_eq!(c.store_throttle_files, Some(10));
        assert_eq!(c.store_blocking_files, Some(20));
        assert_eq!(c.perf_assert_writer_speedup, Some(1.1));
    }

    #[test]
    fn profile_gate_accepts_either_knob_and_truthy_spellings() {
        for v in ["1", "true", "ON", "yes"] {
            assert!(EnvConfig::from_lookup(lookup(&[("MET_PROFILE", v)])).profile, "{v}");
            assert!(EnvConfig::from_lookup(lookup(&[("MET_SPANS", v)])).profile, "{v}");
        }
        for v in ["0", "false", "off", "", "maybe"] {
            assert!(!EnvConfig::from_lookup(lookup(&[("MET_PROFILE", v)])).profile, "{v:?}");
        }
    }

    #[test]
    fn bad_values_fall_back() {
        let c = EnvConfig::from_lookup(lookup(&[("MET_FAULT_SEED", "NaN")]));
        assert_eq!(c.fault_seed, 42);
    }
}
