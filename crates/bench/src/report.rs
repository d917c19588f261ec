//! Machine-readable result emission.
//!
//! Every `exp` row writes a JSON record next to its human-readable table
//! (under `results/`, override with `MET_RESULTS_DIR`) so the numbers in
//! EXPERIMENTS.md are regenerable and diffable.

use serde_json::Value;
use std::path::{Path, PathBuf};
use telemetry::Telemetry;

/// Writes `value` as pretty JSON to `<dir>/<name>.json` (creating `dir`
/// if missing), returning the path. IO errors are reported to stderr, not
/// fatal — a read-only checkout still runs the experiments.
pub fn write_json(dir: &Path, name: &str, value: &Value) -> Option<PathBuf> {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("report: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(body) => match std::fs::write(&path, body) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("report: cannot write {}: {e}", path.display());
                None
            }
        },
        Err(e) => {
            eprintln!("report: cannot serialize {name}: {e}");
            None
        }
    }
}

/// Summarizes a run's telemetry registry for the JSON report: modelled
/// block-cache hit rate, per-kind actuator action counts, reconfiguration
/// totals, and decision-loop latency percentiles.
///
/// Returns `Null` for a disabled pipeline so reports stay diffable whether
/// or not telemetry was wired in.
pub fn telemetry_summary(telemetry: &Telemetry) -> Value {
    if !telemetry.is_enabled() {
        return Value::Null;
    }
    let snapshot = telemetry.metrics();
    // Fleet-wide modelled cache hit rate: sum the per-server cumulative
    // hit/miss gauges published by the simulator.
    let gauge_sum = |name: &str| -> f64 {
        snapshot.gauges.iter().filter(|(k, _)| k.name == name).map(|(_, v)| v).sum()
    };
    let hits = gauge_sum("sim_block_cache_hits");
    let misses = gauge_sum("sim_block_cache_misses");
    let cache_hit_rate = if hits + misses > 0.0 { hits / (hits + misses) } else { 1.0 };

    // Per-kind actuator action counts (`met_actions_total{action=...}`).
    let mut actions = serde_json::Map::new();
    for (key, count) in &snapshot.counters {
        if key.name != "met_actions_total" {
            continue;
        }
        for (label, value) in &key.labels {
            if label == "action" {
                actions.insert(value.clone(), serde_json::json!(*count));
            }
        }
    }

    // Decision rounds per verdict (`met_decisions_total{verdict=...}`).
    let decisions = |verdict: &str| -> u64 {
        let counted = snapshot.counters.iter().filter(|(k, _)| {
            k.name == "met_decisions_total"
                && k.labels.iter().any(|(l, v)| l == "verdict" && v == verdict)
        });
        counted.map(|(_, v)| v).sum()
    };

    let histogram_json = |name: &str| -> Value {
        match snapshot.histogram(name) {
            None => Value::Null,
            Some(h) => serde_json::json!({
                "count": h.count,
                "mean": round3(h.mean()),
                "p50": round3(h.p50),
                "p95": round3(h.p95),
                "p99": round3(h.p99),
                "max": round3(h.max),
            }),
        }
    };

    serde_json::json!({
        "cache_hit_rate": round3(cache_hit_rate),
        "monitor_samples": snapshot.counter_total("met_monitor_samples_total"),
        "decisions": {"healthy": decisions("healthy"), "reconfigure": decisions("reconfigure")},
        "actions": Value::Object(actions),
        "reconfigurations": snapshot.counter_total("met_reconfigurations_total"),
        "decision_interval_ms": histogram_json("met_decision_interval_ms"),
        "action_duration_ms": histogram_json("met_action_duration_ms"),
        "reconfig_duration_ms": histogram_json("met_reconfig_duration_ms"),
    })
}

/// Converts a `(minutes, value)` curve into a JSON array of pairs.
pub fn curve_json(curve: &[(f64, f64)]) -> Value {
    Value::Array(curve.iter().map(|(t, v)| serde_json::json!([round3(*t), round3(*v)])).collect())
}

fn round3(v: f64) -> f64 {
    (v * 1_000.0).round() / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_reads_back() {
        let dir = std::env::temp_dir().join(format!("met-report-{}", std::process::id()));
        let value = serde_json::json!({"answer": 42, "curve": curve_json(&[(1.0, 2.5)])});
        let path = write_json(&dir, "unit-test", &value).expect("writable temp dir");
        let read: Value =
            serde_json::from_str(&std::fs::read_to_string(&path).expect("file exists"))
                .expect("valid json");
        assert_eq!(read["answer"], 42);
        assert_eq!(read["curve"][0][1], 2.5);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn curve_rounds_to_millis() {
        let v = curve_json(&[(0.123456, 9.876543)]);
        assert_eq!(v[0][0], 0.123);
        assert_eq!(v[0][1], 9.877);
    }
}
