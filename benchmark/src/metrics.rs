//! The metric catalogue: every name the benchmark may print, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names (a unit
//! test compares the two), so a metric cannot be printed without being
//! declared, nor declared without being printed.

use serde_json::{Map, Value};

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees. Every workload reports every one of
/// these from its untraced run. `lat_*` is the latency of the workload's
/// primary operation class: point get on `read-fit`, `read-spill` and
/// `durable-rw`, scan on `scan-insert`, one simulated tick (step + MeT) on
/// `control-loop`. `ops_per_s` counts ticks on `control-loop`. Batches (or
/// repetitions) are summarized by their median, except the tick p99 of
/// `control-loop`, which is that of the quietest repetition.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("ops_per_s", "1/s", "higher"),
    m("lat_p50_us", "us", "lower"),
    m("lat_p99_us", "us", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Single-layer costs and counts, taken in the traced run. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // The harness itself.
    m("trace.overhead_frac", "ratio", "higher"),
    m("ycsb.client.gen_ns", "ns", "lower"),
    m("ycsb.client.overhead_ns", "ns", "lower"),
    // Client-side latency per operation class, and the write/space trade.
    m("read_p50_us", "us", "lower"),
    m("read_p99_us", "us", "lower"),
    m("scan_p50_us", "us", "lower"),
    m("scan_p99_us", "us", "lower"),
    m("put_p50_us", "us", "lower"),
    m("put_p99_us", "us", "lower"),
    m("write_amp", "ratio", "lower"),
    m("space_amp", "ratio", "lower"),
    // Routing and dispatch above the store.
    m("cluster.functional.route_ns", "ns", "lower"),
    m("hstore.region.self_ns", "ns", "lower"),
    // The point-read path on a cache hit.
    m("hstore.store.get_ns", "ns", "lower"),
    m("hstore.store.files_probed_per_get", "count", "lower"),
    m("hstore.store.memstore_hit_ratio", "ratio", "higher"),
    m("hstore.memstore.get_ns", "ns", "lower"),
    m("hstore.bloom.probe_ns", "ns", "lower"),
    m("hstore.bloom.skip_ratio", "ratio", "higher"),
    m("hstore.block_cache.touch_hit_ns", "ns", "lower"),
    m("hstore.hfile.get_hit_ns", "ns", "lower"),
    // The point-read path on a cache miss.
    m("hstore.block_cache.hit_ratio", "ratio", "higher"),
    m("hstore.block_cache.evictions_per_kop", "count", "lower"),
    m("hstore.block_cache.touch_miss_ns", "ns", "lower"),
    m("hstore.hfile.get_miss_ns", "ns", "lower"),
    m("hstore.hfile.verify_ns_per_kib", "ns/KiB", "lower"),
    // The scan path.
    m("hstore.store.scan_ns_per_row", "ns/row", "lower"),
    m("hstore.store.scan_rows_per_op", "count", "higher"),
    m("hstore.hfile.blocks_per_scan", "count", "lower"),
    // The write path.
    m("hstore.store.put_ns", "ns", "lower"),
    m("hstore.memstore.insert_ns", "ns", "lower"),
    m("hstore.wal.append_ns", "ns", "lower"),
    m("hstore.wal.sync_ns", "ns", "lower"),
    m("hstore.wal.syncs_per_put", "ratio", "lower"),
    m("hstore.wal.crc_ns_per_kib", "ns/KiB", "lower"),
    m("hstore.wal.bytes_per_user_byte", "ratio", "lower"),
    // Background maintenance.
    m("hstore.maintenance.flushes", "count", "lower"),
    m("hstore.maintenance.flush_bytes_per_user_byte", "ratio", "lower"),
    m("hstore.maintenance.compactions", "count", "lower"),
    m("hstore.maintenance.compaction_bytes_per_user_byte", "ratio", "lower"),
    m("hstore.maintenance.writer_stalls", "count", "lower"),
    m("hstore.maintenance.stall_ms", "ms", "lower"),
    m("hstore.maintenance.throttled_writes", "count", "lower"),
    m("hstore.maintenance.frozen_peak", "count", "lower"),
    m("hstore.maintenance.files_end", "count", "lower"),
    m("hstore.store.flush_ms_per_mib", "ms/MiB", "lower"),
    m("hstore.store.compact_ms_per_mib", "ms/MiB", "lower"),
    m("hstore.hfile.build_ms_per_mib", "ms/MiB", "lower"),
    // Restart.
    m("hstore.store.recover_ms", "ms", "lower"),
    m("hstore.wal.replay_ms", "ms", "lower"),
    m("hstore.wal.replayed_records", "count", "lower"),
    // Fixed-rate phase.
    m("open.put_p99_us", "us", "lower"),
    m("open.read_p99_us", "us", "lower"),
    m("open.late_max_us", "us", "lower"),
    m("open.backlog_end_ops", "count", "lower"),
    // The control loop.
    m("cluster.sim.step_p50_us", "us", "lower"),
    m("cluster.sim.step_p99_us", "us", "lower"),
    m("cluster.sim.step_share", "ratio", "lower"),
    m("cluster.sim.snapshot_us", "us", "lower"),
    m("met.framework.tick_p50_us", "us", "lower"),
    m("met.framework.tick_p99_us", "us", "lower"),
    m("met.monitor.observe_us", "us", "lower"),
    m("met.decision.decide_us", "us", "lower"),
    m("met.reconfigurations", "count", "lower"),
    m("met.actuator.actions", "count", "lower"),
    m("simcore.par.speedup_t2", "ratio", "higher"),
    m("telemetry.overhead_frac", "ratio", "lower"),
    // How much of a point get the unit costs above explain.
    m("hstore.store.attribution_gap_frac", "ratio", "lower"),
];

/// The values of one run, keyed by declared metric.
#[derive(Debug, Clone)]
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl MetricSet {
    /// Every metric of `defs` at 0.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        MetricSet { defs, values: vec![0.0; defs.len()] }
    }

    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in this set: an undeclared metric
    /// is a bug in the benchmark, not a run-time condition.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not declared in metrics.rs"));
        self.values[i] = if value.is_finite() { value } else { 0.0 };
    }

    /// The recorded value of `name` (0 if never set or undeclared).
    pub fn get(&self, name: &str) -> f64 {
        self.iter().find(|(d, _)| d.name == name).map_or(0.0, |(_, v)| v)
    }

    /// Declared metrics with their values, in catalogue order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricDef, f64)> {
        self.defs.iter().zip(self.values.iter().copied())
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for the result line.
    pub fn to_json(&self) -> Value {
        let mut map = Map::new();
        for (def, value) in self.iter() {
            let mut entry = Map::new();
            entry.insert("value".into(), Value::Number(value));
            entry.insert("unit".into(), Value::String(def.unit.into()));
            map.insert(def.name.into(), Value::Object(entry));
        }
        Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &Value) -> Vec<(String, String, String)> {
        section
            .as_array()
            .expect("section is an array")
            .iter()
            .map(|e| {
                let s = |k: &str| e.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter().map(|d| (d.name.into(), d.unit.into(), d.better.into())).collect()
    }

    /// The printed names are exactly the names `BENCHMARK.json` declares.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(json.get("end_to_end").expect("end_to_end")), catalogue(END_TO_END));
        assert_eq!(declared(json.get("per_layer").expect("per_layer")), catalogue(PER_LAYER));
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_across_both_sections() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn set_and_render() {
        let mut s = MetricSet::new(END_TO_END);
        s.set("setup_s", 0.5);
        s.set("ops_per_s", f64::NAN);
        assert_eq!(s.get("setup_s"), 0.5);
        assert_eq!(s.get("ops_per_s"), 0.0);
        let json = s.to_json();
        assert_eq!(json["setup_s"]["unit"], "s");
        assert_eq!(json.as_object().map(|o| o.len()), Some(END_TO_END.len()));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_panics() {
        MetricSet::new(END_TO_END).set("nope", 1.0);
    }
}
