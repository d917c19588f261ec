//! The five workloads. Each builds its system under test from fixed
//! sizes, drives it with a seeded operation stream, checks every output,
//! and reports either the end-to-end metrics (untraced run) or the
//! per-layer metrics (traced run).

pub mod cluster;
pub mod control;
pub mod durable;

use crate::harness::{trace_path, Class, SpanRecorder, Window};
use crate::host::peak_rss_mib;
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::stats::ratio;
use hstore::{CacheStats, MaintenanceSnapshot};
use std::time::Duration;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] =
    ["read-fit", "read-spill", "scan-insert", "durable-rw", "control-loop"];

/// Times the system under test is built per untraced run; `setup_s` is the
/// median of these.
pub const SETUP_REPS: usize = 3;

/// Raw spans of each name kept for the Chrome-trace file.
pub const SPANS_KEPT_PER_NAME: usize = 5_000;

/// What one invocation asks of a workload.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one
    /// (end-to-end metrics).
    pub trace: bool,
    /// 1 % sizes: exercises every code path in a fraction of a second.
    pub smoke: bool,
}

impl RunConfig {
    /// `full`, or 1 % of it (at least `floor`) in a smoke run.
    pub fn scaled(&self, full: u64, floor: u64) -> u64 {
        if self.smoke {
            (full / 100).max(floor)
        } else {
            full
        }
    }

    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }

    /// `share` of the measured window.
    pub fn share(&self, share: f64) -> Duration {
        self.window().mul_f64(share)
    }

    /// The warm-up before anything is measured: a quarter of the window.
    pub fn warmup(&self) -> Duration {
        self.share(0.25)
    }
}

/// What a workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations (and output checks) attempted.
    pub attempted: u64,
    /// Of those, how many produced a wrong output.
    pub failed: u64,
    /// The metrics of the requested mode, every declared name present.
    pub metrics: MetricSet,
    /// Human-readable diagnostics (sample counts, p99.9, max, sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    /// An empty outcome for the requested mode.
    pub fn new(trace: bool) -> Self {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        Outcome { attempted: 0, failed: 0, metrics: MetricSet::new(defs), notes: Vec::new() }
    }

    /// Every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// Adds a diagnostic line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts a window's operations and failed output checks.
    pub fn count(&mut self, w: &Window) {
        self.attempted += w.attempted;
        self.failed += w.failed;
    }

    /// Prints a window's per-class latency with sample counts, p99.9 and
    /// max.
    pub fn note_window(&mut self, label: &str, w: &Window) {
        self.note(format!(
            "{label}: {} ops in {} batches, median batch rate {:.0} ops/s, gen {:.0} ns/op",
            w.attempted, w.batches, w.ops_per_s, w.gen_ns
        ));
        for class in Class::ALL {
            let s = w.class(class);
            if s.count > 0 {
                self.note(format!(
                    "  {}: n={} mean {:.3} us, p50 {:.3} us, p99 {:.3} us, p99.9 {:.3} us, max {:.3} us",
                    class.name(),
                    s.count,
                    s.mean_ns() / 1e3,
                    s.p50_ns / 1e3,
                    s.p99_ns / 1e3,
                    s.p999_ns / 1e3,
                    s.max_ns as f64 / 1e3,
                ));
            }
        }
    }

    /// The end-to-end metrics of a storage workload: the measured window
    /// `w`, latency of its `primary` class, and the process's peak RSS as
    /// of this call (so call it once the run has nothing left to allocate).
    pub fn set_end_to_end(&mut self, setup_s: f64, w: &Window, primary: Class) {
        self.count(w);
        self.note_window("closed loop", w);
        let m = &mut self.metrics;
        m.set("setup_s", setup_s);
        m.set("ops_per_s", w.ops_per_s);
        m.set("lat_p50_us", w.class(primary).p50_ns / 1e3);
        m.set("lat_p99_us", w.class(primary).p99_ns / 1e3);
        m.set("peak_rss_mb", peak_rss_mib());
    }

    /// The metrics every traced storage workload takes from its paired
    /// window: tracing overhead, generation cost, per-class latency (of the
    /// untraced half) and the block cache's behaviour over both halves.
    pub fn set_traced_window(&mut self, plain: &Window, traced: &Window, cache: CacheStats) {
        self.count(plain);
        self.count(traced);
        self.note_window("untraced", plain);
        self.note_window("traced", traced);
        let ops = (plain.attempted + traced.attempted) as f64;
        let m = &mut self.metrics;
        m.set("trace.overhead_frac", ratio(traced.ops_per_s, plain.ops_per_s) - 1.0);
        m.set("ycsb.client.gen_ns", (plain.gen_ns + traced.gen_ns) / 2.0);
        for class in Class::ALL {
            let s = plain.class(class);
            m.set(&format!("{}_p50_us", class.name()), s.p50_ns / 1e3);
            m.set(&format!("{}_p99_us", class.name()), s.p99_ns / 1e3);
        }
        m.set("hstore.block_cache.hit_ratio", cache.hit_ratio());
        m.set("hstore.block_cache.evictions_per_kop", ratio(cache.evictions as f64 * 1e3, ops));
    }

    /// Sets every `hstore.maintenance.*` metric from a pipeline snapshot.
    pub fn set_maintenance(&mut self, snap: &MaintenanceSnapshot, frozen_peak: u64, user: f64) {
        let m = &mut self.metrics;
        m.set("hstore.maintenance.flushes", snap.flushes_completed as f64);
        m.set("hstore.maintenance.flush_bytes_per_user_byte", ratio(snap.flush_bytes as f64, user));
        m.set("hstore.maintenance.compactions", snap.compactions_completed as f64);
        m.set(
            "hstore.maintenance.compaction_bytes_per_user_byte",
            ratio(snap.compaction_bytes_rewritten as f64, user),
        );
        m.set("hstore.maintenance.writer_stalls", snap.writer_stalls as f64);
        m.set("hstore.maintenance.stall_ms", snap.stall_micros_total as f64 / 1e3);
        m.set("hstore.maintenance.throttled_writes", snap.throttled_writes as f64);
        m.set("hstore.maintenance.frozen_peak", frozen_peak as f64);
        m.set("hstore.maintenance.files_end", snap.file_count as f64);
    }

    /// Writes the traced run's span file and says where it went.
    pub fn write_spans(
        &mut self,
        rec: &SpanRecorder,
        workload: &str,
        seed: u64,
    ) -> Result<(), String> {
        let path = trace_path(workload, seed);
        rec.write_chrome(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        self.note(format!("spans written to {}", path.display()));
        Ok(())
    }
}

/// Cache activity between two snapshots of its cumulative counters.
pub fn cache_delta(now: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: now.hits - before.hits,
        misses: now.misses - before.misses,
        evictions: now.evictions - before.evictions,
    }
}

/// Runs the workload called `name`.
pub fn run(name: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match name {
        "read-fit" => cluster::run(cluster::Kind::ReadFit, cfg),
        "read-spill" => cluster::run(cluster::Kind::ReadSpill, cfg),
        "scan-insert" => cluster::run(cluster::Kind::ScanInsert, cfg),
        "durable-rw" => durable::run(cfg),
        "control-loop" => control::run(cfg),
        other => Err(format!("unknown workload '{other}' (known: {})", NAMES.join(", "))),
    }
}
