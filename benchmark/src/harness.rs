//! The measuring loop shared by the storage workloads, and the span
//! recorder of the traced run.
//!
//! Load comes from **one client thread**: this host has two cores, and the
//! engine's own flusher and compactor threads need the other one. A second
//! spinning client measures the scheduler, not the program.
//!
//! A measured window is a sequence of fixed-size batches. Operations of a
//! batch are generated before its clock starts; inside, every operation is
//! timed from the previous operation's completion (one clock read per
//! operation). Each batch yields its own throughput and per-class p50 /
//! p99; the window reports the **median over batches**, which a noisy
//! neighbour stealing the core for a few hundred milliseconds cannot move.

use crate::gen::{Op, OpGen};
use crate::stats::{median, percentile_ns, ratio};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Operation classes with their own latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Point get.
    Read = 0,
    /// Range scan.
    Scan = 1,
    /// Put (update or insert).
    Put = 2,
}

impl Class {
    /// All classes, in `Class as usize` order.
    pub const ALL: [Class; 3] = [Class::Read, Class::Scan, Class::Put];

    /// `read`, `scan` or `put` — the prefix of the class's metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Scan => "scan",
            Class::Put => "put",
        }
    }
}

impl Op {
    /// The latency class of this operation.
    pub fn class(&self) -> Class {
        match self {
            Op::Get { .. } => Class::Read,
            Op::Scan { .. } => Class::Scan,
            Op::Put { .. } => Class::Put,
        }
    }
}

/// Identifies a registered span name in a [`SpanRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanKind(usize);

#[derive(Debug, Clone)]
struct KindTotals {
    name: &'static str,
    parent: &'static str,
    count: u64,
    total_ns: u64,
    kept: usize,
}

#[derive(Debug, Clone, Copy)]
struct Span {
    kind: usize,
    op: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// Spans recorded from outside the engine, around calls into each layer's
/// public functions. Totals cover every span; the raw records kept for the
/// Chrome-trace file are capped per name so a run of millions of
/// operations writes megabytes, not gigabytes. Spans of one operation —
/// the call into the cluster and its replays one layer down on the
/// mirrors — share the operation's index as `op`.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    kinds: Vec<KindTotals>,
    spans: Vec<Span>,
    keep_per_kind: usize,
}

impl SpanRecorder {
    /// A recorder keeping at most `keep_per_kind` raw spans of each name.
    pub fn new(keep_per_kind: usize) -> Self {
        SpanRecorder { epoch: Instant::now(), kinds: Vec::new(), spans: Vec::new(), keep_per_kind }
    }

    /// Registers a span name under the span that causes it (`""` = root).
    pub fn register(&mut self, name: &'static str, parent: &'static str) -> SpanKind {
        if let Some(i) = self.kinds.iter().position(|k| k.name == name) {
            return SpanKind(i);
        }
        self.kinds.push(KindTotals { name, parent, count: 0, total_ns: 0, kept: 0 });
        SpanKind(self.kinds.len() - 1)
    }

    /// Records one span of `kind` for operation `op`.
    #[inline]
    pub fn record(&mut self, kind: SpanKind, op: u64, start: Instant, dur_ns: u64) {
        let k = &mut self.kinds[kind.0];
        k.count += 1;
        k.total_ns += dur_ns;
        if k.kept < self.keep_per_kind {
            k.kept += 1;
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span { kind: kind.0, op, start_ns, dur_ns });
        }
    }

    /// Writes the kept spans as Chrome trace-event JSON (complete events,
    /// one `tid` per span name so layers stack as tracks).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let k = &self.kinds[s.kind];
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"parent\":\"{}\"}}}}{sep}",
                k.name,
                s.kind + 1,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.op,
                k.parent,
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

/// Where the traced run leaves its span file: `benchmark/out/` under the
/// checkout root the benchmark was started from (plain `out/` when
/// started from inside the package, as `cargo test` does).
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let dir = if Path::new("benchmark").is_dir() { "benchmark/out" } else { "out" };
    PathBuf::from(dir).join(format!("trace-{workload}-{seed}.json"))
}

/// Tracing hooks for [`run_batch`]: where to record and under which names.
pub struct Tracing<'a> {
    /// The recorder.
    pub recorder: &'a mut SpanRecorder,
    /// Span name per operation class, indexed by `Class as usize`.
    pub kinds: [SpanKind; 3],
    /// Operation index of the batch's first operation.
    pub op_base: u64,
}

/// Reusable per-class latency buffers of one batch.
#[derive(Debug, Default)]
pub struct LatBufs(pub [Vec<u32>; 3]);

impl LatBufs {
    fn clear(&mut self) {
        self.0.iter_mut().for_each(Vec::clear);
    }
}

/// Runs `ops` back to back through `exec` (which executes one operation
/// and says whether its output was correct), timing each from the previous
/// completion. Returns the batch wall time in ns and the number of
/// incorrect operations.
pub fn run_batch(
    ops: &[Op],
    lat: &mut LatBufs,
    mut tracing: Option<Tracing<'_>>,
    mut exec: impl FnMut(&Op) -> bool,
) -> (u64, u64) {
    lat.clear();
    let mut failed = 0u64;
    let start = Instant::now();
    let mut prev = start;
    for (i, op) in ops.iter().enumerate() {
        let ok = exec(op);
        let now = Instant::now();
        let ns = now.duration_since(prev).as_nanos() as u64;
        let class = op.class() as usize;
        lat.0[class].push(ns.min(u32::MAX as u64) as u32);
        if let Some(t) = &mut tracing {
            t.recorder.record(t.kinds[class], t.op_base + i as u64, prev, ns);
        }
        prev = now;
        failed += u64::from(!ok);
    }
    (prev.duration_since(start).as_nanos() as u64, failed)
}

/// Per-class latency summary of a window.
#[derive(Debug, Clone, Default)]
pub struct ClassSummary {
    /// Operations of the class in the window.
    pub count: u64,
    /// Sum of their latencies, ns.
    pub total_ns: u64,
    /// Median over batches of the batch p50, ns.
    pub p50_ns: f64,
    /// Median over batches of the batch p99, ns.
    pub p99_ns: f64,
    /// Median over batches of the batch p99.9, ns (diagnostic).
    pub p999_ns: f64,
    /// Slowest single operation, ns (diagnostic).
    pub max_ns: u64,
}

impl ClassSummary {
    /// Mean latency, ns.
    pub fn mean_ns(&self) -> f64 {
        ratio(self.total_ns as f64, self.count as f64)
    }
}

/// What a closed-loop window measured.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Batches run.
    pub batches: usize,
    /// Median over batches of batch throughput, ops/s.
    pub ops_per_s: f64,
    /// Latency per class, indexed by `Class as usize`.
    pub classes: [ClassSummary; 3],
    /// Mean generation cost per operation, ns (outside the timed call).
    pub gen_ns: f64,
}

impl Window {
    /// The summary of `class`.
    pub fn class(&self, class: Class) -> &ClassSummary {
        &self.classes[class as usize]
    }
}

/// Accumulates batches into a [`Window`].
#[derive(Debug, Default)]
struct WindowAcc {
    rates: Vec<f64>,
    p50: [Vec<f64>; 3],
    p99: [Vec<f64>; 3],
    p999: [Vec<f64>; 3],
    window: Window,
    gen_total_ns: u64,
}

impl WindowAcc {
    fn add(&mut self, ops: usize, wall_ns: u64, failed: u64, gen_ns: u64, lat: &mut LatBufs) {
        self.window.attempted += ops as u64;
        self.window.failed += failed;
        self.window.batches += 1;
        self.gen_total_ns += gen_ns;
        self.rates.push(ratio(ops as f64 * 1e9, wall_ns as f64));
        for c in 0..3 {
            let samples = &mut lat.0[c];
            if samples.is_empty() {
                continue;
            }
            let s = &mut self.window.classes[c];
            s.count += samples.len() as u64;
            s.total_ns += samples.iter().map(|v| *v as u64).sum::<u64>();
            s.max_ns = s.max_ns.max(samples.iter().copied().max().unwrap_or(0) as u64);
            self.p50[c].push(percentile_ns(samples, 50.0));
            self.p99[c].push(percentile_ns(samples, 99.0));
            self.p999[c].push(percentile_ns(samples, 99.9));
        }
    }

    fn finish(mut self) -> Window {
        self.window.ops_per_s = median(&mut self.rates);
        self.window.gen_ns = ratio(self.gen_total_ns as f64, self.window.attempted as f64);
        for c in 0..3 {
            let s = &mut self.window.classes[c];
            s.p50_ns = median(&mut self.p50[c]);
            s.p99_ns = median(&mut self.p99[c]);
            s.p999_ns = median(&mut self.p999[c]);
        }
        self.window
    }
}

/// The system under test as the closed loop sees it.
pub trait Driver {
    /// Executes one operation and says whether its output was correct.
    fn exec(&mut self, op: &Op) -> bool;

    /// Runs between batches, outside every timed region (the workloads
    /// sample queue depths here).
    fn after_batch(&mut self) {}
}

/// Closed loop, one client: batches of `batch` operations from `gen` run
/// through `driver` until `duration` has passed (at least one batch).
pub fn closed_loop(
    duration: Duration,
    batch: usize,
    gen: &mut OpGen,
    driver: &mut impl Driver,
) -> Window {
    run_loop(duration, batch, gen, None, driver).0
}

/// [`closed_loop`] with half the batches traced under `kinds` (span name
/// per class): returns the untraced and the traced half. Batches go
/// untraced, traced, traced, untraced, ... so a slow phase of the host —
/// or a store that slows steadily as it fills — falls on both halves
/// alike and their ratio is the cost of tracing alone.
pub fn closed_loop_paired(
    duration: Duration,
    batch: usize,
    gen: &mut OpGen,
    recorder: &mut SpanRecorder,
    kinds: [SpanKind; 3],
    driver: &mut impl Driver,
) -> (Window, Window) {
    run_loop(duration, batch, gen, Some((recorder, kinds)), driver)
}

fn run_loop(
    duration: Duration,
    batch: usize,
    gen: &mut OpGen,
    mut trace: Option<(&mut SpanRecorder, [SpanKind; 3])>,
    driver: &mut impl Driver,
) -> (Window, Window) {
    let (mut plain, mut traced) = (WindowAcc::default(), WindowAcc::default());
    let mut lat = LatBufs::default();
    let start = Instant::now();
    let mut batches = 0u64;
    loop {
        let t = Instant::now();
        let ops = gen.batch(batch);
        let gen_ns = t.elapsed().as_nanos() as u64;
        let op_base = batches * batch as u64;
        let tracing = match &mut trace {
            Some((recorder, kinds)) if matches!(batches % 4, 1 | 2) => {
                Some(Tracing { recorder, kinds: *kinds, op_base })
            }
            _ => None,
        };
        let acc = if tracing.is_some() { &mut traced } else { &mut plain };
        let (wall_ns, failed) = run_batch(&ops, &mut lat, tracing, |op| driver.exec(op));
        acc.add(ops.len(), wall_ns, failed, gen_ns, &mut lat);
        driver.after_batch();
        batches += 1;
        // A paired window ends on a whole group of four, so both halves
        // hold the same number of batches.
        if start.elapsed() >= duration && (trace.is_none() || batches.is_multiple_of(4)) {
            break;
        }
    }
    (plain.finish(), traced.finish())
}

/// Builds the system under test `n` times (dropping each instance before
/// building the next) and returns the last instance with the median build
/// time in seconds — set-up is a metric of its own, so work moved out of
/// the measured window into it still shows.
pub fn timed_setups<T>(n: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut built = None;
    for _ in 0..n.max(1) {
        drop(built.take());
        let t = Instant::now();
        built = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (built.expect("at least one set-up ran"), median(&mut times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::spec;

    /// Fails every put, counts calls.
    #[derive(Default)]
    struct Probe {
        seen: u64,
        between: u64,
    }

    impl Driver for Probe {
        fn exec(&mut self, op: &Op) -> bool {
            self.seen += 1;
            !matches!(op, Op::Put { .. })
        }

        fn after_batch(&mut self) {
            self.between += 1;
        }
    }

    #[test]
    fn closed_loop_counts_every_operation_and_failure() {
        let mut gen = OpGen::new(spec("RW", 100), 1, "t");
        let mut probe = Probe::default();
        let w = closed_loop(Duration::ZERO, 500, &mut gen, &mut probe);
        assert_eq!((w.attempted, w.batches, probe.between), (500, 1, 1));
        assert_eq!(probe.seen, 500);
        assert_eq!(w.failed, w.class(Class::Put).count);
        assert_eq!(w.class(Class::Read).count + w.class(Class::Put).count, 500);
        assert!(w.ops_per_s > 0.0 && w.class(Class::Read).p99_ns >= w.class(Class::Read).p50_ns);
    }

    #[test]
    fn paired_loop_traces_half_the_batches() {
        let mut gen = OpGen::new(spec("C", 100), 1, "t");
        let mut probe = Probe::default();
        let mut rec = SpanRecorder::new(10);
        let k = rec.register("get", "");
        let (plain, traced) =
            closed_loop_paired(Duration::ZERO, 50, &mut gen, &mut rec, [k; 3], &mut probe);
        assert_eq!((plain.attempted, traced.attempted), (100, 100));
        assert_eq!(rec.kinds[0].count, 100);
        assert_eq!((rec.spans[0].op, rec.spans[9].op), (50, 59));
    }

    #[test]
    fn spans_total_everything_and_keep_a_bounded_prefix() {
        let mut rec = SpanRecorder::new(3);
        let root = rec.register("layer.a", "");
        let child = rec.register("layer.b", "layer.a");
        assert_eq!(rec.register("layer.a", ""), root);
        let t = Instant::now();
        for op in 0..10 {
            rec.record(root, op, t, 100);
            rec.record(child, op, t, 40);
        }
        assert_eq!((rec.kinds[0].count, rec.kinds[0].total_ns), (10, 1_000));
        assert_eq!((rec.kinds[1].count, rec.kinds[1].total_ns), (10, 400));
        assert_eq!(rec.spans.len(), 6);
        // Inside the package's ignored `out/`, like the real span files.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-spans");
        let path = dir.join("t.json");
        rec.write_chrome(&path).unwrap();
        let json = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let events = json["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 6);
        assert_eq!(events[1]["args"]["parent"], "layer.a");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn timed_setups_builds_n_times_and_keeps_the_last() {
        let mut n = 0;
        let (last, secs) = timed_setups(3, || {
            n += 1;
            n
        });
        assert_eq!((last, n), (3, 3));
        assert!(secs >= 0.0);
    }
}
