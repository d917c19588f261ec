//! Wall-clock span recorder.
//!
//! Everything else in this crate measures *simulated* time; this module
//! measures where *wall-clock* time goes inside a tick — per phase and per
//! recording thread — which sim-clock counters cannot say.
//!
//! * [`span`] / [`span_labeled`] / [`Telemetry::span`](crate::Telemetry::span)
//!   open a [`SpanGuard`] that records its start/end wall-clock
//!   timestamps, thread id and parent span when dropped.
//! * Records land in per-thread buffers (one buffer per OS thread,
//!   registered on first use); recording never contends with other
//!   threads — only [`drain`] briefly locks each buffer. (`hstore`'s
//!   flusher and compactor threads record their spans this way.)
//!
//! # Trace invisibility
//!
//! Recording is **off by default**; only [`set_enabled`] turns it on. The
//! disabled path is a single relaxed atomic load per call site — no
//! allocation, no clock read, no lock. Spans never write to the sim clock,
//! any RNG stream, or the telemetry event/metric pipeline, so recording
//! leaves JSONL traces, registry contents and simulation results
//! byte-identical: `met-bench`'s `determinism` gates hold with recording
//! on or off.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span (phase) name, e.g. `solver.evaluate`.
    pub name: &'static str,
    /// Label pairs attached at creation, e.g. `("server", "3")`.
    pub labels: Vec<(&'static str, String)>,
    /// Start, microseconds since the profiler epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Small stable id of the recording OS thread (0 = first recorder).
    pub thread: u64,
    /// Unique span id.
    pub id: u64,
    /// Enclosing span at creation time, if any.
    pub parent: Option<u64>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

/// A per-thread record buffer. Pushes lock the thread's own mutex, which
/// is uncontended except while a concurrent [`drain`]/[`clear`] briefly
/// holds it — recording threads never wait on each other.
struct ThreadBuffer {
    thread: u64,
    records: Mutex<Vec<SpanRecord>>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuffer>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuffer>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static BUFFER: RefCell<Option<Arc<ThreadBuffer>>> = const { RefCell::new(None) };
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Whether span recording is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn with_buffer(f: impl FnOnce(&ThreadBuffer)) {
    BUFFER.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf = Arc::new(ThreadBuffer {
                thread: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
                records: Mutex::new(Vec::new()),
            });
            registry().lock().unwrap().push(buf.clone());
            buf
        });
        f(buf);
    });
}

/// An open span; records itself into the current thread's buffer on drop.
/// Guards from a disabled profiler are inert.
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
    id: u64,
    /// The thread's open span when this one began; restored on drop.
    parent: Option<u64>,
    start: Instant,
}

impl SpanGuard {
    #[inline]
    fn inert() -> Self {
        SpanGuard { active: None }
    }

    /// This span's id (`None` for an inert guard).
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else { return };
        let end = Instant::now();
        let start_us =
            active.start.checked_duration_since(epoch()).unwrap_or_default().as_micros() as u64;
        let dur_us =
            end.checked_duration_since(active.start).unwrap_or_default().as_micros() as u64;
        CURRENT.with(|c| c.set(active.parent));
        with_buffer(|buf| {
            buf.records.lock().unwrap().push(SpanRecord {
                name: active.name,
                labels: active.labels,
                start_us,
                dur_us,
                thread: buf.thread,
                id: active.id,
                parent: active.parent,
            });
        });
    }
}

fn begin(name: &'static str, labels: Vec<(&'static str, String)>) -> SpanGuard {
    // The epoch must exist before the first start timestamp is taken.
    let _ = epoch();
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(Some(id)));
    SpanGuard { active: Some(ActiveSpan { name, labels, id, parent, start: Instant::now() }) }
}

/// Opens an unlabelled span parented on the thread's current span.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    begin(name, Vec::new())
}

/// Opens a labelled span. Callers on hot paths should gate any label
/// formatting on [`enabled`]; this function only allocates when recording.
#[inline]
pub fn span_labeled(name: &'static str, labels: &[(&'static str, &str)]) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    begin(name, labels.iter().map(|(k, v)| (*k, v.to_string())).collect())
}

/// Takes every recorded span out of every thread buffer, ordered by start
/// time (ties by span id).
pub fn drain() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for buf in registry().lock().unwrap().iter() {
        out.append(&mut buf.records.lock().unwrap());
    }
    out.sort_by_key(|r| (r.start_us, r.id));
    out
}

/// Discards every recorded span.
pub fn clear() {
    for buf in registry().lock().unwrap().iter() {
        buf.records.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share process-global profiler state; serialize them.
    pub(super) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let _l = lock();
        set_enabled(false);
        clear();
        {
            let g = span("phase.a");
            assert!(g.id().is_none());
            let _inner = span_labeled("phase.b", &[("k", "v")]);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn nesting_records_parent_links() {
        let _l = lock();
        set_enabled(true);
        clear();
        {
            let outer = span("outer");
            let outer_id = outer.id().unwrap();
            {
                let inner = span("inner");
                assert_eq!(
                    drained_parent_of(inner.id().unwrap(), outer_id),
                    None,
                    "inner not recorded until dropped"
                );
            }
            drop(outer);
        }
        set_enabled(false);
        let records = drain();
        assert_eq!(records.len(), 2);
        let outer = records.iter().find(|r| r.name == "outer").unwrap();
        let inner = records.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.dur_us <= outer.dur_us);
    }

    // Helper: nothing is recorded until drop, so this just documents the
    // invariant without draining mid-test.
    fn drained_parent_of(_id: u64, _parent: u64) -> Option<u64> {
        None
    }
}
