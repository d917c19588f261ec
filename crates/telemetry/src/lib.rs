#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Observability for the MeT reproduction: a metrics registry, a typed
//! decision audit trail, and trace export.
//!
//! The paper's control loop (monitor → decision maker → actuator, §4) is
//! opaque without instrumentation: when a run reconfigures the cluster it
//! is hard to answer *why* — which CPU reading crossed which threshold,
//! which classification produced which node group, which plan caused which
//! actuator steps. This crate makes every run auditable:
//!
//! * [`registry`] — counters, gauges and fixed-bucket histograms (with
//!   p50/p95/p99) keyed by static metric names plus label pairs. Lock
//!   cost is one uncontended mutex acquisition per update;
//!   [`Telemetry::render_prometheus`] exports it as Prometheus text.
//! * [`event`] — the [`TelemetryEvent`] taxonomy: monitor samples,
//!   health assessments, per-partition classification verdicts, computed
//!   plans, rule firings and actuator actions, each carrying the observed
//!   values and thresholds that caused it.
//! * [`sink`] — where events go: an in-memory ring buffer (for tests and
//!   the report layer) and a JSONL exporter (one event per line) so any
//!   `exp` run can dump a full trace.
//! * [`span`] — an empty `set_enabled` kept for one external caller; it
//!   records nothing.
//!
//! Everything is deterministic under the simulation clock: event
//! timestamps are [`SimTime`] values supplied by the caller and
//! "latency" histograms measure simulated durations. There are no
//! wall-clock reads.
//!
//! The [`Telemetry`] handle is a cheap-clone `Arc`; a disabled handle
//! ([`Telemetry::disabled`]) makes every call a no-op so instrumented
//! code pays nearly nothing when tracing is off.

pub mod event;
pub mod registry;
pub mod sink;
pub mod span;

pub use event::{parse_trace, Event, EventKind, Level, TelemetryEvent};
pub use registry::{HistogramSummary, MetricsBuffer, MetricsRegistry, MetricsSnapshot};
pub use sink::{JsonlSink, RingBufferSink};

use simcore::SimTime;
use std::sync::{Arc, Mutex};

/// How much of the event stream reaches the sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verbosity {
    /// No events are recorded (metrics still aggregate).
    Off,
    /// Decision/action events only — the audit trail.
    Info,
    /// Everything, including per-sample and per-flush debug events.
    Debug,
}

impl Verbosity {
    /// Parses a verbosity name (as used by `MET_TRACE_LEVEL`).
    pub fn parse(s: &str) -> Option<Verbosity> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Some(Verbosity::Off),
            "info" => Some(Verbosity::Info),
            "debug" | "all" => Some(Verbosity::Debug),
            _ => None,
        }
    }
}

struct Inner {
    verbosity: Verbosity,
    registry: MetricsRegistry,
    seq: u64,
    ring: Option<RingBufferSink>,
    jsonl: Option<JsonlSink>,
}

/// Handle to a telemetry pipeline. Clones share the same registry and
/// sinks; a handle created with [`Telemetry::disabled`] ignores all input.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Telemetry(disabled)"),
            Some(_) => f.write_str("Telemetry(enabled)"),
        }
    }
}

impl Telemetry {
    /// A no-op handle: every call returns immediately.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled pipeline with an empty registry and no sinks attached.
    pub fn new(verbosity: Verbosity) -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Inner {
                verbosity,
                registry: MetricsRegistry::new(),
                seq: 0,
                ring: None,
                jsonl: None,
            }))),
        }
    }

    /// An enabled pipeline that keeps the most recent `capacity` events in
    /// memory — the usual configuration for tests and bench runs.
    pub fn with_ring(verbosity: Verbosity, capacity: usize) -> Self {
        let t = Telemetry::new(verbosity);
        t.attach_ring(capacity);
        t
    }

    /// True when this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches (or replaces) the in-memory ring buffer sink.
    pub fn attach_ring(&self, capacity: usize) {
        if let Some(inner) = &self.inner {
            inner.lock().unwrap().ring = Some(RingBufferSink::new(capacity));
        }
    }

    /// Attaches a JSONL exporter writing one event per line to `path`.
    pub fn attach_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(inner) = &self.inner {
            inner.lock().unwrap().jsonl = Some(JsonlSink::create(path)?);
        }
        Ok(())
    }

    /// Records an event at simulated time `now`. Filtered by verbosity:
    /// `Debug`-level events are dropped unless the pipeline runs at
    /// [`Verbosity::Debug`].
    pub fn emit(&self, now: SimTime, event: TelemetryEvent) {
        let Some(inner) = &self.inner else { return };
        let mut inner = inner.lock().unwrap();
        let keep = match inner.verbosity {
            Verbosity::Off => false,
            Verbosity::Info => event.level() == Level::Info,
            Verbosity::Debug => true,
        };
        if !keep {
            return;
        }
        let seq = inner.seq;
        inner.seq += 1;
        let event = Event { time_ms: now.as_millis(), seq, data: event };
        if let Some(jsonl) = &mut inner.jsonl {
            jsonl.write(&event);
        }
        if let Some(ring) = &mut inner.ring {
            ring.push(event);
        }
    }

    /// Contents of the ring buffer, oldest first.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                inner.lock().unwrap().ring.as_ref().map(RingBufferSink::events).unwrap_or_default()
            }
        }
    }

    /// Flushes the JSONL sink (no-op otherwise).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            if let Some(jsonl) = &mut inner.lock().unwrap().jsonl {
                jsonl.flush();
            }
        }
    }

    // ---- metrics ---------------------------------------------------------

    /// Adds `n` to a labelled counter.
    pub fn counter_add(&self, name: &'static str, labels: &[(&str, &str)], n: u64) {
        if let Some(inner) = &self.inner {
            inner.lock().unwrap().registry.counter_add(name, labels, n);
        }
    }

    /// Sets a labelled gauge to `value`.
    pub fn gauge_set(&self, name: &'static str, labels: &[(&str, &str)], value: f64) {
        if let Some(inner) = &self.inner {
            inner.lock().unwrap().registry.gauge_set(name, labels, value);
        }
    }

    /// Records one observation (e.g. a simulated duration in ms) into a
    /// labelled histogram.
    pub fn observe(&self, name: &'static str, labels: &[(&str, &str)], value: f64) {
        if let Some(inner) = &self.inner {
            inner.lock().unwrap().registry.observe(name, labels, value);
        }
    }

    /// Current value of a counter summed across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.lock().unwrap().registry.counter_total(name),
        }
    }

    /// Current value of one labelled gauge.
    pub fn gauge_value(&self, name: &'static str, labels: &[(&str, &str)]) -> Option<f64> {
        self.inner.as_ref().and_then(|inner| inner.lock().unwrap().registry.gauge(name, labels))
    }

    /// Digest of one labelled histogram.
    pub fn histogram_summary(
        &self,
        name: &'static str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramSummary> {
        self.inner.as_ref().and_then(|inner| inner.lock().unwrap().registry.histogram(name, labels))
    }

    /// Applies one buffered batch of metric updates under a single lock
    /// acquisition. See [`MetricsBuffer`].
    pub fn flush_buffer(&self, buf: &MetricsBuffer) {
        if buf.is_empty() {
            return;
        }
        if let Some(inner) = &self.inner {
            inner.lock().unwrap().registry.merge(buf);
        }
    }

    /// A point-in-time copy of every metric, for the report layer.
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(inner) => inner.lock().unwrap().registry.snapshot(),
        }
    }

    /// Renders the registry in the Prometheus text exposition format (see
    /// [`MetricsSnapshot::render_prometheus`]). Empty string when disabled.
    pub fn render_prometheus(&self) -> String {
        self.metrics().render_prometheus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        t.counter_add("x", &[], 3);
        t.emit(SimTime::ZERO, TelemetryEvent::ReconfigCompleted { duration_ms: 1 });
        assert_eq!(t.counter_total("x"), 0);
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn a_flushed_buffer_lands_in_the_registry() {
        let t = Telemetry::new(Verbosity::Off);
        let mut buf = MetricsBuffer::new();
        buf.counter_add("hits", &[("server", "1")], 2);
        buf.counter_add("hits", &[("server", "2")], 3);
        buf.gauge_set("ratio", &[("server", "2")], 0.75);
        t.flush_buffer(&buf);
        assert_eq!(t.counter_total("hits"), 5);
        assert_eq!(t.gauge_value("ratio", &[("server", "2")]), Some(0.75));

        // A disabled handle swallows buffers like any other update.
        let off = Telemetry::disabled();
        off.flush_buffer(&buf);
        assert_eq!(off.counter_total("hits"), 0);
    }

    #[test]
    fn verbosity_gates_debug_events() {
        let t = Telemetry::with_ring(Verbosity::Info, 16);
        t.emit(
            SimTime::from_secs(1),
            TelemetryEvent::MonitorSample {
                server: 1,
                cpu: 0.5,
                io_wait: 0.1,
                mem: 0.2,
                locality: 0.9,
            },
        );
        t.emit(SimTime::from_secs(2), TelemetryEvent::ReconfigCompleted { duration_ms: 7 });
        let events = t.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].data.kind(), EventKind::ReconfigCompleted);

        let t = Telemetry::with_ring(Verbosity::Debug, 16);
        t.emit(
            SimTime::from_secs(1),
            TelemetryEvent::MonitorSample {
                server: 1,
                cpu: 0.5,
                io_wait: 0.1,
                mem: 0.2,
                locality: 0.9,
            },
        );
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::with_ring(Verbosity::Debug, 8);
        let t2 = t.clone();
        t2.counter_add("met_actions_total", &[("action", "move_in")], 2);
        t.counter_add("met_actions_total", &[("action", "compact")], 1);
        assert_eq!(t.counter_total("met_actions_total"), 3);
    }

    #[test]
    fn sequence_numbers_are_monotone() {
        let t = Telemetry::with_ring(Verbosity::Info, 32);
        for i in 0..5 {
            t.emit(SimTime::from_secs(i), TelemetryEvent::ReconfigCompleted { duration_ms: i });
        }
        let seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }
}
