//! Span-profiler correctness when several OS threads record at once — the
//! shape `hstore`'s flusher and compactor threads produce beside the
//! thread that runs the tick.

use std::sync::Mutex;
use telemetry::span;

/// Span tests share the process-global profiler; serialize them.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Opens one labelled `worker.job` span on each of `n` spawned threads.
fn record_on_threads(n: u64) {
    std::thread::scope(|s| {
        for job in 0..n {
            s.spawn(move || {
                let _g = span::span_labeled("worker.job", &[("job", &job.to_string())]);
            });
        }
    });
}

#[test]
fn spans_on_distinct_os_threads_get_distinct_thread_ids() {
    let _l = lock();
    span::set_enabled(true);
    span::clear();
    {
        let _phase = span::span("sim.tick");
        record_on_threads(2);
        let _local = span::span("solver.evaluate");
    }
    span::set_enabled(false);
    let records = span::drain();
    let tick = records.iter().find(|r| r.name == "sim.tick").unwrap();
    let local = records.iter().find(|r| r.name == "solver.evaluate").unwrap();
    assert_eq!(local.parent, Some(tick.id), "same-thread spans nest");
    assert_eq!(local.thread, tick.thread);
    let jobs: Vec<_> = records.iter().filter(|r| r.name == "worker.job").collect();
    assert_eq!(jobs.len(), 2);
    assert_ne!(jobs[0].thread, jobs[1].thread, "each OS thread gets its own id");
    for job in jobs {
        assert_ne!(job.thread, tick.thread, "spawned spans record their own thread id");
        assert_eq!(job.parent, None, "nesting is per thread");
    }
}

#[test]
fn telemetry_handle_span_sugar_records_through_the_global_profiler() {
    let _l = lock();
    span::set_enabled(true);
    span::clear();
    // Even a *disabled* telemetry handle profiles: the span gate is the
    // process-global MET_PROFILE state, not the handle.
    let t = telemetry::Telemetry::disabled();
    {
        let _g = t.span("met.decide", &[("stage", "classify")]);
    }
    span::set_enabled(false);
    let records = span::drain();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].name, "met.decide");
    assert_eq!(records[0].labels, vec![("stage", "classify".to_string())]);
}

#[test]
fn disabled_profiler_is_a_no_op_even_across_threads() {
    let _l = lock();
    span::set_enabled(false);
    span::clear();
    record_on_threads(4);
    assert!(span::drain().is_empty());
}

#[test]
fn chrome_trace_from_a_multi_thread_run_is_loadable() {
    let _l = lock();
    span::set_enabled(true);
    span::clear();
    {
        let _tick = span::span("sim.tick");
        let _solve = span::span("sim.solver");
        record_on_threads(2);
    }
    span::set_enabled(false);
    let records = span::drain();
    let json = span::chrome_trace(&records);
    let v: serde_json::Value =
        serde_json::from_str(&json).expect("chrome trace must be valid JSON");
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    assert_eq!(events.len(), records.len());
    let mut ids = std::collections::BTreeSet::new();
    for e in events {
        assert_eq!(e["ph"].as_str(), Some("X"), "complete events");
        assert!(e["ts"].as_u64().is_some());
        assert!(e["dur"].as_u64().is_some());
        assert!(e["pid"].as_u64().is_some());
        assert!(e["tid"].as_u64().is_some());
        assert!(e["name"].as_str().is_some());
        ids.insert(e["args"]["id"].as_u64().unwrap());
    }
    // Parent references resolve within the trace.
    for e in events {
        if let Some(p) = e["args"].get("parent").and_then(|p| p.as_u64()) {
            assert!(ids.contains(&p), "dangling parent id {p}");
        }
    }
}
