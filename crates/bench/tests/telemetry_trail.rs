//! Audit-trail integration test: a scale-out run under MeT must leave a
//! non-empty, causally ordered telemetry trail — every actuator action is
//! preceded by the monitor sample and the decision event that caused it —
//! and the JSONL export must round-trip to the same trail.

use met_bench::elastic::{run_one, Controller, INITIAL_SERVERS};
use simcore::FaultPlan;
use telemetry::{parse_trace, EventKind, Telemetry, Verbosity};

#[test]
fn scale_out_leaves_causally_ordered_audit_trail() {
    let telemetry = Telemetry::with_ring(Verbosity::Debug, 1 << 16);
    let trace_path =
        std::env::temp_dir().join(format!("met-telemetry-trail-{}.jsonl", std::process::id()));
    telemetry.attach_jsonl(&trace_path).expect("writable temp dir");

    // 15 simulated minutes of the §6.4 cloud scenario: the six initial
    // nodes are overloaded, so MeT both reconfigures and provisions.
    let run = run_one(Controller::Met, 7, 15, telemetry.clone());

    let events = telemetry.events();
    assert!(!events.is_empty(), "an instrumented run must record events");

    // The trail is causally ordered: sequence numbers strictly increase
    // and simulated timestamps never go backwards.
    for pair in events.windows(2) {
        assert!(pair[1].seq > pair[0].seq, "seq must strictly increase");
        assert!(pair[1].time_ms >= pair[0].time_ms, "time must not regress");
    }

    // The overloaded fleet scaled out, and the actuator recorded it.
    assert!(run.peak_nodes > INITIAL_SERVERS as f64, "cluster never scaled out");
    assert!(
        events.iter().any(|e| e.data.kind() == EventKind::NodeProvisioned),
        "scale-out must appear in the audit trail"
    );

    // Every actuator action is preceded by at least one monitor sample and
    // one decision event — the cause chain the audit trail exists for.
    let actions: Vec<_> =
        events.iter().filter(|e| e.data.kind() == EventKind::ActionStarted).collect();
    assert!(!actions.is_empty(), "a reconfiguring run must start actions");
    for action in actions {
        let sampled_before =
            events.iter().any(|e| e.seq < action.seq && e.data.kind() == EventKind::MonitorSample);
        let decided_before = events.iter().any(|e| {
            e.seq < action.seq
                && matches!(
                    e.data.kind(),
                    EventKind::HealthAssessed | EventKind::NodeDelta | EventKind::PlanComputed
                )
        });
        assert!(sampled_before, "action at seq {} has no prior monitor sample", action.seq);
        assert!(decided_before, "action at seq {} has no prior decision event", action.seq);
    }

    // The JSONL export carries the same trail (the ring holds the tail, so
    // compare over the ring's window).
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let exported = parse_trace(&text).expect("every exported line parses");
    assert!(exported.len() >= events.len());
    let tail = &exported[exported.len() - events.len()..];
    assert_eq!(tail, events.as_slice(), "export and ring must agree");

    let _ = std::fs::remove_file(&trace_path);
}

/// A faulted run must leave every injected fault *and* every recovery
/// action (retries, abandoned steps, reconciliation, the crash
/// replacement) in the audit trail, and the export must round-trip.
#[test]
fn faulted_run_exposes_faults_and_recovery_in_the_trail() {
    let telemetry = Telemetry::with_ring(Verbosity::Debug, 1 << 16);
    let trace_path =
        std::env::temp_dir().join(format!("met-chaos-trail-{}.jsonl", std::process::id()));
    telemetry.attach_jsonl(&trace_path).expect("writable temp dir");

    // 12 simulated minutes of the Fig-4 workload under the reference
    // plan: crash mid-reconfiguration at 305 s, two provision failures
    // against the replacement, one dropped metrics round at 420 s.
    let run =
        met_bench::chaos::run_chaos_curve(1_000, 10, &FaultPlan::reference(), telemetry.clone());
    assert_eq!(run.faults_injected, 4, "the whole reference plan must fire: {run:?}");

    let events = telemetry.events();
    let count = |k: EventKind| events.iter().filter(|e| e.data.kind() == k).count();
    assert_eq!(count(EventKind::FaultInjected), 4, "every injected fault must appear in the trail");
    assert!(count(EventKind::RetryScheduled) >= 1, "provision retries must be audited");
    assert!(count(EventKind::StepFailed) >= 1, "the crash-killed step must be audited");
    assert!(
        count(EventKind::PlanReconciled) >= 1,
        "the mid-plan crash must trigger an audited reconciliation"
    );
    assert!(
        count(EventKind::NodeProvisioned) >= 1,
        "the crash replacement must appear in the trail"
    );
    assert!(run.replacements >= 1 && run.retries >= 1, "recovery counters empty: {run:?}");

    // Ordering and export still hold under faults.
    for pair in events.windows(2) {
        assert!(pair[1].seq > pair[0].seq, "seq must strictly increase");
        assert!(pair[1].time_ms >= pair[0].time_ms, "time must not regress");
    }
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let exported = parse_trace(&text).expect("every exported line parses");
    assert!(exported.len() >= events.len());
    let tail = &exported[exported.len() - events.len()..];
    assert_eq!(tail, events.as_slice(), "export and ring must agree");

    let _ = std::fs::remove_file(&trace_path);
}
