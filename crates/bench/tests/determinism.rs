//! Determinism gate for the experiment runners: the Fig-4 convergence run,
//! the chaos run (reference fault plan, and with disk faults on top) and
//! the SLO-gated latency run must each produce byte-identical telemetry
//! traces and final partition layouts when run twice at one seed, and the
//! span profiler must be invisible to both.
//!
//! The trace is the full debug-level event stream serialized as JSONL; the
//! layout is the `Debug` rendering of the final cluster snapshot, whose
//! `f64` fields print shortest-round-trip — any bit difference anywhere in
//! the run changes the digest.

use cluster::ClusterSnapshot;
use simcore::{FaultPlan, FaultSpec, ScheduledFault, SimTime};
use telemetry::{Telemetry, Verbosity};

/// FNV-1a over arbitrary bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A traced experiment run reduced to the two artifacts the determinism
/// checks compare: the serialized telemetry event stream and the final
/// cluster snapshot.
#[derive(Debug, Clone)]
struct TracedRun {
    /// Every telemetry event as JSONL (one event per line).
    trace: String,
    /// `Debug` rendering of the final [`ClusterSnapshot`].
    layout: String,
}

impl TracedRun {
    /// FNV-1a digest over trace and layout together.
    fn digest(&self) -> u64 {
        fnv1a(format!("{}\n---\n{}", self.trace, self.layout).as_bytes())
    }
}

fn tracing() -> Telemetry {
    Telemetry::with_ring(Verbosity::Debug, 1 << 16)
}

fn trace_string(telemetry: &Telemetry) -> String {
    telemetry.events().iter().map(|e| e.to_json_line()).collect::<Vec<_>>().join("\n")
}

fn layout_string(snapshot: &ClusterSnapshot) -> String {
    format!("{snapshot:?}")
}

/// The Fig-4 MeT curve, fully traced.
fn traced_fig4(seed: u64, minutes: u64) -> TracedRun {
    let telemetry = tracing();
    let (_, _, snapshot) = met_bench::fig4::run_met_curve_traced(seed, minutes, telemetry.clone());
    TracedRun { trace: trace_string(&telemetry), layout: layout_string(&snapshot) }
}

/// The chaos run under `plan`, fully traced.
fn traced_chaos(seed: u64, minutes: u64, plan: &FaultPlan) -> TracedRun {
    let telemetry = tracing();
    let run = met_bench::chaos::run_chaos_curve(seed, minutes, plan, telemetry.clone());
    TracedRun { trace: trace_string(&telemetry), layout: layout_string(&run.snapshot) }
}

/// The SLO-gated latency run, fully traced. The trace additionally carries
/// the latency digest (per-server and per-profile p99 histograms plus the
/// final per-server p99 gauges), so any run-to-run dependence in the
/// queueing model itself — not just in the decision stream — flips the
/// digest.
fn traced_latency(seed: u64, minutes: u64) -> TracedRun {
    let telemetry = tracing();
    let run = met_bench::latency::run_slo(
        seed,
        minutes,
        Some(met_bench::latency::SLO_P99_MS),
        telemetry.clone(),
    );
    let trace = format!(
        "{}\n===\n{}",
        trace_string(&telemetry),
        met_bench::latency::latency_digest_string(&telemetry, &run)
    );
    TracedRun { trace, layout: layout_string(&run.snapshot) }
}

fn assert_identical(name: &str, a: &TracedRun, b: &TracedRun) {
    // A run that ends before the controller acts leaves an empty event
    // stream, and two empty streams always agree.
    assert!(a.trace.lines().count() > 0, "{name}: the run produced no events");
    assert_eq!(a.trace, b.trace, "{name}: telemetry trace diverged between two runs");
    assert_eq!(a.layout, b.layout, "{name}: final partition layout diverged between two runs");
    assert_eq!(a.digest(), b.digest(), "{name}: digest");
}

#[test]
fn fig4_trace_is_byte_identical_across_runs() {
    // 6 minutes covers the ramp (2 min) plus the bulk of the §6.2
    // reconfiguration window — restarts, moves and major compactions.
    assert_identical("fig4", &traced_fig4(1_000, 6), &traced_fig4(1_000, 6));
}

#[test]
fn chaos_trace_is_byte_identical_across_runs() {
    // 10 minutes covers the reference plan's crash (5:05), provision
    // failures, and metrics drop (7:00) plus recovery.
    let plan = FaultPlan::reference();
    assert_identical("chaos", &traced_chaos(1_000, 10, &plan), &traced_chaos(1_000, 10, &plan));
}

#[test]
fn fig4_trace_is_unchanged_by_profiling() {
    // The span profiler is wall-clock and must be trace-invisible: arming
    // it changes nothing in the JSONL trace or the final layout. (Profiled
    // runs share this process with the gates above; spans never touch
    // telemetry sinks, so coexistence is safe — the drained records are
    // simply discarded.)
    let baseline = traced_fig4(1_000, 4);
    telemetry::span::set_enabled(true);
    let profiled = traced_fig4(1_000, 4);
    telemetry::span::set_enabled(false);
    let spans = telemetry::span::drain();
    assert!(!spans.is_empty(), "profiled runs must actually record spans");
    assert_identical("fig4 profiled", &baseline, &profiled);
}

#[test]
fn chaos_trace_is_unchanged_by_profiling() {
    // Same invisibility claim under faults: crashes, provision failures
    // and the healer's re-homing all run with spans armed.
    let plan = FaultPlan::reference();
    let baseline = traced_chaos(1_000, 6, &plan);
    telemetry::span::set_enabled(true);
    let profiled = traced_chaos(1_000, 6, &plan);
    telemetry::span::set_enabled(false);
    let _ = telemetry::span::drain();
    assert_identical("chaos profiled", &baseline, &profiled);
}

#[test]
fn disk_fault_trace_is_byte_identical_across_runs() {
    // WAL backlog accounting, replay outage extension, and the disk-fault
    // injector (torn write, fsync failure, bit-rot): their telemetry
    // (RecoveryStarted/Completed, CorruptionDetected, FaultInjected) must
    // repeat exactly.
    let mut faults: Vec<ScheduledFault> = FaultPlan::reference().faults().to_vec();
    faults.push(ScheduledFault {
        at: SimTime::from_secs(360),
        spec: FaultSpec::TornWrite { bytes: 512 },
    });
    faults.push(ScheduledFault { at: SimTime::from_secs(400), spec: FaultSpec::FsyncFail });
    faults
        .push(ScheduledFault { at: SimTime::from_secs(440), spec: FaultSpec::BitRot { block: 3 } });
    let plan = FaultPlan::new(faults);
    let first = traced_chaos(1_000, 10, &plan);
    assert_identical("disk-fault chaos", &first, &traced_chaos(1_000, 10, &plan));
    assert!(
        first.trace.contains("corruption_detected"),
        "the bit-rot fault must surface in the trace"
    );
    assert!(
        first.trace.contains("recovery_started"),
        "re-homing a crashed server's partitions must start a WAL replay"
    );
}

#[test]
fn latency_trace_is_byte_identical_across_runs() {
    // 10 minutes of the SLO-gated overload run covers the gate's first
    // scale-out, so the queueing model's per-server p99s (appended to the
    // trace by `traced_latency`) are exercised across a fleet change.
    assert_identical("latency", &traced_latency(1_000, 10), &traced_latency(1_000, 10));
}
