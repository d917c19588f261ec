//! Kills a WAL-backed store at every phase of an update-heavy schedule and
//! gates on exact recovery; then drives the simulated fleet through disk
//! faults (torn write, fsync failure, bit-rot) layered on the reference
//! chaos plan and gates on the cluster healing through them.
//!
//! Knobs: `MET_CRASH_OPS` (schedule length, default 150), `MET_CRASH_SEED`
//! (schedule seed, default 42), `MET_CRASH_BG` (run every crashed store
//! with the background maintenance pipeline on — same invariants, crashes
//! now land mid-flush and mid-compaction).

use met_bench::crash;
use simcore::{FaultPlan, FaultSpec, ScheduledFault, SimTime};
use telemetry::TelemetryEvent;

fn main() {
    let cfg = simcore::config::env_config();
    let ops = cfg.crash_ops.unwrap_or(crash::DEFAULT_OPS);
    let seed = cfg.crash_seed.unwrap_or(42);
    let telemetry = met_bench::telemetry_from_env();

    let bg = cfg.crash_bg;
    eprintln!(
        "crash: store audit over {ops} ops (seed {seed}, maintenance {})...",
        if bg { "background" } else { "inline" }
    );
    let audit = crash::run_with(seed, ops, bg);
    telemetry.emit(
        SimTime::from_secs(0),
        TelemetryEvent::WalAppend { server: 0, records: audit.wal_appends, bytes: audit.wal_bytes },
    );

    println!("Crash audit — kill-at-every-point recovery of the durable hstore");
    println!("{:>28} {:>12}", "leg", "points");
    println!("{:>28} {:>12}", "boundary crashes", audit.crash_points);
    println!("{:>28} {:>12}", "torn-write offsets", audit.torn_points);
    println!("{:>28} {:>12}", "group-commit crashes", audit.group_points);
    println!("{:>28} {:>12}", "torn tails truncated", audit.torn_tails_seen);
    println!("{:>28} {:>12}", "WAL records replayed", audit.replayed_records);
    println!("{:>28} {:>12}", "max recovery ms", audit.max_recovery_ms);
    println!(
        "{:>28} {:>12}",
        "typed corruption",
        if audit.corruption_typed { "yes" } else { "NO" }
    );
    println!("{:>28} {:>12}", "fsync failure clean", if audit.fsync_clean { "yes" } else { "NO" });
    for f in &audit.failures {
        println!("  FAILURE: {f}");
    }

    // The fleet leg: the reference chaos plan plus one of each disk fault,
    // injected while MeT is mid-convergence. Torn write and fsync failure
    // are fatal to their victims (the healer must replace them and replay
    // their WAL backlog); bit-rot must surface as a detected corruption
    // plus a repair charge, not as wrong data.
    let minutes = 20;
    let mut faults: Vec<ScheduledFault> = FaultPlan::reference().faults().to_vec();
    faults.push(ScheduledFault {
        at: SimTime::from_secs(480),
        spec: FaultSpec::TornWrite { bytes: 1024 },
    });
    faults.push(ScheduledFault { at: SimTime::from_secs(560), spec: FaultSpec::FsyncFail });
    faults
        .push(ScheduledFault { at: SimTime::from_secs(640), spec: FaultSpec::BitRot { block: 2 } });
    let plan = FaultPlan::new(faults);
    eprintln!("crash: fleet leg under '{plan}' for {minutes} min...");
    let fleet = met_bench::chaos::run_chaos_curve(1_000, minutes, &plan, telemetry.clone());

    let disk_faults = telemetry.counter_total("sim_disk_faults_total");
    let corruptions = telemetry.counter_total("sim_corruptions_detected_total");
    let wal_replays = telemetry.counter_total("sim_wal_replays_total");
    let wal_replayed_bytes = telemetry.counter_total("sim_wal_replayed_bytes_total");

    println!("\nFleet leg — disk faults on top of the reference chaos plan");
    println!("{:>28} {:>12}", "faults injected", fleet.faults_injected);
    println!("{:>28} {:>12}", "disk faults delivered", disk_faults);
    println!("{:>28} {:>12}", "corruptions detected", corruptions);
    println!("{:>28} {:>12}", "WAL replays", wal_replays);
    println!("{:>28} {:>12}", "WAL bytes replayed", wal_replayed_bytes);
    println!("{:>28} {:>12}", "servers replaced", fleet.replacements);
    println!("{:>28} {:>12}", "online at end", fleet.online);
    println!("{:>28} {:>12.1}", "converged at min", fleet.converged_at_min);

    let audit_ok = audit.passed() && audit.max_recovery_ms <= 10_000;
    let fleet_ok = fleet.faults_injected == plan.faults().len() as u64
        && disk_faults >= 2
        && corruptions >= 1
        && wal_replays >= 1
        && fleet.replacements >= 1
        && fleet.online >= 1
        && fleet.converged_at_min < (minutes as f64) - 2.0;
    println!(
        "\nCrash verdict: {}",
        match (audit_ok, fleet_ok) {
            (true, true) => "every crash recovered exactly; the fleet healed through disk faults",
            (false, _) => "FAILED the store audit",
            (_, false) => "FAILED the fleet leg",
        }
    );

    let json = serde_json::json!({
        "experiment": "crash",
        "ops": audit.ops,
        "seed": seed,
        "background_maintenance": bg,
        "audit": {
            "crash_points": audit.crash_points,
            "torn_points": audit.torn_points,
            "group_points": audit.group_points,
            "torn_tails_seen": audit.torn_tails_seen,
            "replayed_records": audit.replayed_records,
            "wal_appends": audit.wal_appends,
            "wal_bytes": audit.wal_bytes,
            "max_recovery_ms": audit.max_recovery_ms,
            "corruption_typed": audit.corruption_typed,
            "fsync_clean": audit.fsync_clean,
            "failures": audit.failures,
        },
        "fleet": {
            "plan": plan.to_string(),
            "minutes": minutes,
            "faults_injected": fleet.faults_injected,
            "disk_faults": disk_faults,
            "corruptions_detected": corruptions,
            "wal_replays": wal_replays,
            "wal_replayed_bytes": wal_replayed_bytes,
            "replacements": fleet.replacements,
            "online": fleet.online,
            "converged_at_min": fleet.converged_at_min,
        },
        "audit_ok": audit_ok,
        "fleet_ok": fleet_ok,
        "telemetry": met_bench::report::telemetry_summary(&telemetry),
    });
    if let Some(path) = met_bench::report::write_json("crash", &json) {
        eprintln!("wrote {}", path.display());
    }
    if !(audit_ok && fleet_ok) {
        std::process::exit(1);
    }
}
