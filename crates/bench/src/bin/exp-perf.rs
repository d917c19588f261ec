//! Wall-clock performance harness: single-store YCSB-shaped mixes and
//! full-cluster fig4 ticks/sec, appended to `BENCH_perf.json` at the repo
//! root so successive PRs extend a comparable trajectory.
//!
//! Knobs (via [`simcore::config::EnvConfig`]; see the README's knob
//! table): `MET_PERF_OPS`, `MET_PERF_TICKS`, `MET_PERF_WARMUP_TICKS`,
//! `MET_PERF_REPS`, `MET_PERF_CLIENTS`, `MET_PERF_ASSERT_CLIENT_SPEEDUP`,
//! `MET_PERF_ASSERT_WRITER_SPEEDUP`, `MET_PERF_COMMIT`, `MET_BENCH_PATH`.

use met_bench::perf::{self, PerfConfig, PerfRecord};
use serde_json::Value;

fn commit_label(cfg: &simcore::config::EnvConfig) -> String {
    if let Some(c) = &cfg.perf_commit {
        return c.clone();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Merges `records` for `commit` into the existing trajectory: records with
/// the same `(bench, threads, commit)` are replaced, everything else is
/// kept, and the file stays a flat JSON array ordered by insertion.
fn merge_trajectory(existing: Value, records: &[PerfRecord], commit: &str) -> Value {
    let mut out: Vec<Value> = match existing {
        Value::Array(entries) => entries
            .into_iter()
            .filter(|e| {
                !(e["commit"].as_str() == Some(commit)
                    && records.iter().any(|r| {
                        e["bench"].as_str() == Some(r.bench.as_str())
                            && e["threads"].as_u64() == Some(r.threads as u64)
                    }))
            })
            .collect(),
        _ => Vec::new(),
    };
    for r in records {
        // Stall time rides along only on the background-pipeline legs, so
        // older trajectory entries keep their exact shape.
        let entry = match r.stall_ms {
            Some(stall) => serde_json::json!({
                "bench": r.bench,
                "ops_per_sec": r.ops_per_sec.map(round1),
                "ticks_per_sec": r.ticks_per_sec.map(round1),
                "threads": r.threads,
                "commit": commit,
                "stall_ms": round1(stall),
            }),
            None => serde_json::json!({
                "bench": r.bench,
                "ops_per_sec": r.ops_per_sec.map(round1),
                "ticks_per_sec": r.ticks_per_sec.map(round1),
                "threads": r.threads,
                "commit": commit,
            }),
        };
        out.push(entry);
    }
    Value::Array(out)
}

fn round1(v: f64) -> f64 {
    (v * 10.0).round() / 10.0
}

fn main() {
    let env = simcore::config::env_config();
    let cfg = PerfConfig {
        ops: env.perf_ops.unwrap_or(perf::DEFAULT_OPS),
        ticks: env.perf_ticks.unwrap_or(perf::DEFAULT_TICKS),
        warmup_ticks: env.perf_warmup_ticks.unwrap_or(perf::DEFAULT_WARMUP_TICKS),
        reps: env.perf_reps.unwrap_or(perf::DEFAULT_REPS),
        clients: env.perf_clients.unwrap_or(perf::DEFAULT_CLIENTS),
    };
    let commit = commit_label(env);
    eprintln!(
        "perf: {} ops x {} reps per store mix, {} ticks x {} reps for the cluster leg, \
         {} client threads on the threaded store legs, commit {commit}...",
        cfg.ops, cfg.reps, cfg.ticks, cfg.reps, cfg.clients
    );

    let records = perf::run_suite(&cfg);

    println!("Wall-clock performance — commit {commit}");
    println!(
        "{:<24} {:>8} {:>14} {:>14} {:>10}",
        "bench", "threads", "ops/sec", "ticks/sec", "stall-ms"
    );
    for r in &records {
        println!(
            "{:<24} {:>8} {:>14} {:>14} {:>10}",
            r.bench,
            r.threads,
            r.ops_per_sec.map(|v| format!("{v:.0}")).unwrap_or_else(|| "-".into()),
            r.ticks_per_sec.map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into()),
            r.stall_ms.map(|v| format!("{v:.0}")).unwrap_or_else(|| "-".into()),
        );
    }

    let path =
        env.bench_path.clone().unwrap_or_else(|| std::path::PathBuf::from("BENCH_perf.json"));
    let existing = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or(Value::Array(Vec::new()));
    let merged = merge_trajectory(existing, &records, &commit);
    match serde_json::to_string_pretty(&merged) {
        Ok(body) => match std::fs::write(&path, body + "\n") {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("perf: cannot write {}: {e}", path.display()),
        },
        Err(e) => eprintln!("perf: cannot serialize records: {e}"),
    }

    // The concurrent-engine gate: point-get at N clients must beat the
    // single-thread leg by the given factor. A wall-clock speedup needs
    // real cores, so this is armed on multi-core CI, never by default.
    if let Some(min) = env.perf_assert_client_speedup {
        let rate = |threads: usize| {
            records
                .iter()
                .find(|r| r.bench == "store-point-get" && r.threads == threads)
                .and_then(|r| r.ops_per_sec)
        };
        let (Some(base), Some(par)) = (rate(1), rate(cfg.clients)) else {
            eprintln!(
                "perf: client-speedup gate armed but the point-get records are \
                 missing (clients {})",
                cfg.clients
            );
            std::process::exit(1);
        };
        let speedup = par / base;
        eprintln!(
            "perf: store-point-get @{} clients: {speedup:.2}x single-thread (gate {min}x)",
            cfg.clients
        );
        if speedup < min {
            eprintln!("perf: client-speedup gate FAILED");
            std::process::exit(1);
        }
    }

    // The background-maintenance gate: the put-heavy writer with the
    // pipeline on must beat the inline-flush writer by the given factor.
    // Moving flush work off the write path only pays with real spare
    // cores, so like the client gate this is armed on multi-core CI, never
    // by default.
    if let Some(min) = env.perf_assert_writer_speedup {
        let rate = |bench: &str| {
            records.iter().find(|r| r.bench == bench && r.threads == 1).and_then(|r| r.ops_per_sec)
        };
        let (Some(inline), Some(bg)) = (rate("store-put-heavy"), rate("store-put-heavy-bg")) else {
            eprintln!("perf: writer-speedup gate armed but the put-heavy pair is missing");
            std::process::exit(1);
        };
        let speedup = bg / inline;
        let stall = records
            .iter()
            .find(|r| r.bench == "store-put-heavy-bg" && r.threads == 1)
            .and_then(|r| r.stall_ms)
            .unwrap_or(0.0);
        eprintln!(
            "perf: store-put-heavy-bg: {speedup:.2}x inline (gate {min}x, stall {stall:.0} ms)"
        );
        if speedup < min {
            eprintln!("perf: writer-speedup gate FAILED");
            std::process::exit(1);
        }
    }
}
