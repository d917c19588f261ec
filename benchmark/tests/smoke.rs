//! Every workload end to end at 1 % size, in both modes, in seconds.

use met_benchmark::metrics::{END_TO_END, PER_LAYER};
use met_benchmark::workloads::{self, RunConfig, NAMES};
use std::process::Command;

fn smoke(trace: bool) -> RunConfig {
    RunConfig { seed: 11, seconds: 0.05, trace, smoke: true }
}

#[test]
fn untraced_smoke_reports_every_end_to_end_metric_nonzero() {
    for name in NAMES {
        let out = workloads::run(name, &smoke(false)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(out.correct(), "{name}: {:?}", out.notes);
        assert!(out.attempted >= 1 && out.failed == 0, "{name}");
        let names: Vec<&str> = out.metrics.iter().map(|(d, _)| d.name).collect();
        assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>(), "{name}");
        for (def, value) in out.metrics.iter() {
            assert!(value > 0.0, "{name}: {} = {value}", def.name);
        }
    }
}

#[test]
fn traced_smoke_reports_every_per_layer_metric_and_writes_spans() {
    // What each workload must at least have exercised.
    let expect: [(&str, &[&str]); 5] = [
        ("read-fit", &["read_p50_us", "hstore.store.get_ns", "hstore.hfile.get_hit_ns"]),
        ("read-spill", &["hstore.block_cache.evictions_per_kop", "hstore.hfile.get_miss_ns"]),
        ("scan-insert", &["scan_p50_us", "put_p50_us", "hstore.store.scan_ns_per_row"]),
        (
            "durable-rw",
            &["put_p99_us", "write_amp", "space_amp", "hstore.wal.append_ns", "open.put_p99_us"],
        ),
        ("control-loop", &["cluster.sim.step_p50_us", "met.reconfigurations"]),
    ];
    for (name, nonzero) in expect {
        let out = workloads::run(name, &smoke(true)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(out.correct(), "{name}: {:?}", out.notes);
        let names: Vec<&str> = out.metrics.iter().map(|(d, _)| d.name).collect();
        assert_eq!(names, PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>(), "{name}");
        for metric in nonzero {
            assert!(out.metrics.get(metric) != 0.0, "{name}: {metric} is 0");
        }
        assert!(
            out.notes.iter().any(|n| n.starts_with("spans written to")),
            "{name}: no span file"
        );
    }
}

#[test]
fn binary_prints_the_result_line_last_and_rejects_bad_arguments() {
    let exe = env!("CARGO_BIN_EXE_met-benchmark");
    let run = |args: &[&str]| Command::new(exe).args(args).output().expect("binary runs");
    let ok = run(&[
        "--workload",
        "read-fit",
        "--seed",
        "5",
        "--seconds",
        "0.05",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
    let stdout = String::from_utf8(ok.stdout).unwrap();
    let last = stdout.lines().last().expect("some output");
    let json = serde_json::from_str(last).expect("last line is JSON");
    assert_eq!(json["correct"], true);
    assert_eq!(json["failed"], 0);
    assert!(json["metrics"]["ops_per_s"]["value"].as_f64().unwrap() > 0.0);
    assert!(stdout.contains("nproc=") && stdout.contains("commit="));

    let bad = run(&["--workload", "no-such-workload"]);
    assert!(!bad.status.success());
    assert!(bad.stdout.is_empty(), "no result is printed on a refused invocation");
}
