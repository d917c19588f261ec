//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --seed <N>
//! [--workload <name>] [--seconds <S>] [--trace [0|1]] [--smoke]`

use met_benchmark::cli::{run_one, Args};
use met_benchmark::workloads::NAMES;
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    // The engine's own profiler reads MET_PROFILE lazily; pin it off so
    // the environment cannot change what is measured.
    telemetry::span::set_enabled(false);
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("met-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(name) => run_one(name, &args).unwrap_or_else(|e| {
            eprintln!("met-benchmark: {name}: {e}");
            false
        }),
        None => run_each_in_a_child(&raw),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload in a child process of its own, one after the other, so
/// each starts from a fresh heap and `peak_rss_mb` is its own.
fn run_each_in_a_child(raw: &[String]) -> bool {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("met-benchmark: cannot find own executable: {e}");
            return false;
        }
    };
    let mut all_ok = true;
    for name in NAMES {
        let status = Command::new(&exe).args(raw).args(["--workload", name]).status();
        let ok = matches!(&status, Ok(s) if s.success());
        if !ok {
            eprintln!("met-benchmark: workload {name} failed ({status:?})");
        }
        all_ok &= ok;
    }
    all_ok
}
