//! Runs one experiment of the paper's evaluation: `exp <name> [--seed N]
//! [--faults SPEC]`, or `exp --list` for the table (`met_bench::exp`).
//! Prints the report to stdout, writes its JSON under `MET_RESULTS_DIR`
//! (default `results/`), and exits 1 when the experiment's gate fails and 2
//! on bad input.

use met_bench::config::EnvConfig;
use met_bench::exp::{self, Command};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match exp::parse(&args, &EnvConfig::from_env()) {
        Err(e) => {
            eprintln!("exp: {e}\n{}", exp::USAGE);
            std::process::exit(2);
        }
        Ok(Command::List) => {
            for row in exp::ROWS {
                println!("{:<10} seed {}", row.name, row.seed);
            }
        }
        Ok(Command::Run(invocation)) => {
            let report = invocation.run();
            print!("{}", report.text);
            if !report.passed {
                std::process::exit(1);
            }
        }
    }
}
