//! MeT as an elastic resource manager on a simulated OpenStack cloud
//! (§6.4 of the paper), side by side with the tiramola baseline: a
//! 25-minute slice of the Figure 6 experiment showing scale-out under
//! overload.
//!
//! For the full 60-minute experiment with both phases run
//! `cargo run --release -p met-bench --bin exp -- fig6`.
//!
//! Run with: `cargo run --release --example elastic_cloud`

use met_bench::elastic::{run_one, Controller};
use simcore::SimTime;
use telemetry::Telemetry;

fn main() {
    println!("Overloaded 6-node cluster on 3 GB VMs; boot delay 60 s; quota 14.");
    let run = |controller| run_one(controller, 2_024, 25, Telemetry::disabled());
    let (met, tira) = (run(Controller::Met), run(Controller::Tiramola));

    println!(
        "\n{:>5} | {:>10} {:>6} | {:>10} {:>6}",
        "min", "MeT ops/s", "nodes", "tira ops/s", "nodes"
    );
    for m in (0..=24u64).step_by(2) {
        let t = SimTime::from_mins(m);
        println!(
            "{:>5} | {:>10.0} {:>6.0} | {:>10.0} {:>6.0}",
            m,
            met.throughput.resample_avg(60_000).value_at(t).unwrap_or(0.0),
            met.nodes.value_at(t).unwrap_or(6.0),
            tira.throughput.resample_avg(60_000).value_at(t).unwrap_or(0.0),
            tira.nodes.value_at(t).unwrap_or(6.0),
        );
    }
    println!(
        "\nMeT reconfigures heterogeneously while scaling (nodes arrive with the\n\
         right Table-1 profile and a balanced partition set); tiramola adds\n\
         identical nodes and leaves placement to HBase's count balancer, so its\n\
         extra machines serve remote, cache-cold data (§6.4)."
    );
}
