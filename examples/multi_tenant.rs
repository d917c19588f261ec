//! The §3 motivation experiment in miniature: six multi-tenant YCSB
//! workloads on five RegionServers under the three placement/configuration
//! strategies, eight simulated minutes each.
//!
//! For the full Figure 1 (5 × 32-minute runs per strategy with percentile
//! bars) run `cargo run --release -p met-bench --bin exp -- fig1`.
//!
//! Run with: `cargo run --release --example multi_tenant`

use met_bench::fig1::{run_once, Strategy};

fn main() {
    println!("Six YCSB tenants (A–F, §3.1 of the paper) on 5 RegionServers");
    println!("{:-<78}", "");
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8}",
        "strategy", "A", "B", "C", "D", "E", "F", "Total"
    );
    let mut totals = Vec::new();
    for strategy in Strategy::ALL {
        let run = run_once(strategy, 2_024, 8);
        print!("{:<22}", strategy.label());
        for w in ["A", "B", "C", "D", "E", "F"] {
            print!(" {:>7.0}", run.per_workload[w]);
        }
        println!(" {:>8.0}", run.total);
        totals.push((strategy.label(), run.total));
    }
    println!("{:-<78}", "");
    let het = totals.iter().find(|(l, _)| l.contains("Heterogeneous")).expect("ran").1;
    for (label, total) in &totals {
        if !label.contains("Heterogeneous") {
            println!("Manual-Heterogeneous vs {label}: {:.2}x", het / total);
        }
    }
    println!(
        "\nThe heterogeneous cluster wins because WorkloadC's hot set owns a read\n\
         node's entire cache, WorkloadE's scans stop churning everyone else's\n\
         cache, and the write workloads' flush traffic is isolated (§3.4)."
    );
}
