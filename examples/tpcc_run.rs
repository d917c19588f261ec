//! TPC-C on the MeT reproduction, both ways (§6.3 of the paper):
//!
//! 1. *Functionally*: load a small TPC-C database onto real regions and run
//!    the five transactions with record-level atomicity, checking money
//!    conservation.
//! 2. *At experiment scale*: a 12-minute slice of the Table 2 comparison —
//!    the manual homogeneous configuration versus MeT reconfiguring it.
//!
//! For the full 45-minute Table 2 run:
//! `cargo run --release -p met-bench --bin exp -- table2`.
//!
//! Run with: `cargo run --release --example tpcc_run`

use cluster::functional::FunctionalCluster;
use hstore::StoreConfig;
use met_bench::{table2, ScenarioSpec, ScenarioStrategy};
use tpcc::{loader, Table, TpccScale, TxnExecutor};

fn functional_demo() {
    println!("== functional TPC-C: real transactions on real regions ==");
    let mut db = FunctionalCluster::new(7);
    for _ in 0..3 {
        db.add_server(StoreConfig::small_for_tests()).expect("valid config");
    }
    let scale = TpccScale::tiny();
    let rows = loader::load(&mut db, &scale, 7).expect("load succeeds");
    println!("loaded {rows} rows across {} tables", Table::ALL.len());

    let mut exec = TxnExecutor::new(scale, 7);
    let counts = exec.run(&mut db, 500).expect("transactions run");
    println!("ran {} transactions: {counts:?}", counts.total());

    // Record-level consistency check: warehouse YTD == district YTD.
    let fam = Table::family();
    let num = |v: bytes::Bytes| -> u64 {
        std::str::from_utf8(&v).ok().and_then(|s| s.parse().ok()).unwrap_or(0)
    };
    let mut w_ytd = 0;
    let mut d_ytd = 0;
    for w in 1..=scale.warehouses {
        w_ytd += num(db
            .get(Table::Warehouse.name(), &fam, &tpcc::schema::keys::warehouse(w), &"W_YTD".into())
            .expect("routed")
            .expect("loaded"));
        for d in 1..=scale.districts_per_warehouse {
            d_ytd += num(db
                .get(
                    Table::District.name(),
                    &fam,
                    &tpcc::schema::keys::district(w, d),
                    &"D_YTD".into(),
                )
                .expect("routed")
                .expect("loaded"));
        }
    }
    assert_eq!(w_ytd, d_ytd, "payments must balance");
    println!("money conserved: warehouse YTD == district YTD == {w_ytd}");
}

fn sim_demo() {
    println!("\n== Table 2 slice: manual homogeneous vs MeT, 12 simulated minutes ==");
    let run = |strategy| ScenarioSpec::new(strategy, 2_024, 12).run();
    let (manual, met) = (run(ScenarioStrategy::TpccManual), run(ScenarioStrategy::TpccMet));
    println!("manual homogeneous: {:>8.0} tpmC", table2::tpmc_of(&manual, 12));
    println!(
        "MeT (with overhead):{:>8.0} tpmC  ({} reconfiguration)",
        table2::tpmc_of(&met, 12),
        met.reconfigurations
    );
    println!("MeT's layout:");
    for (profile, partitions) in &table2::CapturedLayout::of(&met).nodes {
        println!("  {profile:<11} node with {} partitions", partitions.len());
    }
}

fn main() {
    functional_demo();
    sim_demo();
}
