//! Quickstart: the two layers of the MeT reproduction in five minutes.
//!
//! 1. The *functional* layer — a real distributed HBase-like store: create
//!    a pre-split table, write, read and scan real data.
//! 2. The *simulation* layer — the cluster model the paper's experiments
//!    run on: attach the MeT control plane and watch it classify
//!    partitions, pick Table-1 profiles and reconfigure the cluster.
//!
//! Run with: `cargo run --release --example quickstart`

use cluster::functional::FunctionalCluster;
use cluster::{ClientGroup, CostParams, ElasticCluster, OpMix, PartitionSpec, SimCluster};
use hstore::{Family, StoreConfig};
use met::{Met, MetConfig, ProfileKind};
use telemetry::{EventKind, Telemetry, Verbosity};

fn functional_demo() {
    println!("== functional layer: a real distributed key-value store ==");
    let mut db = FunctionalCluster::new(42);
    for _ in 0..3 {
        db.add_server(StoreConfig::small_for_tests()).expect("valid config");
    }
    let fam = Family::from("profile");
    db.create_table("users", std::slice::from_ref(&fam), &["user400".into(), "user800".into()])
        .expect("fresh table");

    for i in 0..1_200 {
        db.put(
            "users",
            &fam,
            format!("user{i:04}").as_str().into(),
            "name".into(),
            format!("name-{i}").into_bytes().into(),
        )
        .expect("write routed");
    }
    let got = db
        .get("users", &fam, &"user0042".into(), &"name".into())
        .expect("read routed")
        .expect("present");
    println!("point read user0042 → {}", String::from_utf8_lossy(&got));

    let rows = db.scan("users", &fam, &"user0795".into(), 10).expect("scan routed");
    println!(
        "scan from user0795 crossed a region boundary and returned {} rows ({} .. {})",
        rows.len(),
        rows.first().map(|(k, _)| k.to_string()).unwrap_or_default(),
        rows.last().map(|(k, _)| k.to_string()).unwrap_or_default(),
    );
    for rid in db.table_regions("users") {
        println!(
            "  {} on {:?}: {:?} requests",
            rid,
            db.region_server(rid).expect("assigned"),
            db.region_counters(rid).expect("counters"),
        );
    }
}

fn met_demo() {
    println!("\n== simulation layer: MeT reconfiguring a cluster ==");
    let mut sim = SimCluster::new(CostParams::default(), 7);
    for _ in 0..3 {
        sim.add_server_immediate(StoreConfig::default_homogeneous());
    }
    // Three tenants with very different access patterns.
    let mut parts = Vec::new();
    for _ in 0..9 {
        parts.push(sim.create_partition(PartitionSpec {
            table: "t".into(),
            size_bytes: 1e9,
            record_bytes: 1_000.0,
            hot_set_fraction: 0.4,
            hot_ops_fraction: 0.5,
        }));
    }
    sim.random_balance_unassigned();
    let third = |o: usize| (0..3).map(|i| (parts[o + i], 1.0 / 3.0)).collect();
    sim.add_group(ClientGroup::with_common_weights(
        "readers",
        60.0,
        0.5,
        None,
        OpMix::read_only(),
        third(0),
        1.0,
        0.0,
    ));
    sim.add_group(ClientGroup::with_common_weights(
        "writers",
        60.0,
        0.5,
        None,
        OpMix::write_only(),
        third(3),
        1.0,
        0.1,
    ));
    sim.add_group(ClientGroup::with_common_weights(
        "mixed",
        60.0,
        0.5,
        None,
        OpMix::new(0.5, 0.5, 0.0),
        third(6),
        1.0,
        0.0,
    ));

    // MeT's audit trail: every decision and action it takes, with why.
    let trail = Telemetry::with_ring(Verbosity::Info, 4_096);
    let mut met = Met::with_telemetry(
        MetConfig { allow_scaling: false, ..MetConfig::default() },
        StoreConfig::default_homogeneous(),
        trail.clone(),
    );
    for minute in 0..12 {
        for _ in 0..60 {
            sim.step();
            met.tick(&mut sim);
        }
        let snap = sim.snapshot();
        let profiles: Vec<String> = snap
            .servers
            .iter()
            .map(|s| {
                format!(
                    "{}={}",
                    s.server,
                    ProfileKind::of_config(&s.config)
                        .map(|p| p.to_string())
                        .unwrap_or_else(|| "homogeneous".into())
                )
            })
            .collect();
        println!(
            "minute {:>2}: {:>6.0} ops/s  [{}]",
            minute + 1,
            snap.total_rps(),
            profiles.join(", ")
        );
    }
    println!("\nMeT's plans and actions, from its audit trail:");
    for e in trail.events() {
        if matches!(e.data.kind(), EventKind::ReconfigStarted | EventKind::ActionStarted) {
            println!("  {}", e.to_json_line());
        }
    }
}

fn main() {
    functional_demo();
    met_demo();
}
