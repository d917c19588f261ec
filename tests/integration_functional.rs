//! Cross-crate integration on the functional layer: real YCSB and TPC-C
//! traffic over real regions, with moves and splits in the loop.

use cluster::functional::FunctionalCluster;
use hstore::StoreConfig;
use tpcc::{loader, Table, TpccScale, TxnExecutor};
use ycsb::FunctionalClient;

fn small_db(servers: usize, seed: u64) -> FunctionalCluster {
    let mut db = FunctionalCluster::new(seed);
    for _ in 0..servers {
        db.add_server(StoreConfig::small_for_tests()).expect("valid config");
    }
    db
}

#[test]
fn ycsb_workloads_survive_region_moves() {
    let mut db = small_db(3, 1);
    let mut spec = ycsb::presets::workload_a();
    spec.records = 3_000;
    spec.field_count = 2;
    spec.field_bytes = 16;
    let mut client = FunctionalClient::new(spec.clone(), 1);
    client.load(&mut db, None).expect("load");
    client.run_ops(&mut db, 1_000).expect("warm-up traffic");

    // Move every region of the table to a different server mid-workload.
    let servers = db.server_ids();
    for rid in db.table_regions(&spec.table) {
        let from = db.region_server(rid).expect("assigned");
        let to = *servers.iter().find(|s| **s != from).expect("another server");
        db.move_region(rid, to).expect("move");
    }
    let stats = client.run_ops(&mut db, 1_000).expect("post-move traffic");
    // Reads of loaded keys hit before and after the moves.
    assert_eq!(stats.reads, stats.read_hits, "moves lost data: {stats:?}");
}

#[test]
fn insert_heavy_workload_triggers_real_splits() {
    let mut db = small_db(2, 2);
    let mut spec = ycsb::presets::workload_d();
    spec.records = 200;
    spec.field_count = 1;
    spec.field_bytes = 2_000; // fat rows so the 4 MiB split threshold trips
    let mut client = FunctionalClient::new(spec.clone(), 2);
    client.load(&mut db, None).expect("load");
    let before = db.table_regions(&spec.table).len();
    for _ in 0..6 {
        client.run_ops(&mut db, 500).expect("inserts");
        db.maintenance();
    }
    let after = db.table_regions(&spec.table).len();
    assert!(after > before, "no splits despite growth: {before} → {after}");
    // Everything remains readable through the new region map.
    let stats = client.run_ops(&mut db, 200).expect("traffic after splits");
    assert!(stats.total_ops() >= 200);
}

#[test]
fn tpcc_new_orders_are_deliverable_end_to_end() {
    let mut db = small_db(3, 3);
    let scale = TpccScale::tiny();
    loader::load(&mut db, &scale, 3).expect("load");
    let mut exec = TxnExecutor::new(scale, 3);

    // Enter a batch of new orders, then deliver until the backlog drains.
    for _ in 0..20 {
        exec.new_order(&mut db).expect("new order");
    }
    let fam = Table::family();
    let backlog = |db: &mut FunctionalCluster| {
        db.scan(Table::NewOrder.name(), &fam, &tpcc::schema::keys::new_order(1, 1, 0), 10_000)
            .expect("scan")
            .len()
    };
    let before = backlog(&mut db);
    assert!(before >= 20, "new orders not enqueued: {before}");
    for _ in 0..60 {
        exec.delivery(&mut db).expect("delivery");
    }
    let after = backlog(&mut db);
    assert!(after < before, "deliveries consumed nothing: {before} → {after}");
}

#[test]
fn per_region_counters_feed_classification_correctly() {
    // The functional layer's counters drive the same classifier MeT uses.
    let mut db = small_db(2, 4);
    let mut spec = ycsb::presets::workload_c();
    spec.records = 2_000;
    spec.field_count = 1;
    spec.field_bytes = 8;
    let mut client = FunctionalClient::new(spec.clone(), 4);
    client.load(&mut db, None).expect("load");
    client.run_ops(&mut db, 2_000).expect("traffic");
    for rid in db.table_regions(&spec.table) {
        let c = db.region_counters(rid).expect("counters");
        let kind = met::classify(
            met::PartitionRates {
                reads: c.reads as f64,
                writes: 0.0, // loading wrote, but classify on the serving window
                scans: c.scans as f64,
            },
            0.6,
        );
        assert_eq!(kind, met::ProfileKind::Read, "C region classified {kind}");
    }
}

#[test]
fn met_manages_the_functional_cluster_end_to_end() {
    use cluster::admin::ElasticCluster;
    use cluster::FunctionalElastic;
    use met::{Met, MetConfig, ProfileKind};
    use simcore::SimDuration;

    // Three servers, two real workloads: a read-only table and a
    // write-only table, each pre-split.
    let mut db = small_db(3, 9);
    let mut read_spec = ycsb::presets::workload_c();
    read_spec.records = 2_000;
    read_spec.field_count = 1;
    read_spec.field_bytes = 8;
    let mut write_spec = ycsb::presets::workload_b();
    write_spec.records = 2_000;
    write_spec.field_count = 1;
    write_spec.field_bytes = 8;
    let mut readers = FunctionalClient::new(read_spec.clone(), 9);
    let mut writers = FunctionalClient::new(write_spec.clone(), 9);
    readers.load(&mut db, None).expect("load C");
    writers.load(&mut db, None).expect("load B");

    let mut fe = FunctionalElastic::new(db, 100_000.0);
    let cfg = MetConfig {
        allow_scaling: false,
        min_samples: 2,
        monitor_interval: SimDuration::from_secs(30),
        ..MetConfig::default()
    };
    let mut met = Met::new(cfg, StoreConfig::small_for_tests());

    // Interleave real traffic with monitoring intervals until MeT acts.
    for _ in 0..24 {
        readers.run_ops(fe.db(), 400).expect("reads");
        writers.run_ops(fe.db(), 400).expect("writes");
        fe.advance(SimDuration::from_secs(30));
        met.tick(&mut fe);
        // The actuator may need extra ticks to finish its plan.
        for _ in 0..4 {
            met.tick(&mut fe);
        }
    }
    assert!(
        met.reconfigurations() >= 1,
        "MeT never acted on real regions: {:?}",
        met.actuator_stats()
    );

    // The REAL regions of the read table now live on Read-profile servers,
    // the write table's on Write-profile servers.
    let snap = fe.snapshot();
    let profile_of_region = |rid: u64| {
        let m = snap.partitions.iter().find(|p| p.partition.0 == rid).expect("region known");
        let sid = m.assigned_to.expect("assigned");
        ProfileKind::of_config(&snap.server(sid).expect("server").config)
    };
    for rid in fe.db_ref().table_regions(&read_spec.table) {
        assert_eq!(
            profile_of_region(rid.0),
            Some(ProfileKind::Read),
            "read region {rid} not on a read node"
        );
    }
    for rid in fe.db_ref().table_regions(&write_spec.table) {
        assert_eq!(
            profile_of_region(rid.0),
            Some(ProfileKind::Write),
            "write region {rid} not on a write node"
        );
    }
    // And the data is still fully readable after all the real moves and
    // rebuilds MeT performed.
    let stats = readers.run_ops(fe.db(), 500).expect("post-reconfig reads");
    assert_eq!(stats.reads, stats.read_hits, "reconfiguration lost data");
}
