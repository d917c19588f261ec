//! Cross-crate integration: the full MeT pipeline (ycsb → cluster → met)
//! on the simulated cluster, end to end.

use cluster::admin::{ElasticCluster, ServerHealth};
use cluster::{CostParams, SimCluster};
use hstore::StoreConfig;
use met::{Met, MetConfig, ProfileKind};
use simcore::{SimDuration, SimRng, SimTime};
use ycsb::presets;

fn build_scenario(seed: u64) -> (SimCluster, Vec<ycsb::DeployedWorkload>) {
    let mut sim = SimCluster::new(CostParams::default(), seed);
    let mut rng = SimRng::new(seed);
    let deployments: Vec<ycsb::DeployedWorkload> =
        presets::paper_suite().iter().map(|w| ycsb::deploy(w, &mut sim, &mut rng)).collect();
    for _ in 0..5 {
        sim.add_server_immediate(StoreConfig::default_homogeneous());
    }
    sim.random_balance_unassigned();
    for d in &deployments {
        sim.add_group(d.client_group());
    }
    (sim, deployments)
}

#[test]
fn met_converges_to_a_heterogeneous_layout_and_improves_throughput() {
    let (mut sim, deployments) = build_scenario(31);
    // Baseline window.
    sim.run_ticks(300);
    let baseline = sim
        .total_series()
        .mean_between(SimTime::from_secs(180), SimTime::from_secs(300))
        .expect("baseline window");

    let cfg = MetConfig { allow_scaling: false, ..MetConfig::default() };
    let mut met = Met::new(cfg, StoreConfig::default_homogeneous());
    for _ in 0..(20 * 60) {
        sim.step();
        met.tick(&mut sim);
    }
    assert!(met.reconfigurations() >= 1, "MeT never acted: {:?}", met.actuator_stats());

    // Every server ends on a Table 1 profile.
    let snap = sim.snapshot();
    for s in snap.servers.iter().filter(|s| s.health == ServerHealth::Online) {
        assert!(
            ProfileKind::of_config(&s.config).is_some(),
            "{} still homogeneous after reconfiguration",
            s.server
        );
    }

    // MeT's classification found the obvious groups: WorkloadC's partitions
    // live on a read node, WorkloadE's on a scan node.
    let server_profile = |p| {
        let sid = snap
            .partitions
            .iter()
            .find(|m| m.partition == p)
            .and_then(|m| m.assigned_to)
            .expect("assigned");
        ProfileKind::of_config(&snap.server(sid).expect("server").config).expect("profiled")
    };
    let c = deployments.iter().find(|d| d.spec.name == "C").expect("C deployed");
    for p in &c.partitions {
        assert_eq!(server_profile(*p), ProfileKind::Read, "C partition off the read node");
    }
    let e = deployments.iter().find(|d| d.spec.name == "E").expect("E deployed");
    for p in &e.partitions {
        assert_eq!(server_profile(*p), ProfileKind::Scan, "E partition off the scan node");
    }
    let b = deployments.iter().find(|d| d.spec.name == "B").expect("B deployed");
    for p in &b.partitions {
        assert_eq!(server_profile(*p), ProfileKind::Write, "B partition off the write node");
    }

    // And throughput improved materially over the random-homogeneous start.
    let end = sim.time();
    let steady =
        sim.total_series().mean_between(SimTime(end.0 - 5 * 60_000), end).expect("steady window");
    assert!(steady > baseline * 1.2, "no improvement: baseline {baseline:.0} → steady {steady:.0}");
}

#[test]
fn met_is_deterministic_per_seed() {
    let run = |seed| {
        let (mut sim, _) = build_scenario(seed);
        let cfg = MetConfig { allow_scaling: false, ..MetConfig::default() };
        let mut met = Met::new(cfg, StoreConfig::default_homogeneous());
        for _ in 0..600 {
            sim.step();
            met.tick(&mut sim);
        }
        sim.total_series().points().to_vec()
    };
    assert_eq!(run(5), run(5), "same seed must replay identically");
}

#[test]
fn monitor_counters_match_simulated_traffic() {
    let (mut sim, deployments) = build_scenario(17);
    sim.run_ticks(120);
    let snap = sim.snapshot();
    // WorkloadC generated only reads; its partitions must show zero writes.
    let c = deployments.iter().find(|d| d.spec.name == "C").expect("deployed");
    for p in &c.partitions {
        let m = snap.partitions.iter().find(|m| m.partition == *p).expect("known");
        assert_eq!(m.counters.writes, 0, "reads-only workload wrote");
        assert!(m.counters.reads > 0, "no reads recorded");
    }
    // WorkloadB only writes.
    let b = deployments.iter().find(|d| d.spec.name == "B").expect("deployed");
    for p in &b.partitions {
        let m = snap.partitions.iter().find(|m| m.partition == *p).expect("known");
        assert_eq!(m.counters.reads, 0, "write-only workload read");
        assert!(m.counters.writes > 0, "no writes recorded");
    }
    // WorkloadE mostly scans.
    let e = deployments.iter().find(|d| d.spec.name == "E").expect("deployed");
    let scans: u64 = e
        .partitions
        .iter()
        .map(|p| snap.partitions.iter().find(|m| m.partition == *p).expect("known").counters.scans)
        .sum();
    assert!(scans > 0, "no scans recorded for the scan workload");
}

#[test]
fn met_runs_from_an_explicit_config() {
    // §6.1's values with scaling disabled, built as a literal and handed
    // to MeT, which then manages the cluster.
    let cfg = MetConfig {
        monitor_interval: SimDuration::from_secs(30),
        min_samples: 6,
        suboptimal_nodes_threshold: 0.5,
        classify_threshold: 0.6,
        allow_scaling: false,
        ..MetConfig::default()
    };
    let (mut sim, _) = build_scenario(77);
    let mut met = Met::new(cfg, StoreConfig::default_homogeneous());
    for _ in 0..(8 * 60) {
        sim.step();
        met.tick(&mut sim);
    }
    assert!(met.reconfigurations() >= 1, "MeT never acted");
    // Scaling was disabled: the fleet size is untouched.
    assert_eq!(sim.online_server_ids().len(), 5);
}
