//! Property-based tests of the fault-injection layer and MeT's
//! self-healing: any seeded, bounded-rate fault plan must leave the
//! control plane in a stable, fully assigned state within a bounded
//! number of decision rounds after the last fault.

use cluster::{ClientGroup, CostParams, OpMix, PartitionId, PartitionSpec, SimCluster};
use hstore::StoreConfig;
use met::{Met, MetConfig};
use proptest::prelude::*;
use simcore::{FaultPlan, RandomFaultConfig, SimDuration};
use std::collections::BTreeSet;

/// The §3 scenario in miniature: read, write and mixed tenants over 12
/// partitions on a 4-node homogeneous cluster.
fn build_scenario(seed: u64) -> SimCluster {
    let mut sim = SimCluster::new(CostParams::default(), seed);
    for _ in 0..4 {
        sim.add_server_immediate(StoreConfig::default_homogeneous());
    }
    let mut parts = Vec::new();
    for _ in 0..12 {
        parts.push(sim.create_partition(PartitionSpec {
            table: "t".into(),
            size_bytes: 1e9,
            record_bytes: 1_000.0,
            hot_set_fraction: 0.4,
            hot_ops_fraction: 0.5,
        }));
    }
    sim.random_balance_unassigned();
    let third = |offset: usize| -> Vec<(PartitionId, f64)> {
        (0..4).map(|i| (parts[offset + i], 0.25)).collect()
    };
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
        third(4),
        1.0,
        0.2,
    ));
    sim.add_group(ClientGroup::with_common_weights(
        "mixed",
        60.0,
        0.5,
        None,
        OpMix::new(0.5, 0.5, 0.0),
        third(8),
        1.0,
        0.0,
    ));
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Stability under chaos: every fault in a bounded-rate random plan
    /// fires inside a 10-minute window; three decision rounds later
    /// (min_samples × monitor_interval = 3 minutes each) the actuator is
    /// idle, every partition lives on an online server, and the layout no
    /// longer changes.
    #[test]
    fn bounded_fault_plans_stabilize_within_three_decision_rounds(
        seed in 0u64..1_000_000,
        faults in 1usize..5,
        allow_crashes in any::<bool>(),
    ) {
        let plan = FaultPlan::random(seed, &RandomFaultConfig {
            horizon: SimDuration::from_mins(10),
            warmup: SimDuration::from_mins(2),
            faults,
            allow_crashes,
            disk_faults: false,
        });
        let injector = plan.injector();
        let mut sim = build_scenario(seed);
        sim.set_fault_injector(injector.clone());
        sim.set_provision_delay(SimDuration::from_secs(30));
        let mut met = Met::new(
            MetConfig { allow_scaling: false, ..MetConfig::default() },
            StoreConfig::default_homogeneous(),
        );
        met.set_fault_injector(injector);

        // The 10-minute fault window plus three decision rounds.
        for _ in 0..(19 * 60) {
            sim.step();
            met.tick(&mut sim);
        }
        prop_assert!(
            !met.reconfiguring(),
            "actuator still busy 9 minutes after the last fault: {:?}",
            met.actuator_stats()
        );

        // Stable: another decision round changes nothing structural.
        let before = cluster::ElasticCluster::snapshot(&sim);
        let layout_of = |snap: &cluster::ClusterSnapshot| -> Vec<(u64, Option<u64>)> {
            snap.partitions.iter().map(|p| (p.partition.0, p.assigned_to.map(|s| s.0))).collect()
        };
        let before_layout = layout_of(&before);
        for _ in 0..(3 * 60) {
            sim.step();
            met.tick(&mut sim);
        }
        let after = cluster::ElasticCluster::snapshot(&sim);
        prop_assert_eq!(
            before_layout,
            layout_of(&after),
            "placement still churning after convergence"
        );

        // Fully assigned: every partition on an online server.
        let online: BTreeSet<_> = after.online_servers().into_iter().collect();
        prop_assert!(!online.is_empty(), "fleet wiped out");
        for p in &after.partitions {
            prop_assert!(p.assigned_to.is_some(), "partition {} unassigned", p.partition.0);
            let s = p.assigned_to.expect("checked above");
            prop_assert!(
                online.contains(&s),
                "partition {} stranded on dead server {s}: {:?}",
                p.partition.0,
                met.actuator_stats()
            );
        }

        // Crashes were repaired: the fleet is back at full strength.
        if allow_crashes {
            prop_assert!(online.len() >= 3, "crashed nodes not replaced: {:?}", met.actuator_stats());
        } else {
            prop_assert_eq!(online.len(), 4);
        }
    }
}
