//! Property tests for the tick engine under randomized topology schedules
//! of grow / shrink / crash-replace / run-ticks operations.
//!
//! 1. **Slots follow servers** — the engine keeps one resident solver slot
//!    per server, paired with the fleet by position. After *every* step
//!    `snapshot()` lists exactly the live servers (every known id minus
//!    the decommissioned and crashed ones) and no per-server metric is
//!    published for a server after it stopped; after every tick a listed
//!    server reports load exactly when it hosts a partition — a slot read
//!    against the wrong server would hand one server another's load.
//! 2. **Determinism** — replaying the identical schedule at the same seed
//!    produces byte-identical telemetry traces, throughput series and
//!    final snapshots.

use cluster::{
    ClientGroup, CostParams, ElasticCluster, OpMix, PartitionId, PartitionSpec, ServerId,
    SimCluster,
};
use hstore::StoreConfig;
use proptest::prelude::*;

/// One step of a topology schedule. Indices are taken modulo the current
/// online-server count so any u8 is valid regardless of fleet history.
#[derive(Debug, Clone)]
enum TopoOp {
    /// Provision a fresh server (immediate: no boot delay).
    Grow,
    /// Decommission the i-th online server (partitions hand off first).
    Shrink(u8),
    /// Crash the i-th online server, then provision a replacement — the
    /// §6.2 crash-replace flow; the healer re-homes the dead server's
    /// partitions over the following ticks.
    CrashReplace(u8),
    /// Advance the simulation 1–3 ticks.
    Run(u8),
}

fn op_strategy() -> impl Strategy<Value = TopoOp> {
    prop_oneof![
        Just(TopoOp::Grow),
        any::<u8>().prop_map(TopoOp::Shrink),
        any::<u8>().prop_map(TopoOp::CrashReplace),
        // Duplicated arm: ticks between topology changes let the solver
        // and the metrics pass actually run on the new fleet.
        (1u8..4).prop_map(TopoOp::Run),
        (1u8..4).prop_map(TopoOp::Run),
    ]
}

fn build(seed: u64) -> (SimCluster, telemetry::Telemetry) {
    let telemetry = telemetry::Telemetry::with_ring(telemetry::Verbosity::Debug, 1 << 15);
    let mut sim = SimCluster::new(CostParams::default(), seed);
    sim.set_telemetry(telemetry.clone());
    for _ in 0..3 {
        sim.add_server_immediate(StoreConfig::default_homogeneous());
    }
    let parts: Vec<PartitionId> = (0..6)
        .map(|_| {
            sim.create_partition(PartitionSpec {
                table: "prop".into(),
                size_bytes: 1.0e9,
                record_bytes: 1_000.0,
                hot_set_fraction: 0.4,
                hot_ops_fraction: 0.5,
            })
        })
        .collect();
    sim.random_balance_unassigned();
    let w = 1.0 / parts.len() as f64;
    sim.add_group(ClientGroup::with_common_weights(
        "prop",
        45.0,
        0.5,
        None,
        OpMix::new(0.45, 0.45, 0.10),
        parts.iter().map(|p| (*p, w)).collect(),
        1.0,
        0.0,
    ));
    (sim, telemetry)
}

/// Servers the schedule has stopped so far, each with the number of
/// `sim_server_p99_ms` observations it had accumulated when it stopped.
type Stopped = Vec<(ServerId, u64)>;

fn p99_observations(telemetry: &telemetry::Telemetry, server: ServerId) -> u64 {
    let label = server.0.to_string();
    telemetry
        .histogram_summary("sim_server_p99_ms", &[("server", label.as_str())])
        .map_or(0, |h| h.count)
}

/// Asserts that `snapshot()` lists exactly the live servers and that no
/// stopped server has been published for since it stopped; `ticked` (the
/// last step ran ticks, so every figure is current) adds that a server
/// reports load exactly when it hosts a partition.
fn check_fleet(
    sim: &SimCluster,
    telemetry: &telemetry::Telemetry,
    stopped: &Stopped,
    ticked: bool,
) {
    let snapshot = sim.snapshot();
    let listed: Vec<ServerId> = snapshot.servers.iter().map(|s| s.server).collect();
    let live: Vec<ServerId> = sim
        .all_server_ids()
        .into_iter()
        .filter(|id| stopped.iter().all(|(gone, _)| gone != id))
        .collect();
    assert_eq!(listed, live, "snapshot must list exactly the live servers, ascending");
    for (gone, at_stop) in stopped {
        assert_eq!(
            p99_observations(telemetry, *gone),
            *at_stop,
            "a metric was published for {gone} after it stopped"
        );
    }
    for s in snapshot.servers.iter().filter(|_| ticked) {
        assert_eq!(
            s.requests_per_sec > 0.0,
            !s.partitions.is_empty(),
            "{}: {} ops/s over {} partitions",
            s.server,
            s.requests_per_sec,
            s.partitions.len()
        );
    }
}

fn trace_of(telemetry: &telemetry::Telemetry) -> String {
    telemetry.events().iter().map(|e| e.to_json_line()).collect::<Vec<_>>().join("\n")
}

/// Runs the schedule, checking the fleet after every step; returns the
/// trace, the throughput series and the final snapshot.
fn run_schedule(schedule: &[TopoOp], seed: u64) -> (String, String, String) {
    let (mut sim, telemetry) = build(seed);
    let mut stopped = Stopped::new();
    check_fleet(&sim, &telemetry, &stopped, false);
    for op in schedule {
        match op {
            TopoOp::Grow => {
                sim.add_server_immediate(StoreConfig::default_homogeneous());
            }
            TopoOp::Shrink(i) => {
                let online = sim.online_server_ids();
                // Keep at least two servers so the client group always
                // has somewhere to land.
                if online.len() > 2 {
                    let victim = online[*i as usize % online.len()];
                    if sim.decommission_server(victim).is_ok() {
                        stopped.push((victim, p99_observations(&telemetry, victim)));
                    }
                }
            }
            TopoOp::CrashReplace(i) => {
                let online = sim.online_server_ids();
                if online.len() > 1 {
                    let victim = online[*i as usize % online.len()];
                    sim.crash_server(victim);
                    stopped.push((victim, p99_observations(&telemetry, victim)));
                    sim.add_server_immediate(StoreConfig::default_homogeneous());
                }
            }
            TopoOp::Run(n) => sim.run_ticks(*n as usize),
        }
        check_fleet(&sim, &telemetry, &stopped, matches!(op, TopoOp::Run(_)));
    }
    // A final settle so decommission hand-offs complete inside the
    // compared window.
    sim.run_ticks(3);
    check_fleet(&sim, &telemetry, &stopped, true);
    (
        trace_of(&telemetry),
        format!("{:?}", sim.total_series().points()),
        format!("{:?}", sim.snapshot()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn topology_schedules_repeat_exactly_and_slots_follow_servers(
        schedule in proptest::collection::vec(op_strategy(), 1..10),
        seed in 0u64..1_000,
    ) {
        let (trace_a, series_a, snap_a) = run_schedule(&schedule, seed);
        let (trace_b, series_b, snap_b) = run_schedule(&schedule, seed);
        prop_assert_eq!(trace_a, trace_b, "telemetry trace diverged for {:?}", schedule);
        prop_assert_eq!(series_a, series_b, "throughput series diverged for {:?}", schedule);
        prop_assert_eq!(snap_a, snap_b, "final snapshot diverged for {:?}", schedule);
    }
}
