//! Property-based tests of the cluster simulation's conservation laws and
//! the DFS invariants.

use cluster::{
    ClientGroup, CostParams, ElasticCluster, OpMix, PartitionId, PartitionSpec, SimCluster,
};
use dfs::{DataNodeId, DfsFileId, Namenode};
use hstore::StoreConfig;
use proptest::prelude::*;
use simcore::SimRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: the operations charged to partition counters equal
    /// (within rounding) the throughput integrated over the run, and
    /// throughput never exceeds the closed-loop ceiling.
    #[test]
    fn ops_are_conserved_and_ceiling_holds(
        seed in any::<u64>(),
        servers in 1usize..5,
        partitions in 1usize..8,
        threads in 5.0f64..200.0,
        read_frac in 0.0f64..1.0,
    ) {
        let mut sim = SimCluster::new(CostParams::default(), seed);
        for _ in 0..servers {
            sim.add_server_immediate(StoreConfig::default_homogeneous());
        }
        let parts: Vec<PartitionId> = (0..partitions)
            .map(|_| sim.create_partition(PartitionSpec {
                table: "t".into(),
                size_bytes: 1e9,
                record_bytes: 1_000.0,
                hot_set_fraction: 0.4,
                hot_ops_fraction: 0.5,
            }))
            .collect();
        sim.random_balance_unassigned();
        let w = 1.0 / partitions as f64;
        let think_ms = 1.0;
        let mix = OpMix::new(read_frac, 1.0 - read_frac + 1e-9, 0.0);
        sim.add_group(ClientGroup::with_common_weights(
            "g", threads, think_ms, None, mix,
            parts.iter().map(|p| (*p, w)).collect(), 1.0, 0.0,
        ));
        let ticks = 60;
        sim.run_ticks(ticks);

        // Ceiling: a closed loop with `threads` clients cannot exceed
        // threads / think_time.
        let ceiling = threads / (think_ms / 1_000.0);
        for (_, x) in sim.total_series().points() {
            prop_assert!(*x <= ceiling * 1.01, "throughput {x} above ceiling {ceiling}");
        }

        // Conservation: counters ≈ integral of the series.
        let integral: f64 = sim.total_series().points().iter().map(|(_, x)| x).sum();
        let storage_ops_per_req = mix.read + mix.write + mix.scan;
        let snap = sim.snapshot();
        let counted: u64 = snap.partitions.iter().map(|p| p.counters.total()).sum();
        let expected = integral * storage_ops_per_req;
        prop_assert!(
            (counted as f64 - expected).abs() <= expected * 0.02 + ticks as f64,
            "counters {counted} vs integrated {expected:.0}"
        );
    }

    /// The DFS keeps its replication invariants under arbitrary sequences
    /// of file creations, deletions and decommissions.
    #[test]
    fn dfs_replication_invariants(
        seed in any::<u64>(),
        nodes in 3u64..8,
        actions in prop::collection::vec((0u8..10, any::<u64>()), 1..80),
    ) {
        let mut nn = Namenode::new(2, SimRng::new(seed));
        for i in 0..nodes {
            nn.add_datanode(DataNodeId(i));
        }
        let mut live_files: Vec<DfsFileId> = Vec::new();
        let mut live_nodes: Vec<DataNodeId> = (0..nodes).map(DataNodeId).collect();
        let mut next_file = 0u64;
        for (kind, arg) in actions {
            match kind {
                0..=5 => {
                    // Create from a random live node.
                    let writer = live_nodes[(arg % live_nodes.len() as u64) as usize];
                    let id = DfsFileId(next_file);
                    next_file += 1;
                    nn.create_file(id, 100 + arg % 900, writer).expect("create");
                    live_files.push(id);
                }
                6..=7 => {
                    if let Some(pos) = live_files.len().checked_sub(1) {
                        let idx = (arg as usize) % (pos + 1);
                        let id = live_files.swap_remove(idx);
                        nn.delete_file(id).expect("delete tracked file");
                    }
                }
                _ => {
                    // Decommission, keeping at least 2 nodes so rf=2 holds.
                    if live_nodes.len() > 2 {
                        let idx = (arg as usize) % live_nodes.len();
                        let node = live_nodes.swap_remove(idx);
                        nn.remove_datanode(node).expect("decommission");
                    }
                }
            }
            // Invariant: every live file keeps exactly rf replicas on live
            // nodes (rf capped by the cluster size).
            for id in &live_files {
                let reps = nn.replicas(*id).expect("live file");
                prop_assert_eq!(reps.len(), 2.min(live_nodes.len()), "file {} replicas", id);
                for r in &reps {
                    prop_assert!(live_nodes.contains(r), "replica on dead node {r}");
                }
            }
        }
    }

    /// Locality indices are always in [0, 1] and byte-weighted correctly.
    #[test]
    fn locality_is_a_valid_fraction(
        seed in any::<u64>(),
        sizes in prop::collection::vec(1u64..10_000, 1..20),
    ) {
        let mut nn = Namenode::new(2, SimRng::new(seed));
        for i in 0..4 {
            nn.add_datanode(DataNodeId(i));
        }
        let mut served = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let id = DfsFileId(i as u64);
            nn.create_file(id, *size, DataNodeId(i as u64 % 4)).expect("create");
            served.push((id, *size));
        }
        for n in 0..4 {
            let loc = nn.locality_index(DataNodeId(n), &served);
            prop_assert!((0.0..=1.0).contains(&loc), "locality {loc}");
        }
        // The writers' localities, byte-weighted, cover every byte at least
        // once (each file is local to its writer).
        let total: u64 = served.iter().map(|(_, s)| s).sum();
        let weighted: f64 = (0..4)
            .map(|n| nn.locality_index(DataNodeId(n), &served) * total as f64)
            .sum();
        prop_assert!(weighted >= total as f64 - 1e-6, "writers lost locality");
    }
}

/// FNV-1a over `u64` words, byte by byte (little endian).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn series(&mut self, s: &simcore::timeseries::TimeSeries) {
        self.word(s.points().len() as u64);
        for (t, v) in s.points() {
            self.word(t.as_millis());
            self.float(*v);
        }
    }
}

/// Figure 4's first ten minutes: the six-tenant YCSB scenario on five
/// Random-Homogeneous servers, MeT (scaling off) attached at tick 120.
/// Digests every float the simulation publishes — `total_series`, each
/// group's throughput and latency series, the final snapshot — and, when
/// telemetry is on, the registry's per-server and per-profile p99
/// histograms (the only consumers of the latency digest's mean/p50/p95
/// besides the gauges live beside them).
fn control_loop_digest(telemetry: telemetry::Telemetry) -> u64 {
    let mut scenario = met_bench::scenario::ycsb_scenario(1000);
    baselines::build_random_homogeneous(&mut scenario.sim, 5);
    scenario.start_clients();
    scenario.sim.set_telemetry(telemetry.clone());
    let cfg = met::MetConfig { allow_scaling: false, ..met::MetConfig::default() };
    let mut met =
        met::Met::with_telemetry(cfg, StoreConfig::default_homogeneous(), telemetry.clone());
    let sim = &mut scenario.sim;
    for tick in 0..600 {
        sim.step();
        if tick >= 120 {
            met.tick(sim);
        }
    }

    let mut h = Fnv::new();
    h.series(sim.total_series());
    for d in &scenario.deployments {
        let name = d.client_group().name;
        h.series(sim.group_throughput(&name).expect("group series"));
        h.series(sim.group_latency_ms(&name).expect("latency series"));
    }
    let snap = sim.snapshot();
    for s in &snap.servers {
        h.word(s.server.0);
        for v in
            [s.cpu_util, s.io_wait, s.mem_util, s.requests_per_sec, s.p99_latency_ms, s.locality]
        {
            h.float(v);
        }
        h.word(s.partitions.len() as u64);
    }
    for p in &snap.partitions {
        h.word(p.partition.0);
        h.word(p.counters.reads);
        h.word(p.counters.writes);
        h.word(p.counters.scans);
        h.word(p.size_bytes);
        h.word(p.assigned_to.map_or(0, |s| s.0));
        h.float(p.locality);
    }
    if telemetry.is_enabled() {
        let metrics = telemetry.metrics();
        for (key, value) in &metrics.gauges {
            if key.name.starts_with("sim_latency_") {
                h.float(*value);
            }
        }
        for (key, s) in &metrics.histograms {
            if matches!(
                key.name.as_str(),
                "sim_server_latency_ms" | "sim_server_p99_ms" | "sim_profile_p99_ms"
            ) {
                h.word(s.count);
                for v in [s.sum, s.min, s.max, s.p50, s.p95, s.p99] {
                    h.float(v);
                }
            }
        }
    }
    h.0
}

/// Pinned at the commit before the dense solver landed: any change to the
/// order of a float operation in `SimCluster::step` moves these.
#[test]
fn control_loop_bits_are_pinned_with_telemetry_off() {
    assert_eq!(
        control_loop_digest(telemetry::Telemetry::disabled()),
        0xa653_1a58_d204_e05a,
        "digest moved"
    );
}

#[test]
fn control_loop_bits_are_pinned_with_telemetry_on() {
    let ring = telemetry::Telemetry::with_ring(telemetry::Verbosity::Debug, 1 << 12);
    assert_eq!(control_loop_digest(ring), 0x6c04_5f1a_ac98_2e80, "digest moved");
}
