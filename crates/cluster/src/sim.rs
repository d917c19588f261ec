//! The tick-driven cluster simulation.
//!
//! [`SimCluster`] hosts metadata partitions on modelled RegionServers and
//! integrates throughput tick by tick (default 1 s):
//!
//! 1. Closed-loop client groups (YCSB/TPC-C thread pools) present demand;
//!    a damped fixed-point solve finds the equilibrium throughput where
//!    each group's rate equals `threads / (response time + think time)`
//!    under the shared-server queueing model of [`crate::model`].
//! 2. Achieved operations are charged to partition counters (the JMX
//!    metrics MeT reads), data grows under insert traffic, flushed files
//!    register in the simulated DFS at the hosting server (local writes),
//!    compaction backlogs drain at ≈ 1 min/GB, and cache warmth evolves.
//! 3. Management actions — moves, restarts, compactions, provisioning,
//!    decommissioning — have the availability and locality consequences
//!    the paper measures (§5, §6.2).
//!
//! The whole simulation is deterministic for a given seed, by construction:
//! there is one tick engine and it is sequential. Every per-server phase is
//! a plain loop over `servers` in ascending `ServerId` order, beside a
//! resident [`ServerSlot`] of solver state per server, so every float fold,
//! registry operation and telemetry event has one fixed order; per-server
//! randomness comes from RNG streams forked by server ID
//! ([`simcore::SimRng::fork`]), never from a shared stream whose draws
//! would depend on sibling ordering. DESIGN.md "Determinism" records why
//! there is no parallel engine and what measurement would justify one.

use crate::admin::{
    AdminError, ClusterSnapshot, ElasticCluster, PartitionMetrics, ServerHealth, ServerMetrics,
};
use crate::latency::{profile_label, LatencyMixture};
use crate::model::{
    evaluate_server, queue_inflation, CostParams, EvalScratch, PartitionDemand, ServerEval,
};
use crate::types::{OpMix, PartitionCounters, PartitionId, ServerId};
use dfs::{DataNodeId, DfsFileId, Namenode};
use hstore::StoreConfig;
use simcore::timeseries::TimeSeries;
use simcore::{FaultInjector, FaultOp, ProvisionFault, SimDuration, SimRng, SimTime};
use std::cell::OnceCell;
use std::collections::{BTreeMap, VecDeque};
use telemetry::{span as wallspan, MetricsBuffer, Telemetry, TelemetryEvent};

/// Fixed-point iterations per tick.
const SOLVER_ITERS: usize = 48;
/// Iterations over which the final estimate is averaged (the closed-loop
/// fixed point can settle into a small limit cycle near saturation; the
/// cycle average is the equilibrium rate).
const SOLVER_AVG_WINDOW: usize = 12;
/// Size of synthesized flush files registered in the DFS.
const FLUSH_FILE_BYTES: f64 = 64e6;
/// Size of the initial files created when a partition is first assigned.
const INITIAL_FILE_BYTES: f64 = 256e6;

/// Specification for creating a simulated partition.
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    /// Owning table name.
    pub table: String,
    /// Initial logical size in bytes.
    pub size_bytes: f64,
    /// Average record size in bytes.
    pub record_bytes: f64,
    /// Fraction of bytes forming the hot set.
    pub hot_set_fraction: f64,
    /// Fraction of accesses hitting the hot set.
    pub hot_ops_fraction: f64,
}

/// A closed-loop client population (one YCSB workload or one TPC-C
/// terminal pool).
#[derive(Debug, Clone)]
pub struct ClientGroup {
    /// Display name (e.g. "workload-a").
    pub name: String,
    /// Number of client threads (closed loop).
    pub threads: f64,
    /// Per-request client-side think/overhead time in milliseconds.
    pub think_ms: f64,
    /// Optional throughput cap, requests/s (YCSB `target`).
    pub target_rate: Option<f64>,
    /// Storage operations per client request, by kind.
    pub mix: OpMix,
    /// Where the group's point reads land: `(partition, weight)` with
    /// weights summing to 1. May be empty iff `mix.read == 0`.
    pub read_weights: Vec<(PartitionId, f64)>,
    /// Where writes land.
    pub write_weights: Vec<(PartitionId, f64)>,
    /// Where scans land.
    pub scan_weights: Vec<(PartitionId, f64)>,
    /// Average rows per scan.
    pub scan_rows: f64,
    /// Fraction of writes that are inserts (grow the logical data).
    pub insert_fraction: f64,
    /// Where inserts land: `(partition, weight)` summing to 1. Defaults to
    /// `write_weights`; differs when only some written tables grow (TPC-C
    /// inserts orders/history but updates stock/customer in place).
    pub insert_weights: Vec<(PartitionId, f64)>,
    /// Per-write CPU efficiency: 1.0 = one RPC per write (YCSB); lower
    /// when the client batches mutations (PyTPCC).
    pub write_cpu_factor: f64,
    /// Whether the group is currently generating load.
    pub active: bool,
}

impl ClientGroup {
    /// Builds a group whose reads, writes and scans all follow the same
    /// partition distribution (the YCSB case).
    #[allow(clippy::too_many_arguments)]
    pub fn with_common_weights(
        name: impl Into<String>,
        threads: f64,
        think_ms: f64,
        target_rate: Option<f64>,
        mix: OpMix,
        partitions: Vec<(PartitionId, f64)>,
        scan_rows: f64,
        insert_fraction: f64,
    ) -> Self {
        ClientGroup {
            name: name.into(),
            threads,
            think_ms,
            target_rate,
            mix,
            read_weights: partitions.clone(),
            write_weights: partitions.clone(),
            scan_weights: partitions.clone(),
            scan_rows,
            insert_fraction,
            insert_weights: partitions,
            write_cpu_factor: 1.0,
            active: true,
        }
    }

    fn validate(&self) {
        for (kind, weights, rate) in [
            ("read", &self.read_weights, self.mix.read),
            ("write", &self.write_weights, self.mix.write),
            ("scan", &self.scan_weights, self.mix.scan),
        ] {
            if rate > 0.0 {
                let sum: f64 = weights.iter().map(|(_, w)| w).sum();
                assert!(
                    (sum - 1.0).abs() < 1e-6,
                    "group '{}' {kind} weights sum to {sum}",
                    self.name
                );
            }
        }
        assert!(self.threads > 0.0);
    }

    /// Every partition the group touches, with the per-kind op rates it
    /// sends there for one request per second.
    fn per_partition_rates(&self) -> BTreeMap<PartitionId, (f64, f64, f64)> {
        let mut out: BTreeMap<PartitionId, (f64, f64, f64)> = BTreeMap::new();
        for &(p, w) in &self.read_weights {
            out.entry(p).or_default().0 += self.mix.read * w;
        }
        for &(p, w) in &self.write_weights {
            out.entry(p).or_default().1 += self.mix.write * w;
        }
        for &(p, w) in &self.scan_weights {
            out.entry(p).or_default().2 += self.mix.scan * w;
        }
        out
    }
}

#[derive(Debug)]
struct SimPartition {
    table: String,
    size_bytes: f64,
    record_bytes: f64,
    hot_set_fraction: f64,
    hot_ops_fraction: f64,
    counters: PartitionCounters,
    files: Vec<(DfsFileId, u64)>,
    unflushed_bytes: f64,
    moving_until: Option<SimTime>,
    // WAL backlog stranded by a crash: bytes that were in the memstore
    // when the host died and now exist only in the log, awaiting replay
    // on whichever server the partition is re-homed to.
    recovery_backlog: f64,
    // In-flight replay: (started, wal_bytes); resolved when the move
    // outage expires.
    recovering: Option<(SimTime, u64)>,
}

/// Lifecycle state of a simulated server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServerState {
    Provisioning { until: SimTime },
    Online,
    Restarting { until: SimTime },
    Stopped,
}

#[derive(Debug)]
struct SimServer {
    // The id as a metric label value (`server="3"`), formatted once.
    label: String,
    config: StoreConfig,
    state: ServerState,
    warmth: f64,
    // The server's own forked RNG stream (keyed by server ID), so draws
    // made on behalf of this server do not depend on what any sibling
    // server drew before it.
    rng: SimRng,
    compaction_backlog: VecDeque<(PartitionId, f64)>,
    // Metrics from the last completed tick.
    last_cpu: f64,
    last_io: f64,
    last_mem: f64,
    last_rps: f64,
    // p99 of the response-time distribution of the last completed tick.
    last_p99_ms: f64,
    // Cumulative modelled block-cache accesses (hit fraction ≈ warmth).
    cache_hits: u64,
    cache_misses: u64,
}

impl SimServer {
    fn new(
        id: ServerId,
        config: StoreConfig,
        state: ServerState,
        warmth: f64,
        rng: SimRng,
    ) -> Self {
        SimServer {
            label: id.0.to_string(),
            config,
            state,
            warmth,
            rng,
            compaction_backlog: VecDeque::new(),
            last_cpu: 0.0,
            last_io: 0.0,
            last_mem: 0.0,
            last_rps: 0.0,
            last_p99_ms: 0.0,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    fn health(&self) -> ServerHealth {
        match self.state {
            ServerState::Online => ServerHealth::Online,
            ServerState::Restarting { .. } => ServerHealth::Restarting,
            ServerState::Provisioning { .. } => ServerHealth::Provisioning,
            ServerState::Stopped => ServerHealth::Stopped,
        }
    }
}

/// One server's solver state, resident in the cluster across ticks:
/// `SimCluster::slots` holds one per entry of `servers`, in ascending
/// `ServerId` order, so `slots.iter().zip(servers.values())` pairs each
/// slot with its server. A slot whose `demands` is empty belongs to a
/// server no active group reaches this tick and is skipped everywhere.
/// [`SimCluster::plan_solve`] resizes the vector to the fleet and rewrites
/// the topology half once per tick; the 48 solver iterations and the
/// reporting pass then only overwrite rates and results in place.
#[derive(Default)]
struct ServerSlot {
    /// Hosted partitions with demand, ascending `PartitionId`: the static
    /// fields are written by the plan, the five rate fields per pass.
    demands: Vec<PartitionDemand>,
    /// [`SolvePlan`] index of each demand's partition.
    index: Vec<usize>,
    /// Scratch evaluation, overwritten by every pass.
    eval: ServerEval,
    work: EvalScratch,
    /// The last solver iteration's evaluation — the utilisation `step()`
    /// publishes. Swapped out of `eval` before the reporting pass reuses it.
    settled: ServerEval,
    /// Response-time mixture from the reporting pass. Like `settled`, only
    /// current for an online server with demand — the only kind `step()`
    /// publishes anything for.
    mixture: LatencyMixture,
}

impl ServerSlot {
    /// Loads this pass's per-partition rates into the resident demands and
    /// evaluates the (online) server under them; returns the
    /// `(icpu, idisk, ihandler)` inflation factors.
    fn evaluate(
        &mut self,
        params: &CostParams,
        server: &SimServer,
        rates: &[PartitionLoad],
    ) -> (f64, f64, f64) {
        for (d, pi) in self.demands.iter_mut().zip(&self.index) {
            let Some(&(r, w, s, rows, write_cpu_factor)) = rates.get(*pi) else { continue };
            d.read_rps = r;
            d.write_rps = w;
            d.scan_rps = s;
            d.scan_rows = rows.max(1.0);
            d.write_cpu_factor = write_cpu_factor;
        }
        let background =
            if server.compaction_backlog.is_empty() { 0.0 } else { params.compact_mb_s };
        evaluate_server(
            params,
            &server.config,
            server.warmth,
            background,
            &self.demands,
            &mut self.work,
            &mut self.eval,
        );
        inflation_factors(params, &server.config, &self.demands, &self.eval)
    }
}

/// The simulated cluster.
pub struct SimCluster {
    params: CostParams,
    tick: SimDuration,
    now: SimTime,
    provision_delay: SimDuration,
    auto_balance_every: Option<SimDuration>,
    last_auto_balance: SimTime,
    servers: BTreeMap<ServerId, SimServer>,
    partitions: BTreeMap<PartitionId, SimPartition>,
    assignment: BTreeMap<PartitionId, ServerId>,
    groups: Vec<ClientGroup>,
    group_x: Vec<f64>,
    namenode: Namenode,
    next_partition: u64,
    next_server: u64,
    next_file: u64,
    rng: SimRng,
    // Immutable base for per-server stream forks; never drawn from
    // directly, so a server's stream depends on its id alone.
    rng_streams: SimRng,
    // Solver state, one per entry of `servers` in ID order (see
    // `ServerSlot`), and the tick's staged per-server metrics.
    slots: Vec<ServerSlot>,
    // `partition_localities`' table, cleared by every write to its inputs.
    localities: OnceCell<BTreeMap<PartitionId, f64>>,
    metrics: MetricsBuffer,
    total_series: TimeSeries,
    group_series: BTreeMap<String, TimeSeries>,
    latency_series: BTreeMap<String, TimeSeries>,
    node_series: TimeSeries,
    auto_split_bytes: Option<f64>,
    splits: u64,
    telemetry: Telemetry,
    faults: FaultInjector,
    rerep_mb_s: f64,
    // Region servers keep a write-ahead log, as in HBase: a crash strands
    // the victim's memstore bytes as WAL backlog that must be replayed —
    // at this rate — before a re-homed partition serves again.
    wal_replay_mb_s: f64,
}

/// One partition's offered load under a throughput estimate: `(read rps,
/// write rps, scan rps, mean scan rows, write CPU factor)`.
type PartitionLoad = (f64, f64, f64, f64, f64);

/// The solve's dense view of the tick's topology, built once by
/// [`SimCluster::plan_solve`]: every partition an active group touches gets
/// an index, and everything the iterations look up by `PartitionId` is
/// resolved to that index up front, so the hot loop searches no tree and
/// has nothing to fail on.
///
/// Fold-order rule — the arithmetic is bit-for-bit the map-based solver's
/// because every sum runs in the order its maps iterated: groups by index;
/// a group's rate rows by ascending `PartitionId`; a server's demands by
/// ascending `PartitionId`; servers by ascending `ServerId`.
struct SolvePlan {
    /// Partitions some active group touches, ascending.
    pids: Vec<PartitionId>,
    /// Per group (empty while inactive): `(index, read, write, scan)` op
    /// rates for one request per second, what `per_partition_rates` yields.
    rates: Vec<Vec<(usize, f64, f64, f64)>>,
    /// Per group (empty while inactive): the read, write and scan weight
    /// lists as `(index, weight)`.
    weights: Vec<[Vec<(usize, f64)>; 3]>,
}

impl SimCluster {
    /// Creates an empty cluster with 1-second ticks, no provisioning delay
    /// and HBase's periodic count balancer disabled.
    pub fn new(params: CostParams, seed: u64) -> Self {
        let rng = SimRng::new(seed).derive("sim-cluster");
        SimCluster {
            params,
            tick: SimDuration::from_secs(1),
            now: SimTime::ZERO,
            provision_delay: SimDuration::ZERO,
            auto_balance_every: None,
            last_auto_balance: SimTime::ZERO,
            servers: BTreeMap::new(),
            partitions: BTreeMap::new(),
            assignment: BTreeMap::new(),
            groups: Vec::new(),
            group_x: Vec::new(),
            namenode: Namenode::new(2, SimRng::new(seed).derive("namenode")),
            next_partition: 1,
            next_server: 1,
            next_file: 1,
            rng,
            rng_streams: SimRng::new(seed).derive("server-streams"),
            slots: Vec::new(),
            localities: OnceCell::new(),
            metrics: MetricsBuffer::default(),
            total_series: TimeSeries::new("total ops/s"),
            group_series: BTreeMap::new(),
            latency_series: BTreeMap::new(),
            node_series: TimeSeries::new("online nodes"),
            auto_split_bytes: None,
            splits: 0,
            telemetry: Telemetry::disabled(),
            faults: FaultInjector::disabled(),
            rerep_mb_s: 50.0,
            wal_replay_mb_s: 50.0,
        }
    }

    /// Sets the WAL replay rate (MB/s) a recovering partition's log is
    /// drained at when it is re-homed after a crash.
    pub fn set_wal_replay_rate_mb_s(&mut self, mb_s: f64) {
        assert!(mb_s > 0.0, "replay rate must be positive");
        self.wal_replay_mb_s = mb_s;
    }

    // Ignored: there is one sequential tick engine. Exists only because the frozen `benchmark/` calls it; the next `benchmark/`-only PR deletes that call, the `simcore.par.speedup_t2` metric and then this function.
    #[doc(hidden)]
    pub fn set_threads(&mut self, _threads: usize) {}

    /// Routes storage-layer telemetry (flushes, compactions, splits, cache
    /// and locality metrics) to `telemetry`; the embedded namenode reports
    /// through the same handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.namenode.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Sets the VM boot delay applied by [`ElasticCluster::provision_server`]
    /// (zero = managing the database directly, §4.3).
    pub fn set_provision_delay(&mut self, d: SimDuration) {
        self.provision_delay = d;
    }

    /// Attaches a fault injector: scheduled provision failures, slow
    /// boots, server crashes, transient management-call failures and
    /// datanode losses fire against this cluster as simulated time passes.
    /// The default is [`FaultInjector::disabled`], under which every hook
    /// is a no-op and behaviour is identical to a build without them.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Sets the background re-replication rate (MB/s) at which blocks
    /// left under-replicated by a datanode *failure* are repaired.
    pub fn set_rereplication_rate_mb_s(&mut self, mb_s: f64) {
        self.rerep_mb_s = mb_s;
    }

    /// Bytes still waiting for background DFS repair after a failure.
    pub fn under_replicated_bytes(&self) -> u64 {
        self.namenode.under_replicated_bytes()
    }

    /// Crashes a server: it stops serving instantly, its partitions stay
    /// *assigned* to it (orphaned until the control plane reassigns them)
    /// and its co-located datanode is lost, leaving blocks
    /// under-replicated until background repair catches up. Unlike
    /// [`ElasticCluster::decommission_server`] nothing is handed off
    /// gracefully. Returns false when the server is unknown or already
    /// stopped.
    pub fn crash_server(&mut self, server: ServerId) -> bool {
        let Some(s) = self.servers.get_mut(&server) else { return false };
        if s.state == ServerState::Stopped {
            return false;
        }
        s.state = ServerState::Stopped;
        s.warmth = 0.0;
        s.compaction_backlog.clear();
        s.last_cpu = 0.0;
        s.last_io = 0.0;
        s.last_mem = 0.0;
        s.last_rps = 0.0;
        s.last_p99_ms = 0.0;
        let orphans = self.assignment.values().filter(|sid| **sid == server).count();
        // The victim's memstore contents survive as WAL backlog: nothing
        // is acknowledged-then-lost, but every orphaned partition owes a
        // replay before it serves again.
        let mut wal_backlog = 0.0;
        let orphan_ids: Vec<PartitionId> =
            self.assignment.iter().filter(|(_, sid)| **sid == server).map(|(p, _)| *p).collect();
        for p in orphan_ids {
            let part = self.partitions.get_mut(&p).expect("assigned partition exists");
            wal_backlog += part.unflushed_bytes;
            part.recovery_backlog += part.unflushed_bytes;
            part.unflushed_bytes = 0.0;
        }
        self.telemetry.counter_add("sim_wal_backlog_bytes_total", &[], wal_backlog as u64);
        self.localities.take();
        let _ = self.namenode.fail_datanode(DataNodeId(server.0));
        self.telemetry.counter_add("sim_server_crashes_total", &[], 1);
        self.telemetry.emit(
            self.now,
            TelemetryEvent::FaultInjected {
                kind: "server_crash".to_string(),
                target: Some(server.0),
                detail: format!(
                    "server {server} crashed; {orphans} partitions orphaned, \
                     {} B of WAL backlog to replay",
                    wal_backlog as u64
                ),
            },
        );
        true
    }

    // Fires due scripted faults that target the substrate itself (crashes
    // and datanode losses); call-level faults are consumed inside the
    // management calls they fail.
    fn apply_injected_faults(&mut self) {
        if !self.faults.is_enabled() {
            return;
        }
        for index in self.faults.take_crashes(self.now) {
            let online = self.online_server_ids();
            if online.is_empty() {
                continue;
            }
            let victim = online[index % online.len()];
            self.crash_server(victim);
        }
        for index in self.faults.take_datanode_losses(self.now) {
            let online = self.online_server_ids();
            if online.is_empty() {
                continue;
            }
            let victim = online[index % online.len()];
            self.localities.take();
            if self.namenode.fail_datanode(DataNodeId(victim.0)).is_ok() {
                self.telemetry.counter_add("sim_datanode_losses_total", &[], 1);
                self.telemetry.emit(
                    self.now,
                    TelemetryEvent::FaultInjected {
                        kind: "datanode_loss".to_string(),
                        target: Some(victim.0),
                        detail: format!("datanode dn-{} lost; blocks under-replicated", victim.0),
                    },
                );
            }
        }
        // Disk faults. A torn write or a failed fsync is fatal to the
        // store process (the storage layer refuses further writes on
        // either — see hstore's Wal), so both materialise as a crash of
        // the affected server; WAL replay then recovers everything that
        // was acknowledged before the fault.
        for bytes in self.faults.take_torn_writes(self.now) {
            let online = self.online_server_ids();
            if online.is_empty() {
                continue;
            }
            let victim = online[(bytes as usize) % online.len()];
            self.telemetry.counter_add("sim_disk_faults_total", &[("kind", "torn_write")], 1);
            self.telemetry.emit(
                self.now,
                TelemetryEvent::FaultInjected {
                    kind: "torn_write".to_string(),
                    target: Some(victim.0),
                    detail: format!(
                        "torn WAL write ({bytes} B reached disk) on server {victim}; \
                         process killed, tail truncates on replay"
                    ),
                },
            );
            self.crash_server(victim);
        }
        for _ in 0..self.faults.take_fsync_fails(self.now) {
            let online = self.online_server_ids();
            let Some(&victim) = online.first() else { continue };
            self.telemetry.counter_add("sim_disk_faults_total", &[("kind", "fsync_fail")], 1);
            self.telemetry.emit(
                self.now,
                TelemetryEvent::FaultInjected {
                    kind: "fsync_fail".to_string(),
                    target: Some(victim.0),
                    detail: format!(
                        "fsync failed on server {victim}; store aborted rather than \
                         acknowledge non-durable writes"
                    ),
                },
            );
            self.crash_server(victim);
        }
        // Bit-rot flips bits in an already-written store file. The block
        // checksum catches it on the next read; the repair is a rewrite of
        // the damaged file, charged to the owner as background compaction.
        for block in self.faults.take_bit_rots(self.now) {
            let assigned: Vec<PartitionId> = self.assignment.keys().copied().collect();
            if assigned.is_empty() {
                continue;
            }
            let p = assigned[block % assigned.len()];
            let sid = self.assignment[&p];
            let part = &self.partitions[&p];
            let Some(&(fid, fbytes)) = part.files.get(block % part.files.len().max(1)) else {
                continue;
            };
            let offset = (block as u64) * 65_536 % fbytes.max(1);
            self.telemetry.counter_add("sim_corruptions_detected_total", &[], 1);
            self.telemetry.emit(
                self.now,
                TelemetryEvent::CorruptionDetected {
                    server: sid.0,
                    file: fid.0,
                    offset,
                    detail: format!(
                        "block checksum mismatch in file {} of partition {}; \
                         rewriting the file from replicas",
                        fid.0, p.0
                    ),
                },
            );
            if let Some(server) = self.servers.get_mut(&sid) {
                // Read the replica + rewrite the file.
                server.compaction_backlog.push_back((p, 2.0 * fbytes as f64));
            }
        }
    }

    // Consumes a due transient-failure fault for a management call.
    fn injected_call_failure(&mut self, op: FaultOp, what: String) -> Option<AdminError> {
        if !self.faults.take_call_fault(self.now, op) {
            return None;
        }
        self.telemetry.counter_add("sim_call_faults_total", &[("op", op.as_str())], 1);
        self.telemetry.emit(
            self.now,
            TelemetryEvent::FaultInjected {
                kind: format!("{}_fail", op.as_str()),
                target: None,
                detail: what.clone(),
            },
        );
        Some(AdminError::TransientFailure(what))
    }

    /// Enables HBase's periodic randomized count balancer (what a cluster
    /// *not* managed by MeT runs).
    pub fn set_auto_balance(&mut self, every: Option<SimDuration>) {
        self.auto_balance_every = every;
    }

    /// The cost parameters in use.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Adds a server that is online immediately (initial cluster build-out).
    pub fn add_server_immediate(&mut self, config: StoreConfig) -> ServerId {
        config.validate().expect("invalid server config");
        let id = ServerId(self.next_server);
        self.next_server += 1;
        let rng = self.rng_streams.fork(&format!("server-{}", id.0));
        self.servers.insert(id, SimServer::new(id, config, ServerState::Online, 0.3, rng));
        self.namenode.add_datanode(DataNodeId(id.0));
        self.localities.take();
        id
    }

    /// Creates a partition (unassigned).
    pub fn create_partition(&mut self, spec: PartitionSpec) -> PartitionId {
        let id = PartitionId(self.next_partition);
        self.next_partition += 1;
        self.localities.take();
        self.partitions.insert(
            id,
            SimPartition {
                table: spec.table,
                size_bytes: spec.size_bytes,
                record_bytes: spec.record_bytes,
                hot_set_fraction: spec.hot_set_fraction,
                hot_ops_fraction: spec.hot_ops_fraction,
                counters: PartitionCounters::default(),
                files: Vec::new(),
                unflushed_bytes: 0.0,
                moving_until: None,
                recovery_backlog: 0.0,
                recovering: None,
            },
        );
        id
    }

    /// Assigns a partition to a server. On first assignment the partition's
    /// initial files are written at that server (100 % locality, the
    /// elasticity experiment's initial state, §6.4).
    pub fn assign_partition(&mut self, p: PartitionId, s: ServerId) -> Result<(), AdminError> {
        if !self.partitions.contains_key(&p) {
            return Err(AdminError::UnknownPartition(p));
        }
        let server = self.servers.get(&s).ok_or(AdminError::UnknownServer(s))?;
        if server.state == ServerState::Stopped {
            return Err(AdminError::ServerUnavailable(s));
        }
        self.assignment.insert(p, s);
        self.localities.take();
        let part = self.partitions.get_mut(&p).expect("checked above");
        if part.files.is_empty() && part.size_bytes > 0.0 {
            let mut remaining = part.size_bytes;
            while remaining > 0.0 {
                let sz = remaining.min(INITIAL_FILE_BYTES);
                let fid = DfsFileId(self.next_file);
                self.next_file += 1;
                self.namenode
                    .create_file(fid, sz as u64, DataNodeId(s.0))
                    .expect("datanode registered with server");
                part.files.push((fid, sz as u64));
                remaining -= sz;
            }
        }
        Ok(())
    }

    /// Randomized even-count placement of all unassigned partitions — the
    /// out-of-the-box HBase balancer behaviour (§2.1).
    pub fn random_balance_unassigned(&mut self) {
        let unassigned: Vec<PartitionId> =
            self.partitions.keys().filter(|p| !self.assignment.contains_key(p)).copied().collect();
        let mut online = self.online_server_ids();
        assert!(!online.is_empty(), "no online servers to balance onto");
        self.rng.shuffle(&mut online);
        let mut order = unassigned;
        self.rng.shuffle(&mut order);
        // Round-robin over the shuffled server order, starting from the
        // least-loaded servers so counts stay even.
        let mut counts: BTreeMap<ServerId, usize> = online.iter().map(|s| (*s, 0)).collect();
        for (pid, sid) in self.assignment.iter() {
            let _ = pid;
            if let Some(c) = counts.get_mut(sid) {
                *c += 1;
            }
        }
        for p in order {
            let target = *counts
                .iter()
                .min_by_key(|(sid, c)| (**c, sid.0))
                .map(|(sid, _)| sid)
                .expect("non-empty online set");
            self.assign_partition(p, target).expect("target is online");
            *counts.get_mut(&target).expect("counted") += 1;
        }
    }

    /// One round of HBase's count balancer: moves random partitions from
    /// over-count servers to under-count servers until counts are even.
    /// Returns the number of moves performed.
    pub fn rebalance_counts(&mut self) -> usize {
        let online = self.online_server_ids();
        if online.is_empty() {
            return 0;
        }
        let mut by_server: BTreeMap<ServerId, Vec<PartitionId>> =
            online.iter().map(|s| (*s, Vec::new())).collect();
        for (p, s) in &self.assignment {
            if let Some(v) = by_server.get_mut(s) {
                v.push(*p);
            }
        }
        let total: usize = by_server.values().map(|v| v.len()).sum();
        let floor = total / online.len();
        let ceil = total.div_ceil(online.len());
        let mut moves = 0;
        loop {
            let donor = by_server.iter().find(|(_, v)| v.len() > ceil).map(|(s, _)| *s);
            let donor = match donor {
                Some(d) => d,
                None => {
                    // Donors above floor feed any server below floor.
                    let Some(recipient) =
                        by_server.iter().find(|(_, v)| v.len() < floor).map(|(s, _)| *s)
                    else {
                        break;
                    };
                    let Some(donor) =
                        by_server.iter().find(|(_, v)| v.len() > floor).map(|(s, _)| *s)
                    else {
                        break;
                    };
                    let list = by_server.get_mut(&donor).expect("donor exists");
                    let idx = self.rng.next_below(list.len() as u64) as usize;
                    let p = list.swap_remove(idx);
                    self.do_move(p, recipient);
                    by_server.get_mut(&recipient).expect("recipient exists").push(p);
                    moves += 1;
                    continue;
                }
            };
            let recipient = *by_server
                .iter()
                .min_by_key(|(s, v)| (v.len(), s.0))
                .map(|(s, _)| s)
                .expect("non-empty");
            if by_server[&recipient].len() >= ceil {
                break;
            }
            let list = by_server.get_mut(&donor).expect("donor exists");
            let idx = self.rng.next_below(list.len() as u64) as usize;
            let p = list.swap_remove(idx);
            self.do_move(p, recipient);
            by_server.get_mut(&recipient).expect("recipient exists").push(p);
            moves += 1;
        }
        moves
    }

    fn do_move(&mut self, p: PartitionId, to: ServerId) {
        self.assignment.insert(p, to);
        self.localities.take();
        let mut outage = SimDuration::from_secs_f64(self.params.move_outage_s);
        let part = self.partitions.get_mut(&p).expect("moving unknown partition");
        // A crash-orphaned partition pays for WAL replay on top of the
        // close/open outage; the replayed records land back in the new
        // host's memstore and flush through the normal path.
        let mut replay: Option<u64> = None;
        if part.recovery_backlog > 0.0 {
            let wal_bytes = part.recovery_backlog as u64;
            outage = outage
                + SimDuration::from_secs_f64(part.recovery_backlog / (self.wal_replay_mb_s * 1e6));
            part.unflushed_bytes += part.recovery_backlog;
            part.recovery_backlog = 0.0;
            part.recovering = Some((self.now, wal_bytes));
            replay = Some(wal_bytes);
        }
        part.moving_until = Some(self.now + outage);
        if let Some(wal_bytes) = replay {
            self.telemetry.counter_add("sim_wal_replays_total", &[], 1);
            self.telemetry.counter_add("sim_wal_replayed_bytes_total", &[], wal_bytes);
            self.telemetry.emit(
                self.now,
                TelemetryEvent::RecoveryStarted { server: to.0, region: p.0, wal_bytes },
            );
        }
    }

    /// Registers a client group.
    pub fn add_group(&mut self, group: ClientGroup) {
        group.validate();
        self.group_series.insert(group.name.clone(), TimeSeries::new(group.name.clone()));
        self.latency_series
            .insert(group.name.clone(), TimeSeries::new(format!("{} latency (ms)", group.name)));
        self.groups.push(group);
        self.group_x.push(0.0);
    }

    /// Enables automatic region splitting: partitions exceeding
    /// `bytes` split in two (HBase's automatic partitioning, §2.1). Client
    /// weights rebalance onto the daughters transparently, as HBase's
    /// client metadata refresh does.
    pub fn set_auto_split(&mut self, bytes: Option<f64>) {
        self.auto_split_bytes = bytes;
    }

    /// Number of automatic splits performed.
    pub fn split_count(&self) -> u64 {
        self.splits
    }

    /// Per-group mean request latency series (milliseconds per client
    /// request, one point per tick) — what YCSB reports alongside
    /// throughput.
    pub fn group_latency_ms(&self, name: &str) -> Option<&TimeSeries> {
        self.latency_series.get(name)
    }

    /// Activates or deactivates a group by name (workload switch-offs in
    /// the elasticity experiment's second phase, §6.4).
    pub fn set_group_active(&mut self, name: &str, active: bool) {
        for g in &mut self.groups {
            if g.name == name {
                g.active = active;
            }
        }
    }

    /// Ids of every known server in any lifecycle state (including
    /// provisioning, restarting, and stopped), ascending.
    pub fn all_server_ids(&self) -> Vec<ServerId> {
        self.servers.keys().copied().collect()
    }

    /// Ids of currently online servers.
    pub fn online_server_ids(&self) -> Vec<ServerId> {
        self.servers
            .iter()
            .filter(|(_, s)| s.state == ServerState::Online)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Current simulated time.
    pub fn time(&self) -> SimTime {
        self.now
    }

    /// Tick length.
    pub fn tick_len(&self) -> SimDuration {
        self.tick
    }

    /// Total-throughput series (one point per tick, ops/s).
    pub fn total_series(&self) -> &TimeSeries {
        &self.total_series
    }

    /// Per-group throughput series.
    pub fn group_throughput(&self, name: &str) -> Option<&TimeSeries> {
        self.group_series.get(name)
    }

    /// Online-node-count series (one point per tick).
    pub fn node_series(&self) -> &TimeSeries {
        &self.node_series
    }

    /// The server hosting a partition, if assigned.
    pub fn partition_server(&self, p: PartitionId) -> Option<ServerId> {
        self.assignment.get(&p).copied()
    }

    /// Locality index of a partition on its current server.
    pub fn partition_locality(&self, p: PartitionId) -> f64 {
        let Some(sid) = self.assignment.get(&p) else { return 0.0 };
        let part = &self.partitions[&p];
        self.namenode.locality_index(DataNodeId(sid.0), &part.files)
    }

    /// Advances the simulation by `n` ticks.
    pub fn run_ticks(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Advances one tick.
    ///
    /// Wall-clock spans (`sim.*`, recorded while `telemetry::span` is
    /// armed) bracket each phase; they read nothing but the real clock and
    /// write nothing but the recorder's own buffers, so the simulation
    /// below is byte-identical with recording on or off.
    pub fn step(&mut self) {
        let _tick_span = wallspan::span("sim.tick");
        let dt = self.tick.as_secs_f64();
        self.now += self.tick;

        // 0. Scripted faults fire first: a crash at tick t is visible to
        // everything else that happens at t.
        {
            let _s = wallspan::span("sim.faults");
            self.apply_injected_faults();
            if self.namenode.rereplicate_step((self.rerep_mb_s * 1e6 * dt) as u64) > 0 {
                self.localities.take();
            }
        }

        let lifecycle_span = wallspan::span("sim.lifecycle");
        // 1. Server lifecycle transitions.
        for (sid, server) in self.servers.iter_mut() {
            match server.state {
                ServerState::Provisioning { until } if until <= self.now => {
                    server.state = ServerState::Online;
                    server.warmth = 0.05;
                    // A fresh node joins with an empty cache: report it so
                    // the trace shows why its early latencies are cold.
                    self.telemetry.emit(
                        self.now,
                        TelemetryEvent::CacheReport {
                            server: sid.0,
                            hits: server.cache_hits,
                            misses: server.cache_misses,
                            evictions: 0,
                        },
                    );
                }
                ServerState::Restarting { until } if until <= self.now => {
                    server.state = ServerState::Online;
                    // Post-restart cache is cold but refills its hottest
                    // fraction quickly (first touches admit immediately).
                    server.warmth = 0.25;
                    self.telemetry.emit(
                        self.now,
                        TelemetryEvent::CacheReport {
                            server: sid.0,
                            hits: server.cache_hits,
                            misses: server.cache_misses,
                            evictions: 0,
                        },
                    );
                }
                _ => {}
            }
        }
        // Clear completed moves; a move that carried WAL replay reports
        // the recovery as done (collect first — emitting borrows `self`).
        let mut recoveries: Vec<(PartitionId, SimTime, u64)> = Vec::new();
        for (pid, part) in self.partitions.iter_mut() {
            if let Some(t) = part.moving_until {
                if t <= self.now {
                    part.moving_until = None;
                    if let Some((started, wal_bytes)) = part.recovering.take() {
                        recoveries.push((*pid, started, wal_bytes));
                    }
                }
            }
        }
        for (pid, started, wal_bytes) in recoveries {
            let server = self.assignment.get(&pid).map(|s| s.0).unwrap_or(0);
            self.telemetry.emit(
                self.now,
                TelemetryEvent::RecoveryCompleted {
                    server,
                    region: pid.0,
                    wal_bytes,
                    duration_ms: self.now.since(started).as_millis(),
                },
            );
        }

        // 2. Periodic HBase count balancer, when enabled.
        if let Some(every) = self.auto_balance_every {
            if self.now.since(self.last_auto_balance) >= every {
                self.last_auto_balance = self.now;
                self.rebalance_counts();
            }
        }

        drop(lifecycle_span);

        // 3. Solve the closed-loop equilibrium.
        let solution = self.solve_equilibrium();

        let integrate_span = wallspan::span("sim.integrate");
        // 4. Integrate: counters, growth, flushes, warmth, compactions.
        let mut per_partition: BTreeMap<PartitionId, (f64, f64, f64, f64)> = BTreeMap::new();
        for ((g, x), rows) in self.groups.iter().zip(&solution.group_x).zip(&solution.plan.rates) {
            if !g.active {
                continue;
            }
            // The solve's own rate tables: same rows, same order, as a
            // second `per_partition_rates()` would yield.
            for &(pi, r, w, s) in rows {
                let Some(&p) = solution.plan.pids.get(pi) else { continue };
                let e = per_partition.entry(p).or_insert((0.0, 0.0, 0.0, 0.0));
                e.0 += x * r;
                e.1 += x * w;
                e.2 += x * s;
            }
            // Data growth follows the insert distribution, not the whole
            // write distribution.
            let insert_rate = x * g.mix.write * g.insert_fraction;
            for &(p, w) in &g.insert_weights {
                per_partition.entry(p).or_insert((0.0, 0.0, 0.0, 0.0)).3 += insert_rate * w;
            }
        }
        let mut new_files: Vec<(PartitionId, ServerId, f64)> = Vec::new();
        for (p, (r, w, s, ins)) in &per_partition {
            let part = self.partitions.get_mut(p).expect("demand for unknown partition");
            part.counters.reads += (r * dt).round() as u64;
            part.counters.writes += (w * dt).round() as u64;
            part.counters.scans += (s * dt).round() as u64;
            part.size_bytes += ins * part.record_bytes * dt;
            part.unflushed_bytes += w * part.record_bytes * dt;
            if part.unflushed_bytes >= FLUSH_FILE_BYTES {
                if let Some(sid) = self.assignment.get(p) {
                    new_files.push((*p, *sid, part.unflushed_bytes));
                    part.unflushed_bytes = 0.0;
                }
            }
        }
        for (p, sid, bytes) in new_files {
            let fid = DfsFileId(self.next_file);
            self.next_file += 1;
            self.localities.take();
            if self.namenode.create_file(fid, bytes as u64, DataNodeId(sid.0)).is_ok() {
                self.partitions
                    .get_mut(&p)
                    .expect("flushed unknown partition")
                    .files
                    .push((fid, bytes as u64));
                self.telemetry.counter_add("sim_memstore_flushes_total", &[], 1);
                self.telemetry.emit(
                    self.now,
                    TelemetryEvent::MemstoreFlush {
                        server: sid.0,
                        region: p.0,
                        bytes: bytes as u64,
                    },
                );
            }
        }

        drop(integrate_span);

        // 5. Compaction backlog drain and completion, server by server in
        // ID order. `finish_compaction` needs `&mut self`, hence the copied
        // list of the servers that have something to drain (usually none).
        let compact_span = wallspan::span("sim.compaction");
        let compact_step = self.params.compact_mb_s * 1e6 * dt;
        let draining: Vec<ServerId> = self
            .servers
            .iter()
            .filter(|(_, s)| s.state == ServerState::Online && !s.compaction_backlog.is_empty())
            .map(|(sid, _)| *sid)
            .collect();
        let mut completed: Vec<PartitionId> = Vec::new();
        for sid in draining {
            let Some(server) = self.servers.get_mut(&sid) else { continue };
            let mut budget = compact_step;
            while budget > 0.0 {
                let Some(front) = server.compaction_backlog.front_mut() else { break };
                if front.1 > budget {
                    front.1 -= budget;
                    break;
                }
                budget -= front.1;
                completed.push(front.0);
                server.compaction_backlog.pop_front();
                // Compaction invalidates cached blocks of the rewritten
                // files; the cache partially cools.
                server.warmth *= 0.85;
            }
            for p in completed.drain(..) {
                self.finish_compaction(p, sid);
            }
        }
        drop(compact_span);

        // 5b. Automatic region splits (§2.1): a partition that outgrew the
        // configured region size splits into two daughters on the same
        // server; client request weights follow the key-space halves.
        if let Some(limit) = self.auto_split_bytes {
            let oversized: Vec<PartitionId> = self
                .partitions
                .iter()
                .filter(|(_, p)| p.size_bytes > limit)
                .map(|(id, _)| *id)
                .collect();
            for p in oversized {
                self.split_partition(p);
            }
        }

        // 6. Warmth evolution.
        let warmth_span = wallspan::span("sim.warmth");
        let warmup_s = self.params.warmup_s;
        for server in self.servers.values_mut() {
            if server.state == ServerState::Online {
                server.warmth += (1.0 - server.warmth) * dt / warmup_s;
                server.warmth = server.warmth.clamp(0.0, 1.0);
            }
        }
        drop(warmth_span);

        // 7. Record series and stash metrics.
        let series_span = wallspan::span("sim.series");
        let total: f64 = solution
            .group_x
            .iter()
            .zip(&self.groups)
            .filter(|(_, g)| g.active)
            .map(|(x, _)| *x)
            .sum();
        self.total_series.record(self.now, total);
        for (gi, g) in self.groups.iter().enumerate() {
            let x = if g.active { solution.group_x[gi] } else { 0.0 };
            self.group_series
                .get_mut(&g.name)
                .expect("series created with group")
                .record(self.now, x);
            if g.active {
                self.latency_series
                    .get_mut(&g.name)
                    .expect("series created with group")
                    .record(self.now, solution.group_r_ms[gi]);
            }
        }
        self.node_series.record(self.now, self.online_server_ids().len() as f64);
        // Servers without any demand this tick idle at zero — otherwise a
        // server whose groups went quiet would report stale utilization
        // forever. Offline servers keep reporting zero too (their clients'
        // penalty is already in the group response times).
        for server in self.servers.values_mut() {
            if server.state == ServerState::Online {
                server.last_cpu = 0.0;
                server.last_io = 0.0;
                server.last_mem = 0.0;
                server.last_rps = 0.0;
                server.last_p99_ms = 0.0;
            }
        }
        drop(series_span);
        // Cache and latency metrics of every online server with demand, in
        // server-ID order. Registry updates are staged and flushed once,
        // under a single registry lock, after the per-server fields are
        // applied. The p99 is what `snapshot()` reports and is taken every
        // tick; the mean, p50 and p95 only feed gauges and histograms, so
        // they are taken only while somebody records those.
        let _cache_span = wallspan::span("sim.cache_metrics");
        let telemetry_on = self.telemetry.is_enabled();
        let buf = &mut self.metrics;
        buf.clear();
        for (slot, server) in self.slots.iter().zip(self.servers.values_mut()) {
            if slot.demands.is_empty() || server.state != ServerState::Online {
                continue;
            }
            let eval = &slot.settled;
            // Modelled block-cache traffic: the warmth fraction of this
            // tick's requests hit the cache, the remainder go to disk.
            let served = (eval.total_rps * dt).round().max(0.0) as u64;
            let hits = ((served as f64) * server.warmth).round() as u64;
            let cache_hits = server.cache_hits + hits.min(served);
            let cache_misses = server.cache_misses + served.saturating_sub(hits);
            let p99_ms = slot.mixture.quantile_ms(0.99);
            if telemetry_on {
                let labels = [("server", server.label.as_str())];
                buf.gauge_set("sim_block_cache_hits", &labels, cache_hits as f64);
                buf.gauge_set("sim_block_cache_misses", &labels, cache_misses as f64);
                let total = cache_hits + cache_misses;
                if total > 0 {
                    buf.gauge_set(
                        "sim_block_cache_hit_ratio",
                        &labels,
                        cache_hits as f64 / total as f64,
                    );
                }
                // Latency digests: current quantiles as gauges, and per-tick
                // observations into per-server / per-profile histograms
                // whose summaries give the run's p50/p95/p99.
                buf.gauge_set("sim_latency_p50_ms", &labels, slot.mixture.quantile_ms(0.50));
                buf.gauge_set("sim_latency_p95_ms", &labels, slot.mixture.quantile_ms(0.95));
                buf.gauge_set("sim_latency_p99_ms", &labels, p99_ms);
                buf.observe("sim_server_latency_ms", &labels, slot.mixture.mean_ms());
                buf.observe("sim_server_p99_ms", &labels, p99_ms);
                let profile = [("profile", profile_label(&server.config))];
                buf.observe("sim_profile_p99_ms", &profile, p99_ms);
            }
            server.last_cpu = eval.rho_cpu.min(1.0);
            server.last_io = eval.rho_disk.min(1.0);
            server.last_mem = eval.mem_util;
            server.last_rps = eval.total_rps;
            server.last_p99_ms = p99_ms;
            server.cache_hits = cache_hits;
            server.cache_misses = cache_misses;
        }
        self.telemetry.flush_buffer(&self.metrics);
    }

    fn finish_compaction(&mut self, p: PartitionId, sid: ServerId) {
        let Some(part) = self.partitions.get_mut(&p) else { return };
        self.localities.take();
        // Replace all files with one local rewrite.
        for (fid, _) in part.files.drain(..) {
            let _ = self.namenode.delete_file(fid);
        }
        let fid = DfsFileId(self.next_file);
        self.next_file += 1;
        let size = part.size_bytes.max(1.0) as u64;
        if self.namenode.create_file(fid, size, DataNodeId(sid.0)).is_ok() {
            part.files.push((fid, size));
        }
        part.unflushed_bytes = 0.0;
        if self.telemetry.is_enabled() {
            self.telemetry.counter_add("sim_compactions_total", &[], 1);
            self.telemetry
                .emit(self.now, TelemetryEvent::CompactionDone { server: sid.0, bytes: size });
            // A local rewrite is exactly what restores data locality; sample
            // the post-compaction index so traces show the recovery.
            let files = &self.partitions.get(&p).expect("compacted unknown partition").files;
            let value = self.namenode.locality_index(DataNodeId(sid.0), files);
            self.telemetry.emit(self.now, TelemetryEvent::LocalitySample { server: sid.0, value });
        }
    }

    /// Splits a partition in two (the daughter takes half the data, files
    /// and request weight), leaving both on the current server. Returns the
    /// daughter's id, or `None` if the partition is unknown or unassigned.
    pub fn split_partition(&mut self, p: PartitionId) -> Option<PartitionId> {
        let sid = *self.assignment.get(&p)?;
        let q = PartitionId(self.next_partition);
        self.localities.take();
        {
            let part = self.partitions.get_mut(&p)?;
            part.size_bytes /= 2.0;
            part.unflushed_bytes /= 2.0;
            part.counters = PartitionCounters {
                reads: part.counters.reads / 2,
                writes: part.counters.writes / 2,
                scans: part.counters.scans / 2,
            };
            // Alternate the file manifest between the halves (each HFile's
            // key range lands mostly on one side of the split point).
            let mut keep = Vec::new();
            let mut give = Vec::new();
            for (i, f) in part.files.drain(..).enumerate() {
                if i % 2 == 0 {
                    keep.push(f);
                } else {
                    give.push(f);
                }
            }
            part.files = keep;
            let daughter = SimPartition {
                table: part.table.clone(),
                size_bytes: part.size_bytes,
                record_bytes: part.record_bytes,
                hot_set_fraction: part.hot_set_fraction,
                hot_ops_fraction: part.hot_ops_fraction,
                counters: part.counters,
                files: give,
                unflushed_bytes: part.unflushed_bytes,
                moving_until: None,
                recovery_backlog: 0.0,
                recovering: None,
            };
            self.next_partition += 1;
            self.partitions.insert(q, daughter);
        }
        self.assignment.insert(q, sid);
        // Clients re-learn the region map: each weight on `p` halves, with
        // the other half going to the daughter.
        for g in &mut self.groups {
            for weights in [
                &mut g.read_weights,
                &mut g.write_weights,
                &mut g.scan_weights,
                &mut g.insert_weights,
            ] {
                let mut add = 0.0;
                for (pid, w) in weights.iter_mut() {
                    if *pid == p {
                        *w /= 2.0;
                        add += *w;
                    }
                }
                if add > 0.0 {
                    weights.push((q, add));
                }
            }
        }
        self.splits += 1;
        self.telemetry.counter_add("sim_region_splits_total", &[], 1);
        self.telemetry.emit(
            self.now,
            TelemetryEvent::RegionSplit { server: sid.0, region: p.0, new_region: q.0 },
        );
        Some(q)
    }

    /// Locality index of every assigned partition on its current server,
    /// in partition-ID order. Cached: built by the first read after its
    /// inputs last changed, so the solve and `snapshot()` (MeT's heal pass
    /// and its monitor) share one table until a move, flush, compaction,
    /// split or DFS change clears it. Every write to `assignment`, to a
    /// partition's `files` or to the namenode's placement must clear it.
    fn partition_localities(&self) -> &BTreeMap<PartitionId, f64> {
        let table = self.localities.get_or_init(|| self.fresh_localities());
        // Unit tests hold every read, mid-tick ones included, to a fresh
        // table: a write that forgets to clear the cache fails there.
        #[cfg(test)]
        tests::assert_same_localities(table, &self.fresh_localities(), "a read");
        table
    }

    /// [`SimCluster::partition_localities`] computed afresh: one batched
    /// namenode pass.
    fn fresh_localities(&self) -> BTreeMap<PartitionId, f64> {
        let queries: Vec<(DataNodeId, &[(DfsFileId, u64)])> = self
            .assignment
            .iter()
            .map(|(p, sid)| (DataNodeId(sid.0), self.partitions[p].files.as_slice()))
            .collect();
        let values = self.namenode.locality_indices(&queries);
        self.assignment.keys().copied().zip(values).collect()
    }

    /// Builds the tick's [`SolvePlan`] and lays the topology into the
    /// resident [`ServerSlot`]s, one per server. Rebuilt every tick — moves,
    /// splits, crashes, restarts, group switches, the balancer and
    /// provisioning all change it — and never inside a solve, where none of
    /// them can happen.
    fn plan_solve(&mut self) -> SolvePlan {
        let tables: Vec<BTreeMap<PartitionId, (f64, f64, f64)>> = self
            .groups
            .iter()
            .map(|g| if g.active { g.per_partition_rates() } else { BTreeMap::new() })
            .collect();
        let mut pids: Vec<PartitionId> = tables.iter().flat_map(|t| t.keys().copied()).collect();
        pids.sort_unstable();
        pids.dedup();
        // Every id below comes out of `tables`, so the searches succeed; a
        // miss would only drop the row.
        let index = |p: PartitionId| pids.binary_search(&p).ok();
        let rates = tables
            .iter()
            .map(|t| t.iter().filter_map(|(p, &(r, w, s))| Some((index(*p)?, r, w, s))).collect())
            .collect();
        let weights = self
            .groups
            .iter()
            .map(|g| {
                let resolve = |list: &[(PartitionId, f64)]| -> Vec<(usize, f64)> {
                    let list = if g.active { list } else { &[] };
                    list.iter().filter_map(|&(p, w)| Some((index(p)?, w))).collect()
                };
                [resolve(&g.read_weights), resolve(&g.write_weights), resolve(&g.scan_weights)]
            })
            .collect();

        let ids: Vec<ServerId> = self.servers.keys().copied().collect();
        // Out of `self` while the locality table borrows it.
        let mut slots = std::mem::take(&mut self.slots);
        slots.resize_with(ids.len(), ServerSlot::default);
        for slot in &mut slots {
            slot.demands.clear();
            slot.index.clear();
        }
        let locality = {
            let _s = wallspan::span("sim.locality");
            self.partition_localities()
        };
        // Ascending partition order, so each slot's demands come out
        // ascending too. Unassigned partitions get no demand anywhere:
        // their clients pay the unavailability penalty.
        for (pi, p) in pids.iter().enumerate() {
            let Some(sid) = self.assignment.get(p) else { continue };
            let (Some(part), Some(&locality)) = (self.partitions.get(p), locality.get(p)) else {
                continue;
            };
            // The host's rank among the fleet's ascending ids is its slot.
            let Some(slot) = ids.binary_search(sid).ok().and_then(|k| slots.get_mut(k)) else {
                continue;
            };
            slot.index.push(pi);
            slot.demands.push(PartitionDemand {
                partition: *p,
                read_rps: 0.0,
                write_rps: 0.0,
                scan_rps: 0.0,
                scan_rows: 1.0,
                record_bytes: part.record_bytes,
                data_bytes: part.size_bytes,
                hot_set_fraction: part.hot_set_fraction,
                hot_ops_fraction: part.hot_ops_fraction,
                locality,
                unavailable: part.moving_until.map(|t| t > self.now).unwrap_or(false),
                write_cpu_factor: 1.0,
            });
        }
        self.slots = slots;
        SolvePlan { pids, rates, weights }
    }

    /// Per-partition offered load for a group-throughput estimate `x`,
    /// into `loads` (one entry per plan index).
    fn partition_loads(&self, plan: &SolvePlan, x: &[f64], loads: &mut [PartitionLoad]) {
        loads.fill((0.0, 0.0, 0.0, 0.0, 1.0));
        for ((g, rows), x) in self.groups.iter().zip(&plan.rates).zip(x) {
            for &(pi, r, w, s) in rows {
                let Some(e) = loads.get_mut(pi) else { continue };
                e.0 += x * r;
                let write_rate = x * w;
                // Write-rate-weighted batching factor across groups.
                e.4 = if e.1 + write_rate > 0.0 {
                    (e.4 * e.1 + g.write_cpu_factor * write_rate) / (e.1 + write_rate)
                } else {
                    e.4
                };
                e.1 += write_rate;
                let scan_rate = x * s;
                // Weighted average scan length across groups.
                e.3 = if e.2 + scan_rate > 0.0 {
                    (e.3 * e.2 + g.scan_rows * scan_rate) / (e.2 + scan_rate)
                } else {
                    e.3
                };
                e.2 += scan_rate;
            }
        }
    }

    /// Damped fixed-point solve of the closed-loop equilibrium. Per-server
    /// results stay in the [`ServerSlot`]s for `step()` to publish:
    /// `settled` (the last iteration's evaluation) and `mixture` (the
    /// reporting pass's response-time distribution).
    fn solve_equilibrium(&mut self) -> Equilibrium {
        let _solver_span = wallspan::span("sim.solver");
        let mut x: Vec<f64> = self
            .group_x
            .iter()
            .zip(&self.groups)
            .map(|(prev, g)| {
                if !g.active {
                    0.0
                } else if *prev > 0.0 {
                    *prev
                } else {
                    g.threads * 50.0 // warm start guess
                }
            })
            .collect();

        let mut avg: Vec<f64> = vec![0.0; x.len()];
        let mut group_r_ms: Vec<f64> = vec![0.0; x.len()];
        let plan = self.plan_solve();
        let mut loads: Vec<PartitionLoad> = vec![(0.0, 0.0, 0.0, 0.0, 1.0); plan.pids.len()];
        // `(read, write, scan)` response time per plan index, ms. `None`: no
        // server answers for the partition (unassigned). Each index belongs
        // to one server's slot, which rewrites it every iteration.
        let mut response: Vec<Option<(f64, f64, f64)>> = vec![None; plan.pids.len()];
        let pen = self.params.unavailable_penalty_ms;
        for iter in 0..SOLVER_ITERS {
            // Heavier damping once roughly settled, to kill limit cycles.
            let damping = if iter < SOLVER_ITERS / 2 { 0.35 } else { 0.15 };
            {
                let _s = wallspan::span("solver.demands");
                self.partition_loads(&plan, &x, &mut loads);
            }
            // Evaluate each server under the current demand, in ID order.
            let evaluate_span = wallspan::span("solver.servers");
            for (slot, server) in self.slots.iter_mut().zip(self.servers.values()) {
                if slot.demands.is_empty() {
                    continue;
                }
                let _eval_span =
                    wallspan::span_labeled("solver.evaluate", &[("server", server.label.as_str())]);
                if server.state != ServerState::Online {
                    for pi in &slot.index {
                        if let Some(e) = response.get_mut(*pi) {
                            *e = Some((pen, pen, pen));
                        }
                    }
                    continue;
                }
                let (icpu, idisk, ihandler) = slot.evaluate(&self.params, server, &loads);
                let times = slot.demands.iter().zip(&slot.eval.per_partition);
                for (pi, (d, t)) in slot.index.iter().zip(times) {
                    let base = (
                        (t.read.0 * icpu + t.read.1 * idisk) * ihandler,
                        (t.write.0 * icpu + t.write.1 * idisk) * ihandler + t.write_stall_ms,
                        (t.scan.0 * icpu + t.scan.1 * idisk) * ihandler,
                    );
                    let pen = if d.unavailable { pen } else { 0.0 };
                    if let Some(e) = response.get_mut(*pi) {
                        *e = Some((base.0 + pen, base.1 + pen, base.2 + pen));
                    }
                }
            }
            drop(evaluate_span);

            // Update each group's throughput.
            let _groups_span = wallspan::span("solver.groups");
            let answer = |pi: usize| response.get(pi).copied().flatten().unwrap_or((pen, pen, pen));
            for (gi, (g, [reads, writes, scans])) in
                self.groups.iter().zip(&plan.weights).enumerate()
            {
                if !g.active {
                    x[gi] = 0.0;
                    continue;
                }
                let mut r_ms = g.think_ms;
                for &(pi, w) in reads {
                    r_ms += g.mix.read * w * answer(pi).0;
                }
                for &(pi, w) in writes {
                    r_ms += g.mix.write * w * answer(pi).1;
                }
                for &(pi, w) in scans {
                    r_ms += g.mix.scan * w * answer(pi).2;
                }
                group_r_ms[gi] = r_ms;
                let mut target = g.threads / (r_ms / 1_000.0);
                if let Some(cap) = g.target_rate {
                    target = target.min(cap);
                }
                x[gi] = (1.0 - damping) * x[gi] + damping * target;
            }
            if iter >= SOLVER_ITERS - SOLVER_AVG_WINDOW {
                for (a, v) in avg.iter_mut().zip(&x) {
                    *a += v / SOLVER_AVG_WINDOW as f64;
                }
            }
        }
        let x = avg;
        self.group_x.clone_from(&x);
        // Reporting pass at the settled equilibrium: one more per-server
        // evaluation at the cycle-averaged rates to build each online
        // server's response-time mixture. Nothing here feeds back into `x`,
        // so group throughputs are exactly what they were without it. The
        // utilisation `step()` publishes is the *last iteration's*, not
        // this pass's: park it in `settled` before `eval` is overwritten.
        let _latency_span = wallspan::span("sim.latency");
        self.partition_loads(&plan, &x, &mut loads);
        for (slot, server) in self.slots.iter_mut().zip(self.servers.values()) {
            if slot.demands.is_empty() || server.state != ServerState::Online {
                continue;
            }
            let _eval_span =
                wallspan::span_labeled("latency.evaluate", &[("server", server.label.as_str())]);
            std::mem::swap(&mut slot.eval, &mut slot.settled);
            let inflations = slot.evaluate(&self.params, server, &loads);
            server_mixture(&self.params, &slot.demands, &slot.eval, inflations, &mut slot.mixture);
        }
        Equilibrium { group_x: x, group_r_ms, plan }
    }
}

/// Queue-inflation factors `(icpu, idisk, ihandler)` for one online server
/// under `parts`. Handler pressure: outstanding requests beyond the handler
/// pool queue in front of the server.
fn inflation_factors(
    params: &CostParams,
    config: &StoreConfig,
    parts: &[PartitionDemand],
    eval: &ServerEval,
) -> (f64, f64, f64) {
    let icpu = queue_inflation(params, eval.rho_cpu);
    let idisk = queue_inflation(params, eval.rho_disk);
    let svc_ms: f64 = parts
        .iter()
        .zip(&eval.per_partition)
        .map(|(d, t)| {
            d.read_rps * (t.read.0 + t.read.1)
                + d.write_rps * (t.write.0 + t.write.1)
                + d.scan_rps * (t.scan.0 + t.scan.1)
        })
        .sum();
    let rho_handler = svc_ms / 1_000.0 / config.handler_count as f64;
    let ihandler =
        if params.use_handler_bound { queue_inflation(params, rho_handler / 4.0) } else { 1.0 };
    (icpu, idisk, ihandler)
}

/// The response-time mixture of one online server at equilibrium: one
/// exponential component per (partition, op class, cache outcome) stream,
/// weighted by the stream's rate, with the queue-inflated response time as
/// its mean. Splitting reads and scans by cache outcome is what gives the
/// tail its shape: hits are CPU-only, while one miss pays the full block
/// IO (`t.read.1` / `t.scan.1` are miss-weighted averages, hence the
/// division by the miss fraction).
fn server_mixture(
    params: &CostParams,
    parts: &[PartitionDemand],
    eval: &ServerEval,
    (icpu, idisk, ihandler): (f64, f64, f64),
    mix: &mut LatencyMixture,
) {
    mix.clear();
    for (d, t) in parts.iter().zip(&eval.per_partition) {
        let pen = if d.unavailable { params.unavailable_penalty_ms } else { 0.0 };
        let miss = 1.0 - t.hit_ratio;
        mix.push(d.read_rps * t.hit_ratio, t.read.0 * icpu * ihandler + pen);
        if miss > f64::EPSILON {
            mix.push(
                d.read_rps * miss,
                (t.read.0 * icpu + t.read.1 / miss * idisk) * ihandler + pen,
            );
        }
        mix.push(
            d.write_rps,
            (t.write.0 * icpu + t.write.1 * idisk) * ihandler + t.write_stall_ms + pen,
        );
        let scan_miss = 1.0 - t.scan_hit_ratio;
        mix.push(d.scan_rps * t.scan_hit_ratio, t.scan.0 * icpu * ihandler + pen);
        if scan_miss > f64::EPSILON {
            mix.push(
                d.scan_rps * scan_miss,
                (t.scan.0 * icpu + t.scan.1 / scan_miss * idisk) * ihandler + pen,
            );
        }
    }
}

/// What a solve hands `step()`; the per-server half stays in the
/// [`ServerSlot`]s.
struct Equilibrium {
    group_x: Vec<f64>,
    group_r_ms: Vec<f64>,
    plan: SolvePlan,
}

impl ElasticCluster for SimCluster {
    fn now(&self) -> SimTime {
        self.now
    }

    fn snapshot(&self) -> ClusterSnapshot {
        let mut by_server: BTreeMap<ServerId, Vec<PartitionId>> = BTreeMap::new();
        for (p, s) in &self.assignment {
            by_server.entry(*s).or_default().push(*p);
        }
        // One locality table for both the per-server byte-weighted
        // aggregate and the per-partition metric below.
        let localities = self.partition_localities();
        let servers = self
            .servers
            .iter()
            .filter(|(_, s)| s.state != ServerState::Stopped)
            .map(|(id, s)| {
                let parts = by_server.get(id).cloned().unwrap_or_default();
                // Byte-weighted locality over hosted partitions.
                let mut total = 0.0;
                let mut local = 0.0;
                for p in &parts {
                    let part = &self.partitions[p];
                    let bytes: u64 = part.files.iter().map(|(_, b)| *b).sum();
                    total += bytes as f64;
                    local += bytes as f64
                        * localities.get(p).copied().expect("assigned partition has locality");
                }
                let locality = if total > 0.0 { local / total } else { 1.0 };
                ServerMetrics {
                    server: *id,
                    health: s.health(),
                    cpu_util: s.last_cpu,
                    io_wait: s.last_io,
                    mem_util: s.last_mem,
                    requests_per_sec: s.last_rps,
                    p99_latency_ms: s.last_p99_ms,
                    locality,
                    partitions: parts,
                    config: s.config.clone(),
                }
            })
            .collect();
        let partitions = self
            .partitions
            .iter()
            .map(|(id, p)| PartitionMetrics {
                partition: *id,
                table: p.table.clone(),
                counters: p.counters,
                size_bytes: p.size_bytes as u64,
                assigned_to: self.assignment.get(id).copied(),
                locality: localities.get(id).copied().unwrap_or(1.0),
                wal_backlog_bytes: p.recovery_backlog as u64,
                // The metadata simulation does not run the real background
                // pipeline; maintenance pressure only exists functionally.
                stall_ms: 0,
                frozen_memstores: 0,
                maintenance_debt_bytes: 0,
            })
            .collect();
        ClusterSnapshot { at: self.now, servers, partitions }
    }

    fn move_partition(&mut self, partition: PartitionId, to: ServerId) -> Result<(), AdminError> {
        if let Some(e) =
            self.injected_call_failure(FaultOp::Move, format!("move {partition} -> {to}"))
        {
            return Err(e);
        }
        if !self.partitions.contains_key(&partition) {
            return Err(AdminError::UnknownPartition(partition));
        }
        let server = self.servers.get(&to).ok_or(AdminError::UnknownServer(to))?;
        if server.state != ServerState::Online {
            return Err(AdminError::ServerUnavailable(to));
        }
        if self.assignment.get(&partition) == Some(&to) {
            return Ok(());
        }
        if self.assignment.contains_key(&partition) {
            self.do_move(partition, to);
        } else {
            self.assign_partition(partition, to)?;
        }
        Ok(())
    }

    fn restart_server(&mut self, server: ServerId, config: StoreConfig) -> Result<(), AdminError> {
        if let Some(e) = self.injected_call_failure(FaultOp::Restart, format!("restart {server}")) {
            return Err(e);
        }
        config.validate().map_err(|e| AdminError::BadConfig(e.to_string()))?;
        let restart = SimDuration::from_secs_f64(self.params.restart_s);
        let until = self.now + restart;
        let s = self.servers.get_mut(&server).ok_or(AdminError::UnknownServer(server))?;
        if s.state != ServerState::Online {
            return Err(AdminError::ServerUnavailable(server));
        }
        s.config = config;
        s.state = ServerState::Restarting { until };
        s.warmth = 0.0;
        s.compaction_backlog.clear();
        self.localities.take();
        Ok(())
    }

    fn major_compact(&mut self, partition: PartitionId) -> Result<(), AdminError> {
        if let Some(e) =
            self.injected_call_failure(FaultOp::Compact, format!("compact {partition}"))
        {
            return Err(e);
        }
        let sid =
            *self.assignment.get(&partition).ok_or(AdminError::UnknownPartition(partition))?;
        let part =
            self.partitions.get(&partition).ok_or(AdminError::UnknownPartition(partition))?;
        let bytes: u64 = part.files.iter().map(|(_, b)| *b).sum();
        let server = self.servers.get_mut(&sid).ok_or(AdminError::UnknownServer(sid))?;
        if server.state != ServerState::Online {
            return Err(AdminError::ServerUnavailable(sid));
        }
        // Read + write the whole partition.
        server.compaction_backlog.push_back((partition, 2.0 * bytes as f64));
        self.localities.take();
        Ok(())
    }

    fn provision_server(&mut self, config: StoreConfig) -> Result<ServerId, AdminError> {
        config.validate().map_err(|e| AdminError::BadConfig(e.to_string()))?;
        let mut delay = self.provision_delay;
        match self.faults.take_provision_fault(self.now) {
            None => {}
            Some(ProvisionFault::Fail) => {
                self.telemetry.counter_add("sim_provision_faults_total", &[], 1);
                self.telemetry.emit(
                    self.now,
                    TelemetryEvent::FaultInjected {
                        kind: "provision_fail".to_string(),
                        target: None,
                        detail: "injected VM boot failure".to_string(),
                    },
                );
                return Err(AdminError::ProvisioningFailed("injected VM boot failure".into()));
            }
            Some(ProvisionFault::Slow(factor)) => {
                delay = SimDuration::from_secs_f64(delay.as_secs_f64().max(1.0) * factor);
                self.telemetry.counter_add("sim_provision_faults_total", &[], 1);
                self.telemetry.emit(
                    self.now,
                    TelemetryEvent::FaultInjected {
                        kind: "slow_boot".to_string(),
                        target: None,
                        detail: format!("injected slow boot ({factor:.1}x)"),
                    },
                );
            }
        }
        let id = ServerId(self.next_server);
        self.next_server += 1;
        let state = if delay.is_zero() {
            ServerState::Online
        } else {
            ServerState::Provisioning { until: self.now + delay }
        };
        let rng = self.rng_streams.fork(&format!("server-{}", id.0));
        self.servers.insert(id, SimServer::new(id, config, state, 0.05, rng));
        self.namenode.add_datanode(DataNodeId(id.0));
        self.localities.take();
        Ok(id)
    }

    fn decommission_server(&mut self, server: ServerId) -> Result<(), AdminError> {
        if !self.servers.contains_key(&server) {
            return Err(AdminError::UnknownServer(server));
        }
        let remaining: Vec<ServerId> =
            self.online_server_ids().into_iter().filter(|s| *s != server).collect();
        if remaining.is_empty() {
            return Err(AdminError::LastServer);
        }
        // HBase master reassigns the closed server's regions (randomly).
        // The draws come from the decommissioned server's own forked
        // stream, so the reassignment sequence is attributable to this
        // server and independent of unrelated control-plane randomness.
        let victims: Vec<PartitionId> =
            self.assignment.iter().filter(|(_, s)| **s == server).map(|(p, _)| *p).collect();
        let mut stream = self.servers.get(&server).expect("checked").rng.clone();
        for p in victims {
            let target = *stream.pick(&remaining);
            self.do_move(p, target);
        }
        let s = self.servers.get_mut(&server).expect("checked");
        s.rng = stream;
        s.state = ServerState::Stopped;
        self.localities.take();
        let _ = self.namenode.remove_datanode(DataNodeId(server.0));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The map-based solver as it stood before the dense plan: every
    /// iteration rebuilds `BTreeMap<PartitionId, rates>` and
    /// `BTreeMap<ServerId, Vec<PartitionDemand>>`, evaluates through the
    /// allocating model ([`crate::model::oracle`]) and answers weight
    /// look-ups through a map-typed `response`, servers in ID order.
    /// Test-only reference the dense solver is held to bit
    /// for bit; it reads the cluster and writes nothing.
    mod oracle {
        use super::super::*;
        use crate::latency::LatencySummary;
        use crate::model::oracle::evaluate_server;

        type GroupRateTable = Vec<(PartitionId, (f64, f64, f64))>;

        pub(super) struct Equilibrium {
            pub group_x: Vec<f64>,
            pub group_r_ms: Vec<f64>,
            pub server_evals: BTreeMap<ServerId, ServerEval>,
            pub server_latency: BTreeMap<ServerId, LatencySummary>,
        }

        fn mixture_of(
            params: &CostParams,
            parts: &[PartitionDemand],
            eval: &ServerEval,
            inflations: (f64, f64, f64),
        ) -> LatencyMixture {
            let mut mix = LatencyMixture::new();
            server_mixture(params, parts, eval, inflations, &mut mix);
            mix
        }

        impl SimCluster {
            fn group_rate_tables(&self) -> Vec<GroupRateTable> {
                self.groups
                    .iter()
                    .map(|g| {
                        if g.active {
                            g.per_partition_rates().into_iter().collect()
                        } else {
                            Vec::new()
                        }
                    })
                    .collect()
            }

            fn build_demands(
                &self,
                group_x: &[f64],
                locality: &BTreeMap<PartitionId, f64>,
                group_rates: &[GroupRateTable],
            ) -> BTreeMap<ServerId, Vec<PartitionDemand>> {
                let mut rates: BTreeMap<PartitionId, (f64, f64, f64, f64, f64)> = BTreeMap::new();
                for (gi, g) in self.groups.iter().enumerate() {
                    if !g.active {
                        continue;
                    }
                    let x = group_x[gi];
                    for &(p, (r, w, s)) in &group_rates[gi] {
                        let e = rates.entry(p).or_insert((0.0, 0.0, 0.0, 0.0, 1.0));
                        e.0 += x * r;
                        let write_rate = x * w;
                        // Write-rate-weighted batching factor across groups.
                        e.4 = if e.1 + write_rate > 0.0 {
                            (e.4 * e.1 + g.write_cpu_factor * write_rate) / (e.1 + write_rate)
                        } else {
                            e.4
                        };
                        e.1 += write_rate;
                        let scan_rate = x * s;
                        // Weighted average scan length across groups.
                        e.3 = if e.2 + scan_rate > 0.0 {
                            (e.3 * e.2 + g.scan_rows * scan_rate) / (e.2 + scan_rate)
                        } else {
                            e.3
                        };
                        e.2 += scan_rate;
                    }
                }
                let mut by_server: BTreeMap<ServerId, Vec<PartitionDemand>> = BTreeMap::new();
                for (p, (r, w, s, rows, wf)) in rates {
                    let Some(sid) = self.assignment.get(&p) else { continue };
                    let part = &self.partitions[&p];
                    let locality = locality
                        .get(&p)
                        .copied()
                        .expect("locality precomputed for assigned partition");
                    let unavailable = part.moving_until.map(|t| t > self.now).unwrap_or(false);
                    by_server.entry(*sid).or_default().push(PartitionDemand {
                        partition: p,
                        read_rps: r,
                        write_rps: w,
                        scan_rps: s,
                        scan_rows: rows.max(1.0),
                        record_bytes: part.record_bytes,
                        data_bytes: part.size_bytes,
                        hot_set_fraction: part.hot_set_fraction,
                        hot_ops_fraction: part.hot_ops_fraction,
                        locality,
                        unavailable,
                        write_cpu_factor: wf,
                    });
                }
                by_server
            }

            pub(super) fn solve_equilibrium_oracle(&self) -> Equilibrium {
                let mut x: Vec<f64> = self
                    .group_x
                    .iter()
                    .zip(&self.groups)
                    .map(|(prev, g)| {
                        if !g.active {
                            0.0
                        } else if *prev > 0.0 {
                            *prev
                        } else {
                            g.threads * 50.0
                        }
                    })
                    .collect();
                let mut server_evals: BTreeMap<ServerId, ServerEval> = BTreeMap::new();
                let mut avg: Vec<f64> = vec![0.0; x.len()];
                let mut group_r_ms: Vec<f64> = vec![0.0; x.len()];
                let localities = self.fresh_localities();
                let group_rates = self.group_rate_tables();
                let params = &self.params;
                let mut response: BTreeMap<PartitionId, (f64, f64, f64)> = BTreeMap::new();
                for iter in 0..SOLVER_ITERS {
                    let damping = if iter < SOLVER_ITERS / 2 { 0.35 } else { 0.15 };
                    let demands = self.build_demands(&x, &localities, &group_rates);
                    server_evals.clear();
                    response.clear();
                    for (sid, parts) in &demands {
                        let server = &self.servers[sid];
                        if server.state != ServerState::Online {
                            let pen = params.unavailable_penalty_ms;
                            response.extend(parts.iter().map(|d| (d.partition, (pen, pen, pen))));
                            continue;
                        }
                        let background = if server.compaction_backlog.is_empty() {
                            0.0
                        } else {
                            params.compact_mb_s
                        };
                        let eval = evaluate_server(
                            params,
                            &server.config,
                            server.warmth,
                            background,
                            parts,
                        );
                        let (icpu, idisk, ihandler) =
                            inflation_factors(params, &server.config, parts, &eval);
                        response.extend(parts.iter().zip(&eval.per_partition).map(|(d, t)| {
                            let base = (
                                (t.read.0 * icpu + t.read.1 * idisk) * ihandler,
                                (t.write.0 * icpu + t.write.1 * idisk) * ihandler
                                    + t.write_stall_ms,
                                (t.scan.0 * icpu + t.scan.1 * idisk) * ihandler,
                            );
                            let pen =
                                if d.unavailable { params.unavailable_penalty_ms } else { 0.0 };
                            (d.partition, (base.0 + pen, base.1 + pen, base.2 + pen))
                        }));
                        server_evals.insert(*sid, eval);
                    }

                    for (gi, g) in self.groups.iter().enumerate() {
                        if !g.active {
                            x[gi] = 0.0;
                            continue;
                        }
                        let mut r_ms = g.think_ms;
                        let pen = self.params.unavailable_penalty_ms;
                        for &(p, w) in &g.read_weights {
                            let (rr, _, _) = response.get(&p).copied().unwrap_or((pen, pen, pen));
                            r_ms += g.mix.read * w * rr;
                        }
                        for &(p, w) in &g.write_weights {
                            let (_, rw, _) = response.get(&p).copied().unwrap_or((pen, pen, pen));
                            r_ms += g.mix.write * w * rw;
                        }
                        for &(p, w) in &g.scan_weights {
                            let (_, _, rs) = response.get(&p).copied().unwrap_or((pen, pen, pen));
                            r_ms += g.mix.scan * w * rs;
                        }
                        group_r_ms[gi] = r_ms;
                        let mut target = g.threads / (r_ms / 1_000.0);
                        if let Some(cap) = g.target_rate {
                            target = target.min(cap);
                        }
                        x[gi] = (1.0 - damping) * x[gi] + damping * target;
                    }
                    if iter >= SOLVER_ITERS - SOLVER_AVG_WINDOW {
                        for (a, v) in avg.iter_mut().zip(&x) {
                            *a += v / SOLVER_AVG_WINDOW as f64;
                        }
                    }
                }
                let x = avg;
                // Reporting pass at the cycle-averaged rates.
                let demands = self.build_demands(&x, &localities, &group_rates);
                let mut server_latency: BTreeMap<ServerId, LatencySummary> = BTreeMap::new();
                for (sid, parts) in &demands {
                    let server = &self.servers[sid];
                    let summary = if server.state != ServerState::Online {
                        let mut mix = LatencyMixture::new();
                        let rate: f64 =
                            parts.iter().map(|d| d.read_rps + d.write_rps + d.scan_rps).sum();
                        mix.push(rate, params.unavailable_penalty_ms);
                        mix.summary()
                    } else {
                        let background = if server.compaction_backlog.is_empty() {
                            0.0
                        } else {
                            params.compact_mb_s
                        };
                        let eval = evaluate_server(
                            params,
                            &server.config,
                            server.warmth,
                            background,
                            parts,
                        );
                        let inflations = inflation_factors(params, &server.config, parts, &eval);
                        mixture_of(params, parts, &eval, inflations).summary()
                    };
                    server_latency.insert(*sid, summary);
                }
                Equilibrium { group_x: x, group_r_ms, server_evals, server_latency }
            }
        }
    }

    fn eval_bits(e: &ServerEval) -> Vec<u64> {
        let mut bits = vec![e.rho_cpu, e.rho_disk, e.mem_util, e.total_rps];
        for t in &e.per_partition {
            bits.extend([t.read.0, t.read.1, t.write.0, t.write.1, t.scan.0, t.scan.1]);
            bits.extend([t.write_stall_ms, t.hit_ratio, t.scan_hit_ratio]);
        }
        bits.into_iter().map(f64::to_bits).collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Solves the cluster's current state with the oracle and with the
    /// dense solver and holds every published float of the second to the
    /// first. Leaves the warm start as it found it, so calling this between
    /// ticks does not move the trajectory.
    fn assert_dense_solve_matches_oracle(sim: &mut SimCluster) {
        let warm_start = sim.group_x.clone();
        let want = sim.solve_equilibrium_oracle();
        let got = sim.solve_equilibrium();
        sim.group_x = warm_start;
        assert_eq!(bits(&got.group_x), bits(&want.group_x), "group_x");
        assert_eq!(bits(&got.group_r_ms), bits(&want.group_r_ms), "group_r_ms");
        assert_eq!(sim.slots.len(), sim.servers.len(), "one slot per server");
        let mut evals = 0;
        for (slot, (sid, server)) in sim.slots.iter().zip(&sim.servers) {
            if slot.demands.is_empty() || server.state != ServerState::Online {
                assert!(!want.server_evals.contains_key(sid), "{sid}: oracle-only eval");
                continue;
            }
            evals += 1;
            assert_eq!(eval_bits(&slot.settled), eval_bits(&want.server_evals[sid]), "{sid}");
            let (lat, want_lat) = (slot.mixture.summary(), want.server_latency[sid]);
            assert_eq!(
                bits(&[lat.mean_ms, lat.p50_ms, lat.p95_ms, lat.p99_ms]),
                bits(&[want_lat.mean_ms, want_lat.p50_ms, want_lat.p95_ms, want_lat.p99_ms]),
                "{sid} latency"
            );
        }
        assert_eq!(evals, want.server_evals.len(), "dense solver skipped a server");
    }

    /// A random multi-tenant cluster: heterogeneous server profiles, some
    /// partitions unassigned, TPC-C-shaped groups (read, write, scan and
    /// insert weights over different partition subsets), an inactive
    /// group, a rate cap, auto-split on.
    fn random_topology(seed: u64, servers: usize, partitions: usize, groups: usize) -> SimCluster {
        let mut rng = SimRng::new(seed).derive("dense-solver-proptest");
        let mut sim = SimCluster::new(CostParams::default(), seed);
        for i in 0..servers {
            let mut config = StoreConfig::default_homogeneous();
            match i % 3 {
                1 => (config.block_cache_fraction, config.memstore_fraction) = (0.55, 0.10),
                2 => (config.block_cache_fraction, config.memstore_fraction) = (0.10, 0.55),
                _ => {}
            }
            config.block_size = [32, 64, 128][rng.next_below(3) as usize] * 1024;
            sim.add_server_immediate(config);
        }
        let parts: Vec<PartitionId> = (0..partitions)
            .map(|_| {
                sim.create_partition(PartitionSpec {
                    table: "t".into(),
                    size_bytes: 0.2e9 + rng.next_f64() * 2.5e9,
                    record_bytes: 100.0 + rng.next_f64() * 2_000.0,
                    hot_set_fraction: 0.05 + rng.next_f64() * 0.9,
                    hot_ops_fraction: 0.3 + rng.next_f64() * 0.7,
                })
            })
            .collect();
        let online = sim.online_server_ids();
        for p in &parts {
            // Roughly one partition in six stays unassigned.
            if rng.next_below(6) > 0 {
                let sid = online[rng.next_below(online.len() as u64) as usize];
                sim.assign_partition(*p, sid).unwrap();
            }
        }
        let subset = |rng: &mut SimRng| -> Vec<(PartitionId, f64)> {
            let mut chosen: Vec<PartitionId> =
                parts.iter().copied().filter(|_| rng.next_below(3) == 0).collect();
            if chosen.is_empty() {
                chosen.push(parts[rng.next_below(parts.len() as u64) as usize]);
            }
            let raw: Vec<f64> = chosen.iter().map(|_| 0.1 + rng.next_f64()).collect();
            let total: f64 = raw.iter().sum();
            chosen.into_iter().zip(raw).map(|(p, w)| (p, w / total)).collect()
        };
        for gi in 0..groups {
            let (read_weights, write_weights) = (subset(&mut rng), subset(&mut rng));
            let (scan_weights, insert_weights) = (subset(&mut rng), subset(&mut rng));
            sim.add_group(ClientGroup {
                name: format!("g{gi}"),
                threads: 5.0 + rng.next_f64() * 150.0,
                think_ms: 0.2 + rng.next_f64() * 3.0,
                target_rate: (gi == 1).then_some(900.0),
                mix: OpMix::new(rng.next_f64() * 3.0, rng.next_f64() * 2.0, rng.next_f64() * 0.3),
                read_weights,
                write_weights,
                scan_weights,
                scan_rows: 1.0 + rng.next_f64() * 80.0,
                insert_fraction: rng.next_f64(),
                insert_weights,
                write_cpu_factor: 0.2 + rng.next_f64() * 0.8,
                active: gi != 2,
            });
        }
        sim.set_auto_split(Some(2.4e9));
        sim
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// The dense solver against the map-based oracle on the same state,
        /// every tick, while the topology churns underneath: a move
        /// (partitions mid-outage), a compaction backlog, a restarting and
        /// a crashed server, groups switching on and off, auto-splits.
        #[test]
        fn dense_solver_matches_the_map_based_oracle(
            seed in proptest::any::<u64>(),
            servers in 1usize..9,
            partitions in 1usize..25,
            groups in 1usize..5,
        ) {
            let mut sim = random_topology(seed, servers, partitions, groups);
            for tick in 0..36 {
                let online = sim.online_server_ids();
                let assigned: Vec<PartitionId> = sim.assignment.keys().copied().collect();
                let pick = |k: usize| assigned.get(k % assigned.len().max(1)).copied();
                match tick {
                    4 => {
                        if let (Some(p), Some(to)) = (pick(1), online.last()) {
                            sim.move_partition(p, *to).unwrap();
                        }
                    }
                    6 => {
                        if let Some(p) = pick(2) {
                            let _ = sim.major_compact(p);
                        }
                    }
                    9 if online.len() >= 2 => {
                        let config = sim.servers[&online[0]].config.clone();
                        sim.restart_server(online[0], config).unwrap();
                    }
                    12 if online.len() >= 3 => {
                        sim.crash_server(online[1]);
                    }
                    15 => sim.set_group_active("g2", true),
                    20 => sim.set_group_active("g0", false),
                    24 => {
                        if let (Some(p), Some(to)) = (pick(3), online.first()) {
                            sim.move_partition(p, *to).unwrap();
                        }
                    }
                    _ => {}
                }
                assert_dense_solve_matches_oracle(&mut sim);
                sim.step();
            }
        }
    }

    /// Holds a cached locality table to a fresh one, bit for bit.
    pub(super) fn assert_same_localities(
        cached: &BTreeMap<PartitionId, f64>,
        fresh: &BTreeMap<PartitionId, f64>,
        after: &str,
    ) {
        let bits = |t: &BTreeMap<PartitionId, f64>| -> Vec<(PartitionId, u64)> {
            t.iter().map(|(p, v)| (*p, v.to_bits())).collect()
        };
        assert_eq!(bits(cached), bits(fresh), "stale locality table after {after}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]

        /// Random sequences of ticks and of every call that moves the
        /// locality table's inputs — moves, splits, crashes, compactions,
        /// restarts, provisioning, decommissioning — under a fault plan
        /// that loses datanodes and tears a WAL write. After each call the
        /// cached table must equal a fresh one; reads inside `step` (the
        /// solve's) are held to the same by `partition_localities` itself.
        #[test]
        fn locality_cache_never_goes_stale(seed in proptest::any::<u64>()) {
            let mut sim = random_topology(seed, 5, 14, 3);
            // A heavy writer, so memstores flush new files every few ticks.
            let hot: Vec<(PartitionId, f64)> =
                sim.partitions.keys().take(4).map(|p| (*p, 0.25)).collect();
            let mix = OpMix::write_only();
            let writer =
                ClientGroup::with_common_weights("writer", 400.0, 0.1, None, mix, hot, 1.0, 0.5);
            sim.add_group(writer);
            let plan = simcore::FaultPlan::parse("9s:dn-loss@1,31s:dn-loss@0,52s:torn-write@3")
                .expect("valid plan");
            sim.set_fault_injector(plan.injector());
            let mut rng = SimRng::new(seed).derive("locality-cache");
            for _ in 0..160 {
                let online = sim.online_server_ids();
                // Unassigned ones too: moving one assigns it.
                let known: Vec<PartitionId> = sim.partitions.keys().copied().collect();
                let p = known[rng.next_below(known.len() as u64) as usize];
                let server = (!online.is_empty())
                    .then(|| online[rng.next_below(online.len() as u64) as usize]);
                let config = StoreConfig::default_homogeneous();
                let what = match (rng.next_below(16), server) {
                    // A first assignment writes the partition's files at
                    // the host, which needs its datanode alive.
                    (0, Some(s))
                        if sim.assignment.contains_key(&p)
                            || sim.namenode.datanodes().contains(&DataNodeId(s.0)) =>
                    {
                        let _ = sim.move_partition(p, s);
                        "move"
                    }
                    (1, _) => {
                        sim.split_partition(p);
                        "split"
                    }
                    (2, Some(s)) if online.len() > 2 => {
                        sim.crash_server(s);
                        "crash"
                    }
                    (3, _) => {
                        let _ = sim.major_compact(p);
                        "major_compact"
                    }
                    (4, Some(s)) if online.len() > 1 => {
                        let _ = sim.restart_server(s, config);
                        "restart"
                    }
                    (5, _) => {
                        let _ = sim.provision_server(config);
                        "provision"
                    }
                    (6, Some(s)) if online.len() > 2 => {
                        let _ = sim.decommission_server(s);
                        "decommission"
                    }
                    _ => {
                        sim.step();
                        "step"
                    }
                };
                if let Some(cached) = sim.localities.get() {
                    assert_same_localities(cached, &sim.fresh_localities(), what);
                }
                // Fill the cache, so the next call's writes must clear it.
                sim.partition_localities();
            }
        }
    }

    fn basic_cluster(servers: usize, seed: u64) -> (SimCluster, Vec<PartitionId>) {
        let mut sim = SimCluster::new(CostParams::default(), seed);
        for _ in 0..servers {
            sim.add_server_immediate(StoreConfig::default_homogeneous());
        }
        let parts: Vec<PartitionId> = (0..4)
            .map(|_| {
                sim.create_partition(PartitionSpec {
                    table: "t".into(),
                    size_bytes: 1.5e9,
                    record_bytes: 1_000.0,
                    hot_set_fraction: 0.4,
                    hot_ops_fraction: 0.5,
                })
            })
            .collect();
        sim.random_balance_unassigned();
        (sim, parts)
    }

    fn read_group(parts: &[PartitionId], threads: f64) -> ClientGroup {
        let w = 1.0 / parts.len() as f64;
        ClientGroup::with_common_weights(
            "readers",
            threads,
            0.5,
            None,
            OpMix::read_only(),
            parts.iter().map(|p| (*p, w)).collect(),
            1.0,
            0.0,
        )
    }

    #[test]
    fn throughput_emerges_and_is_positive() {
        let (mut sim, parts) = basic_cluster(4, 1);
        sim.add_group(read_group(&parts, 50.0));
        sim.run_ticks(60);
        let last = sim.total_series().points().last().unwrap().1;
        assert!(last > 100.0, "throughput {last} too low");
    }

    #[test]
    fn more_servers_give_more_throughput() {
        let mut results = Vec::new();
        for servers in [1usize, 4] {
            let mut sim = SimCluster::new(CostParams::default(), 3);
            for _ in 0..servers {
                sim.add_server_immediate(StoreConfig::default_homogeneous());
            }
            let parts: Vec<PartitionId> = (0..8)
                .map(|_| {
                    sim.create_partition(PartitionSpec {
                        table: "t".into(),
                        size_bytes: 1.5e9,
                        record_bytes: 1_000.0,
                        hot_set_fraction: 0.4,
                        hot_ops_fraction: 0.5,
                    })
                })
                .collect();
            sim.random_balance_unassigned();
            sim.add_group(read_group(&parts, 100.0));
            sim.run_ticks(120);
            results.push(sim.total_series().mean_after(SimTime::from_secs(60)).unwrap());
        }
        assert!(
            results[1] > results[0] * 1.5,
            "4 servers ({:.0}) should clearly beat 1 ({:.0})",
            results[1],
            results[0]
        );
    }

    #[test]
    fn target_rate_caps_throughput() {
        let (mut sim, parts) = basic_cluster(4, 5);
        let mut g = read_group(&parts, 50.0);
        g.target_rate = Some(1_500.0);
        sim.add_group(g);
        sim.run_ticks(60);
        let last = sim.total_series().points().last().unwrap().1;
        assert!(last <= 1_500.0 + 1.0, "cap violated: {last}");
        assert!(last > 1_200.0, "cap not approached: {last}");
    }

    #[test]
    fn counters_accumulate_with_mix() {
        let (mut sim, parts) = basic_cluster(2, 7);
        let w = 1.0 / parts.len() as f64;
        sim.add_group(ClientGroup::with_common_weights(
            "mixed",
            20.0,
            0.5,
            None,
            OpMix::new(0.5, 0.5, 0.0),
            parts.iter().map(|p| (*p, w)).collect(),
            1.0,
            0.0,
        ));
        sim.run_ticks(30);
        let snap = sim.snapshot();
        let totals: PartitionCounters =
            snap.partitions.iter().fold(PartitionCounters::default(), |acc, p| PartitionCounters {
                reads: acc.reads + p.counters.reads,
                writes: acc.writes + p.counters.writes,
                scans: acc.scans + p.counters.scans,
            });
        assert!(totals.reads > 0 && totals.writes > 0);
        assert_eq!(totals.scans, 0);
        let ratio = totals.reads as f64 / totals.writes as f64;
        assert!((0.9..1.1).contains(&ratio), "read/write ratio {ratio}");
    }

    #[test]
    fn inserts_grow_data() {
        let (mut sim, parts) = basic_cluster(2, 9);
        let before = sim.snapshot().partitions[0].size_bytes;
        let w = 1.0 / parts.len() as f64;
        sim.add_group(ClientGroup::with_common_weights(
            "loggers",
            30.0,
            0.5,
            None,
            OpMix::write_only(),
            parts.iter().map(|p| (*p, w)).collect(),
            1.0,
            0.95,
        ));
        sim.run_ticks(120);
        let after = sim.snapshot().partitions[0].size_bytes;
        assert!(after > before, "inserts must grow data: {before} → {after}");
    }

    #[test]
    fn move_causes_temporary_unavailability_and_locality_loss() {
        let (mut sim, parts) = basic_cluster(3, 11);
        sim.add_group(read_group(&parts, 50.0));
        sim.run_ticks(30);
        let p = parts[0];
        let from = sim.partition_server(p).unwrap();
        assert!(sim.partition_locality(p) > 0.99);
        let to = sim.online_server_ids().into_iter().find(|s| *s != from).unwrap();
        // Target must not hold a replica for the test to be meaningful; with
        // rf=2 on 3 nodes this usually holds, but verify via locality delta.
        sim.move_partition(p, to).unwrap();
        let thr_during: f64 = {
            sim.step();
            sim.total_series().points().last().unwrap().1
        };
        sim.run_ticks(30);
        let thr_after = sim.total_series().points().last().unwrap().1;
        assert!(thr_during < thr_after, "move outage should dent throughput");
        assert!(sim.partition_locality(p) <= 1.0);
    }

    #[test]
    fn major_compact_restores_locality() {
        let (mut sim, parts) = basic_cluster(4, 13);
        sim.add_group(read_group(&parts, 20.0));
        sim.run_ticks(5);
        let p = parts[0];
        let from = sim.partition_server(p).unwrap();
        // Move to every other server until locality actually drops.
        let mut dropped = false;
        for to in sim.online_server_ids() {
            if to == from {
                continue;
            }
            sim.move_partition(p, to).unwrap();
            sim.run_ticks(5);
            if sim.partition_locality(p) < 0.99 {
                dropped = true;
                break;
            }
        }
        assert!(dropped, "could not create a locality drop (rf covers all nodes?)");
        sim.major_compact(p).unwrap();
        // 1.5 GB × 2 at 17 MB/s ≈ 175 s.
        sim.run_ticks(200);
        assert!(sim.partition_locality(p) > 0.99, "locality {}", sim.partition_locality(p));
    }

    #[test]
    fn restart_makes_server_unavailable_then_cold() {
        let (mut sim, parts) = basic_cluster(2, 17);
        sim.add_group(read_group(&parts, 50.0));
        sim.run_ticks(120); // warm up
        let warm_thr = sim.total_series().mean_after(SimTime::from_secs(90)).unwrap();
        let victim = sim.online_server_ids()[0];
        sim.restart_server(victim, StoreConfig::default_homogeneous()).unwrap();
        sim.run_ticks(5);
        let during = sim.total_series().points().last().unwrap().1;
        assert!(during < warm_thr * 0.8, "restart should dent throughput: {during} vs {warm_thr}");
        sim.run_ticks(60);
        let snap = sim.snapshot();
        assert_eq!(snap.server(victim).unwrap().health, ServerHealth::Online);
    }

    #[test]
    fn provisioning_delay_is_respected() {
        let (mut sim, _parts) = basic_cluster(2, 19);
        sim.set_provision_delay(SimDuration::from_secs(60));
        let id = sim.provision_server(StoreConfig::default_homogeneous()).unwrap();
        sim.run_ticks(30);
        assert_eq!(sim.snapshot().server(id).unwrap().health, ServerHealth::Provisioning);
        sim.run_ticks(40);
        assert_eq!(sim.snapshot().server(id).unwrap().health, ServerHealth::Online);
    }

    #[test]
    fn decommission_reassigns_partitions() {
        let (mut sim, parts) = basic_cluster(3, 23);
        sim.add_group(read_group(&parts, 20.0));
        sim.run_ticks(5);
        let victim = sim.partition_server(parts[0]).unwrap();
        sim.decommission_server(victim).unwrap();
        for p in &parts {
            let s = sim.partition_server(*p).unwrap();
            assert_ne!(s, victim, "{p} still on decommissioned server");
        }
        assert_eq!(sim.online_server_ids().len(), 2);
    }

    #[test]
    fn cannot_decommission_last_server() {
        let (mut sim, _) = basic_cluster(1, 29);
        let only = sim.online_server_ids()[0];
        assert_eq!(sim.decommission_server(only), Err(AdminError::LastServer));
    }

    #[test]
    fn rebalance_counts_evens_out() {
        let (mut sim, parts) = basic_cluster(2, 31);
        // Pile everything on one server.
        let target = sim.online_server_ids()[0];
        for p in &parts {
            sim.move_partition(*p, target).unwrap();
        }
        let moves = sim.rebalance_counts();
        assert!(moves >= 1);
        let snap = sim.snapshot();
        for s in snap.servers {
            assert!(s.partitions.len() <= 3, "server {} has {}", s.server, s.partitions.len());
        }
    }

    #[test]
    fn group_deactivation_stops_traffic() {
        let (mut sim, parts) = basic_cluster(2, 37);
        sim.add_group(read_group(&parts, 50.0));
        sim.run_ticks(20);
        sim.set_group_active("readers", false);
        sim.run_ticks(5);
        let last = sim.total_series().points().last().unwrap().1;
        assert_eq!(last, 0.0);
    }

    #[test]
    fn latency_series_tracks_load() {
        let (mut sim, parts) = basic_cluster(2, 41);
        sim.add_group(read_group(&parts, 10.0));
        sim.run_ticks(30);
        let light =
            sim.group_latency_ms("readers").unwrap().mean_after(SimTime::from_secs(20)).unwrap();
        assert!(light > 0.0, "latency must be positive");
        // Much heavier concurrency raises the response time.
        let (mut sim2, parts2) = basic_cluster(2, 41);
        sim2.add_group(read_group(&parts2, 800.0));
        sim2.run_ticks(30);
        let heavy =
            sim2.group_latency_ms("readers").unwrap().mean_after(SimTime::from_secs(20)).unwrap();
        assert!(heavy > light, "heavy load latency {heavy} ≤ light {light}");
    }

    #[test]
    fn auto_split_divides_growing_partitions_and_weights() {
        let (mut sim, parts) = basic_cluster(2, 43);
        sim.set_auto_split(Some(2e9));
        let w = 1.0 / parts.len() as f64;
        sim.add_group(ClientGroup::with_common_weights(
            "loggers",
            200.0,
            0.5,
            None,
            OpMix::write_only(),
            parts.iter().map(|p| (*p, w)).collect(),
            1.0,
            1.0, // pure inserts: fastest growth
        ));
        // Partitions start at 1.5 GB and grow toward the 2 GB split line.
        sim.run_ticks(600);
        assert!(sim.split_count() >= 1, "no split despite growth");
        let snap = sim.snapshot();
        assert!(snap.partitions.len() > parts.len());
        // No partition above the split threshold survives for long.
        for p in &snap.partitions {
            assert!(
                (p.size_bytes as f64) < 2.1e9,
                "{} still oversized: {}",
                p.partition,
                p.size_bytes
            );
        }
        // Throughput keeps flowing after splits (weights still sum to 1).
        let last = sim.total_series().points().last().unwrap().1;
        assert!(last > 100.0);
    }

    #[test]
    fn manual_split_halves_and_preserves_totals() {
        let (mut sim, parts) = basic_cluster(2, 47);
        sim.add_group(read_group(&parts, 50.0));
        sim.run_ticks(10);
        let before = sim.snapshot();
        let total_before: u64 = before.partitions.iter().map(|p| p.size_bytes).sum();
        let q = sim.split_partition(parts[0]).expect("splittable");
        let after = sim.snapshot();
        let total_after: u64 = after.partitions.iter().map(|p| p.size_bytes).sum();
        assert!((total_after as i64 - total_before as i64).unsigned_abs() < 4, "bytes lost");
        // The daughter sits on the same server.
        assert_eq!(sim.partition_server(q), sim.partition_server(parts[0]));
        // Traffic reaches both halves.
        sim.run_ticks(20);
        let snap = sim.snapshot();
        let c_p = snap.partitions.iter().find(|m| m.partition == parts[0]).unwrap().counters;
        let c_q = snap.partitions.iter().find(|m| m.partition == q).unwrap().counters;
        assert!(c_p.reads > 0 && c_q.reads > 0, "one half starved: {c_p:?} {c_q:?}");
    }

    #[test]
    fn admin_error_paths_are_reported() {
        let (mut sim, parts) = basic_cluster(2, 53);
        let ghost_server = ServerId(99);
        let ghost_part = PartitionId(99);
        assert_eq!(
            sim.move_partition(parts[0], ghost_server),
            Err(AdminError::UnknownServer(ghost_server))
        );
        assert_eq!(
            sim.move_partition(ghost_part, sim.online_server_ids()[0]),
            Err(AdminError::UnknownPartition(ghost_part))
        );
        assert_eq!(
            sim.restart_server(ghost_server, StoreConfig::default_homogeneous()),
            Err(AdminError::UnknownServer(ghost_server))
        );
        assert_eq!(sim.major_compact(ghost_part), Err(AdminError::UnknownPartition(ghost_part)));
        // Restarting a restarting server is unavailable.
        let victim = sim.online_server_ids()[0];
        sim.restart_server(victim, StoreConfig::default_homogeneous()).unwrap();
        assert_eq!(
            sim.restart_server(victim, StoreConfig::default_homogeneous()),
            Err(AdminError::ServerUnavailable(victim))
        );
        // Invalid configs are rejected up front.
        let mut bad = StoreConfig::default_homogeneous();
        bad.block_cache_fraction = 0.9;
        assert!(matches!(sim.provision_server(bad), Err(AdminError::BadConfig(_))));
    }

    #[test]
    fn moving_a_partition_to_a_restarting_server_is_rejected() {
        let (mut sim, parts) = basic_cluster(2, 59);
        let target = sim.online_server_ids()[1];
        sim.restart_server(target, StoreConfig::default_homogeneous()).unwrap();
        assert_eq!(
            sim.move_partition(parts[0], target),
            Err(AdminError::ServerUnavailable(target))
        );
        // Once online again, the move succeeds.
        sim.run_ticks(40);
        sim.move_partition(parts[0], target).unwrap();
        assert_eq!(sim.partition_server(parts[0]), Some(target));
    }

    #[test]
    fn determinism_same_seed_same_series() {
        // Asymmetric partition weights so that *which* partitions co-locate
        // (the random placement) actually matters.
        let run = |seed| {
            let mut sim = SimCluster::new(CostParams::default(), seed);
            for _ in 0..3 {
                sim.add_server_immediate(StoreConfig::default_homogeneous());
            }
            let parts: Vec<PartitionId> = (0..8)
                .map(|_| {
                    sim.create_partition(PartitionSpec {
                        table: "t".into(),
                        size_bytes: 1.5e9,
                        record_bytes: 1_000.0,
                        hot_set_fraction: 0.4,
                        hot_ops_fraction: 0.5,
                    })
                })
                .collect();
            sim.random_balance_unassigned();
            let mut g = read_group(&parts, 120.0);
            let weights = [0.30, 0.25, 0.15, 0.10, 0.08, 0.06, 0.04, 0.02];
            let wv: Vec<_> = parts.iter().zip(weights).map(|(p, w)| (*p, w)).collect();
            g.read_weights = wv.clone();
            g.write_weights = wv.clone();
            g.scan_weights = wv;
            sim.add_group(g);
            sim.run_ticks(50);
            sim.total_series().points().to_vec()
        };
        assert_eq!(run(99), run(99));
        // At least one of several seeds must place partitions differently
        // enough to change throughput.
        let base = run(99);
        assert!(
            (100..105).any(|s| run(s) != base),
            "placement randomness has no effect on throughput"
        );
    }

    #[test]
    fn crash_orphans_partitions_and_queues_dfs_repair() {
        let (mut sim, parts) = basic_cluster(3, 11);
        sim.add_group(read_group(&parts, 50.0));
        sim.run_ticks(30);
        let victim = sim.online_server_ids()[0];
        let orphaned: Vec<PartitionId> =
            parts.iter().copied().filter(|p| sim.partition_server(*p) == Some(victim)).collect();
        assert!(!orphaned.is_empty(), "victim should host something");
        assert!(sim.crash_server(victim));
        assert!(!sim.crash_server(victim), "double crash is a no-op");
        // The crashed server vanishes from the snapshot but its partitions
        // stay assigned to it: that is the orphan signal MeT heals from.
        let snap = sim.snapshot();
        assert!(snap.server(victim).is_none());
        for p in &orphaned {
            let pm = snap.partitions.iter().find(|m| m.partition == *p).unwrap();
            assert_eq!(pm.assigned_to, Some(victim), "partition stays orphan-assigned");
        }
        // Blocks the datanode held are under-replicated and repair lazily.
        assert!(sim.under_replicated_bytes() > 0, "crash must strand block replicas");
        sim.run_ticks(600);
        assert_eq!(sim.under_replicated_bytes(), 0, "background repair drains the queue");
    }

    #[test]
    fn crash_strands_wal_backlog_and_rehoming_replays_it() {
        let (mut sim, parts) = basic_cluster(3, 14);
        let w = 1.0 / parts.len() as f64;
        sim.add_group(ClientGroup::with_common_weights(
            "writers",
            50.0,
            0.5,
            None,
            OpMix::write_only(),
            parts.iter().map(|p| (*p, w)).collect(),
            1.0,
            0.0,
        ));
        let telemetry = Telemetry::with_ring(telemetry::Verbosity::Info, 4096);
        sim.set_telemetry(telemetry.clone());
        // Slow replay so the recovery outage spans several ticks.
        sim.set_wal_replay_rate_mb_s(1.0);
        sim.run_ticks(30);
        let victim = sim.online_server_ids()[0];
        let orphaned: Vec<PartitionId> =
            parts.iter().copied().filter(|p| sim.partition_server(*p) == Some(victim)).collect();
        assert!(!orphaned.is_empty(), "victim should host something");
        assert!(sim.crash_server(victim));
        let snap = sim.snapshot();
        let backlog: u64 = snap
            .partitions
            .iter()
            .filter(|m| orphaned.contains(&m.partition))
            .map(|m| m.wal_backlog_bytes)
            .sum();
        assert!(backlog > 0, "crash must strand the victim's memstore as WAL backlog");
        let backlog_p = snap
            .partitions
            .iter()
            .find(|m| m.partition == orphaned[0])
            .map(|m| m.wal_backlog_bytes)
            .unwrap();
        assert!(backlog_p > 0, "the re-homed orphan itself carries backlog");
        // Re-homing an orphan consumes the backlog and starts replay.
        let target = sim.online_server_ids()[0];
        sim.move_partition(orphaned[0], target).unwrap();
        assert!(
            telemetry.events().iter().any(|e| matches!(e.data,
                TelemetryEvent::RecoveryStarted { region, wal_bytes, .. }
                    if region == orphaned[0].0 && wal_bytes > 0)),
            "re-homing must start WAL replay"
        );
        let snap = sim.snapshot();
        let pm = snap.partitions.iter().find(|m| m.partition == orphaned[0]).unwrap();
        assert_eq!(pm.wal_backlog_bytes, 0, "the move consumed the backlog");
        // Replay finishes and reports the move outage plus the modeled
        // replay time (backlog at 1 MB/s).
        sim.run_ticks(600);
        let min_ms = 3_000.0 + backlog_p as f64 / 1e6 * 1_000.0;
        assert!(
            telemetry.events().iter().any(|e| matches!(e.data,
                TelemetryEvent::RecoveryCompleted { region, duration_ms, .. }
                    if region == orphaned[0].0 && duration_ms as f64 >= min_ms)),
            "replay must complete no faster than outage + backlog/rate ({min_ms} ms)"
        );
    }

    #[test]
    fn disk_faults_crash_or_corrupt_through_the_injector() {
        use simcore::fault::{FaultSpec, ScheduledFault};
        use simcore::FaultPlan;
        let (mut sim, parts) = basic_cluster(3, 15);
        sim.add_group(read_group(&parts, 50.0));
        let telemetry = Telemetry::with_ring(telemetry::Verbosity::Info, 4096);
        sim.set_telemetry(telemetry.clone());
        let before = sim.online_server_ids().len();
        let plan = FaultPlan::new(vec![
            ScheduledFault { at: SimTime::from_secs(3), spec: FaultSpec::TornWrite { bytes: 17 } },
            ScheduledFault { at: SimTime::from_secs(5), spec: FaultSpec::FsyncFail },
            ScheduledFault { at: SimTime::from_secs(7), spec: FaultSpec::BitRot { block: 2 } },
        ]);
        sim.set_fault_injector(plan.injector());
        sim.run_ticks(10);
        assert_eq!(
            sim.online_server_ids().len(),
            before - 2,
            "torn write and fsync failure each kill a server"
        );
        let kinds: Vec<String> = telemetry
            .events()
            .iter()
            .filter_map(|e| match &e.data {
                TelemetryEvent::FaultInjected { kind, .. } => Some(kind.clone()),
                _ => None,
            })
            .collect();
        assert!(kinds.contains(&"torn_write".to_string()), "{kinds:?}");
        assert!(kinds.contains(&"fsync_fail".to_string()), "{kinds:?}");
        assert!(
            telemetry
                .events()
                .iter()
                .any(|e| matches!(e.data, TelemetryEvent::CorruptionDetected { .. })),
            "bit-rot must surface as a corruption event"
        );
    }

    #[test]
    fn scripted_faults_fail_calls_then_recover() {
        use simcore::fault::{FaultSpec, ScheduledFault};
        use simcore::FaultPlan;
        let (mut sim, parts) = basic_cluster(3, 12);
        let plan = FaultPlan::new(vec![
            ScheduledFault {
                at: SimTime::from_secs(5),
                spec: FaultSpec::CallFail { op: FaultOp::Move },
            },
            ScheduledFault { at: SimTime::from_secs(5), spec: FaultSpec::ProvisionFail },
        ]);
        let injector = plan.injector();
        sim.set_fault_injector(injector.clone());
        sim.run_ticks(10);
        let target = sim.online_server_ids()[1];
        let err = sim.move_partition(parts[0], target);
        assert!(matches!(err, Err(AdminError::TransientFailure(_))), "{err:?}");
        // The fault was consumed: the retry goes through.
        sim.move_partition(parts[0], target).unwrap();
        let err = sim.provision_server(StoreConfig::default_homogeneous());
        assert!(matches!(err, Err(AdminError::ProvisioningFailed(_))), "{err:?}");
        sim.provision_server(StoreConfig::default_homogeneous()).unwrap();
        assert_eq!(injector.injected(), 2);
    }

    #[test]
    fn scheduled_crash_fires_against_online_index() {
        use simcore::fault::{FaultSpec, ScheduledFault};
        use simcore::FaultPlan;
        let (mut sim, parts) = basic_cluster(3, 13);
        sim.add_group(read_group(&parts, 50.0));
        let before = sim.online_server_ids();
        let plan = FaultPlan::new(vec![ScheduledFault {
            at: SimTime::from_secs(4),
            spec: FaultSpec::ServerCrash { online_index: 1 },
        }]);
        sim.set_fault_injector(plan.injector());
        sim.run_ticks(10);
        let after = sim.online_server_ids();
        assert_eq!(after.len(), before.len() - 1);
        assert!(!after.contains(&before[1]), "the second online server crashed");
    }

    #[test]
    fn slow_boot_fault_stretches_provisioning() {
        use simcore::fault::{FaultSpec, ScheduledFault};
        use simcore::FaultPlan;
        let mut sim = SimCluster::new(CostParams::default(), 14);
        sim.add_server_immediate(StoreConfig::default_homogeneous());
        sim.set_provision_delay(SimDuration::from_secs(10));
        let plan = FaultPlan::new(vec![ScheduledFault {
            at: SimTime::ZERO,
            spec: FaultSpec::SlowBoot { factor: 3.0 },
        }]);
        sim.set_fault_injector(plan.injector());
        let id = sim.provision_server(StoreConfig::default_homogeneous()).unwrap();
        sim.run_ticks(15);
        let snap = sim.snapshot();
        assert_eq!(snap.server(id).unwrap().health, ServerHealth::Provisioning, "3x slower");
        sim.run_ticks(20);
        assert_eq!(sim.snapshot().server(id).unwrap().health, ServerHealth::Online);
    }
}
