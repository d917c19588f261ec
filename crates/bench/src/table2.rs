//! Table 2 — PyTPCC average throughput (tpmC) under three settings
//! (§6.3):
//!
//! 1. Manual-Homogeneous: the best manual homogeneous configuration
//!    (50 % cache, 15 % memstore, 32 KiB blocks), warehouse slices placed
//!    one per RegionServer.
//! 2. MeT with reconfiguration overhead: same start, MeT attached at
//!    minute 4.
//! 3. MeT without overhead: a fresh run that starts directly from the
//!    configuration MeT converged to in (2).
//!
//! 30 warehouses (≈ 15 GB stored), 6 RegionServers, 300 clients, 45 min.

use crate::scenario::paper_params;
use cluster::admin::ServerHealth;
use cluster::CostParams;
use cluster::{PartitionId, ServerId, SimCluster};
use hstore::StoreConfig;
use met::{Met, MetConfig, ProfileKind};
use simcore::SimTime;
use tpcc::{deploy, tpmc_from_txn_rate, TpccDeployment, TpccScale};

/// RegionServers in the experiment.
pub const SERVERS: usize = 6;
/// Client terminals.
pub const CLIENTS: f64 = 300.0;
/// PyTPCC's per-transaction client-side time: Python execution plus ~32
/// sequential RPC round-trips.
pub const TPCC_THINK_MS: f64 = 210.0;
/// Experiment length in minutes.
pub const MINUTES: u64 = 45;
/// MeT attach time in setting (2), minutes.
pub const MET_START_MIN: u64 = 4;

/// The §6.3 manual homogeneous configuration.
pub fn tpcc_manual_config() -> StoreConfig {
    StoreConfig {
        block_cache_fraction: 0.50,
        memstore_fraction: 0.15,
        block_size: 32 * 1024,
        ..StoreConfig::default_homogeneous()
    }
}

/// A captured heterogeneous layout (setting 3's input).
#[derive(Debug, Clone)]
pub struct CapturedLayout {
    /// Per server: profile and hosted partitions, in capture order.
    pub nodes: Vec<(ProfileKind, Vec<PartitionId>)>,
}

/// The three Table 2 rows.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// (i) Manual-Homogeneous tpmC.
    pub manual_homogeneous: f64,
    /// (ii) MeT with reconfiguration overhead.
    pub met_with_overhead: f64,
    /// (iii) MeT's configuration from the start.
    pub met_without_overhead: f64,
    /// Reconfigurations MeT performed in setting (ii).
    pub reconfigurations: u64,
}

/// TPC-C cost parameters: the YCSB-calibrated set with two deltas
/// justified by the workload's physics (see EXPERIMENTS.md): cells are an
/// order of magnitude smaller, so a byte of update traffic invalidates far
/// less cache (higher churn scale), and flush-storm stalls — the paper's
/// write-path pain for a 92 %-update benchmark — carry the documented
/// weight.
pub fn tpcc_params() -> CostParams {
    CostParams {
        cache_churn_write_mb_s: 14.0,
        write_stall_ms: 1.0,
        // With replication factor 2 and small (32 KiB) blocks, read misses
        // spread across both replicas' disks.
        disk_parallelism: 2.2,
        ..paper_params()
    }
}

fn build(seed: u64) -> (SimCluster, TpccDeployment) {
    let mut sim = SimCluster::new(tpcc_params(), seed);
    let deployment = deploy(&TpccScale::paper(), SERVERS as u32, &mut sim);
    (sim, deployment)
}

fn place_manual(sim: &mut SimCluster, deployment: &TpccDeployment) -> Vec<ServerId> {
    let cfg = tpcc_manual_config();
    let servers: Vec<ServerId> =
        (0..SERVERS).map(|_| sim.add_server_immediate(cfg.clone())).collect();
    // One warehouse slice per RegionServer (§6.3), ITEM spread round-robin.
    for (i, (stock_a, stock_b, orders, cust)) in deployment.slices.iter().enumerate() {
        for p in [stock_a, stock_b, orders, cust] {
            sim.assign_partition(*p, servers[i % SERVERS]).expect("fresh server");
        }
    }
    for (i, p) in deployment.item_partitions.iter().enumerate() {
        sim.assign_partition(*p, servers[i % SERVERS]).expect("fresh server");
    }
    servers
}

/// The TPC-C arm of [`ScenarioSpec::run`](crate::ScenarioSpec::run):
/// builds the 30-warehouse deployment, places it per the strategy, and
/// drives the shared tick loop (MeT, when present, attaches at minute 4).
pub(crate) fn run_spec(spec: crate::ScenarioSpec) -> crate::ScenarioRun {
    let (mut sim, deployment) = build(spec.seed);
    match &spec.strategy {
        crate::ScenarioStrategy::TpccManual | crate::ScenarioStrategy::TpccMet => {
            place_manual(&mut sim, &deployment);
        }
        crate::ScenarioStrategy::TpccCaptured(layout) => {
            let base = tpcc_manual_config();
            for (profile, partitions) in &layout.nodes {
                let server = sim.add_server_immediate(profile.config(&base));
                for p in partitions {
                    sim.assign_partition(*p, server).expect("fresh server");
                }
            }
        }
        _ => unreachable!("table2::run_spec only handles TPC-C strategies"),
    }
    sim.add_group(deployment.client_group(CLIENTS, TPCC_THINK_MS));
    sim.set_telemetry(spec.telemetry.clone());
    if let Some(d) = spec.provision_delay {
        sim.set_provision_delay(d);
    }
    let injector = (!spec.faults.is_empty()).then(|| spec.faults.injector());
    if let Some(inj) = &injector {
        sim.set_fault_injector(inj.clone());
    }
    let mut met = if matches!(spec.strategy, crate::ScenarioStrategy::TpccMet) {
        // §6.3 keeps the fleet at 6 RegionServers; MeT reconfigures only
        // (unless the spec overrides the controller config).
        let cfg = spec
            .met_config
            .clone()
            .unwrap_or_else(|| MetConfig { allow_scaling: false, ..MetConfig::default() });
        let mut met = Met::with_telemetry(cfg, tpcc_manual_config(), spec.telemetry.clone());
        if let Some(inj) = &injector {
            met.set_fault_injector(inj.clone());
        }
        Some(met)
    } else {
        None
    };
    let track = crate::spec::drive(
        &mut sim,
        met.as_mut(),
        MET_START_MIN * 60,
        spec.minutes * 60,
        spec.track_layout,
    );
    spec.telemetry.flush();
    crate::spec::collect(
        &sim,
        &["tpcc".to_string()],
        met.as_ref().map(|m| m.reconfigurations()).unwrap_or(0),
        injector.map(|i| i.injected() as u64).unwrap_or(0),
        track,
    )
}

/// Mean steady-state transaction rate of a finished run (ramp excluded).
fn tpmc_of(run: &crate::ScenarioRun, minutes: u64) -> f64 {
    let rate = run.group_series["tpcc"]
        .mean_between(SimTime::from_mins(2), SimTime::from_mins(minutes))
        .unwrap_or(0.0);
    tpmc_from_txn_rate(rate)
}

/// Setting (i): the manual homogeneous run. Returns the tpmC.
pub fn run_manual(seed: u64, minutes: u64) -> f64 {
    let run = crate::ScenarioSpec::new(crate::ScenarioStrategy::TpccManual, seed, minutes).run();
    tpmc_of(&run, minutes)
}

/// Setting (ii): MeT attached at minute 4. Returns the tpmC, the captured
/// final layout and the number of reconfigurations.
pub fn run_met(seed: u64, minutes: u64) -> (f64, CapturedLayout, u64) {
    let run = crate::ScenarioSpec::new(crate::ScenarioStrategy::TpccMet, seed, minutes).run();
    let nodes = run
        .snapshot
        .servers
        .iter()
        .filter(|s| s.health == ServerHealth::Online)
        .map(|s| {
            (
                ProfileKind::of_config(&s.config).unwrap_or(ProfileKind::ReadWrite),
                s.partitions.clone(),
            )
        })
        .collect();
    (tpmc_of(&run, minutes), CapturedLayout { nodes }, run.reconfigurations)
}

/// Setting (iii): a fresh run starting from a captured layout.
pub fn run_captured(seed: u64, minutes: u64, layout: &CapturedLayout) -> f64 {
    let run = crate::ScenarioSpec::new(
        crate::ScenarioStrategy::TpccCaptured(layout.clone()),
        seed,
        minutes,
    )
    .run();
    tpmc_of(&run, minutes)
}

/// Runs the whole Table 2 experiment.
pub fn run(seed: u64) -> Table2Result {
    let manual_homogeneous = run_manual(seed, MINUTES);
    let (met_with_overhead, layout, reconfigurations) = run_met(seed, MINUTES);
    let met_without_overhead = run_captured(seed, MINUTES, &layout);
    Table2Result { manual_homogeneous, met_with_overhead, met_without_overhead, reconfigurations }
}
