//! Figures 5 and 6 — elasticity on the cloud: MeT versus tiramola (§6.4).
//!
//! Seven 3 GB VMs: one master, six RegionServers co-located with DataNodes.
//! Initial state: 100 % data locality, replication factor 2, partitions
//! manually balanced on a homogeneous configuration. A set of YCSB
//! workloads overloads the initial system; the run lasts ~60 minutes:
//!
//! * **Phase 1** (0–33 min): all clients active. Figure 5 compares the
//!   cumulative completed operations (paper: MeT finishes 706 000 more
//!   operations, +31 %); Figure 6 shows throughput and node counts (MeT
//!   peaks at the client-saturation ceiling of ≈ 22 000 ops/s on fewer
//!   machines than tiramola).
//! * **Phase 2**: workloads E and F stop at minute 33, B at 43, A at 53,
//!   leaving only WorkloadC. MeT sheds nodes back toward the initial
//!   size; tiramola barely shrinks because it releases resources only
//!   when *every* node idles.

use crate::scenario::paper_params;
use baselines::manual::LoadedPartition;
use baselines::{search_balanced_placement, Tiramola, TiramolaConfig};
use cluster::{ServerId, SimCluster};
use hstore::StoreConfig;
use iaas::{CloudCluster, Flavor, Quota};
use met::{Met, MetConfig};
use simcore::timeseries::TimeSeries;
use simcore::{SimDuration, SimRng, SimTime};
use ycsb::{deploy, DeployedWorkload};

/// Initial RegionServers (plus the master VM the paper mentions).
pub const INITIAL_SERVERS: usize = 6;
/// VM boot delay on the OpenStack deployment.
pub const BOOT_DELAY_S: u64 = 60;
/// Instance quota for the tenant.
pub const QUOTA: usize = 14;
/// Client threads per unthrottled workload in the §6.4 cloud deployment
/// ("a set of YCSB workloads that overloads the initial system").
pub const CLOUD_THREADS: u32 = 100;
/// Client-side per-request overhead in the §6.4 cloud deployment (YCSB
/// clients on virtualized hosts): with 5 × 100 threads this sets the
/// ≈ 22 000 ops/s saturation ceiling the paper observes.
pub const CLOUD_THINK_MS: f64 = 21.0;
/// Total experiment length, minutes.
pub const MINUTES: u64 = 60;
/// End of phase 1 (Figure 5's window), minutes.
pub const PHASE1_END_MIN: u64 = 33;

/// The RegionServer configuration on the 3 GB cloud VMs: the OS, DataNode
/// and RegionServer share 3 GB of RAM, leaving a ~1.8 GB Java heap —
/// noticeably less cache than the physical testbed's dedicated 3 GB heap,
/// which is why these six nodes are overloaded by a workload mix the §3
/// cluster could nearly handle.
pub fn cloud_node_config() -> StoreConfig {
    StoreConfig { heap_bytes: 1_800 * 1024 * 1024, ..StoreConfig::default_homogeneous() }
}

/// Which control plane manages the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Controller {
    /// MeT with scaling enabled.
    Met,
    /// The tiramola baseline.
    Tiramola,
}

/// One run's recorded series and summary numbers.
#[derive(Debug, Clone)]
pub struct ElasticRun {
    /// Total throughput, ops/s per tick.
    pub throughput: TimeSeries,
    /// Online node count per tick.
    pub nodes: TimeSeries,
    /// Operations completed by the end of phase 1.
    pub cumulative_phase1: f64,
    /// Peak online node count.
    pub peak_nodes: f64,
    /// Online node count at the end.
    pub final_nodes: f64,
}

fn build_cloud(seed: u64, boot: SimDuration) -> (CloudCluster, Vec<DeployedWorkload>) {
    let mut sim = SimCluster::new(paper_params(), seed);
    // The §6.4 workload set with thread counts that overload the initial
    // six nodes. The paper switches off E+F, then B, then A, "leaving only
    // WorkloadC running"; the logging workload D retires with the other
    // write workload at minute 43.
    let mut rng = SimRng::new(seed).derive("elastic");
    let deployments: Vec<DeployedWorkload> = ycsb::presets::paper_suite()
        .into_iter()
        .map(|mut spec| {
            if spec.target_ops_per_sec.is_none() {
                spec.threads = CLOUD_THREADS;
            }
            deploy(&spec, &mut sim, &mut rng)
        })
        .collect();
    let mut cloud =
        CloudCluster::new(sim, Flavor::paper_medium(), Quota { max_instances: QUOTA }, boot);
    cloud
        .boot_initial_fleet(INITIAL_SERVERS, cloud_node_config())
        .expect("quota covers the initial fleet");

    // "data partitions manually balanced on a homogeneous configuration".
    let loaded: Vec<LoadedPartition> = deployments
        .iter()
        .flat_map(|d| {
            let proxy = crate::scenario::offered_load_proxy(&d.spec);
            d.partitions.iter().zip(&d.weights).map(move |(p, w)| (*p, proxy * w))
        })
        .collect();
    let mut prng = SimRng::new(seed).derive("elastic-placement");
    let placement = search_balanced_placement(&loaded, INITIAL_SERVERS, &mut prng);
    let servers: Vec<ServerId> = cloud.inner().online_server_ids();
    for (node, parts) in placement.iter().enumerate() {
        for p in parts {
            cloud.inner_mut().assign_partition(*p, servers[node]).expect("fresh fleet");
        }
    }
    for d in &deployments {
        cloud.inner_mut().add_group(d.client_group_with_think(CLOUD_THINK_MS));
    }
    (cloud, deployments)
}

/// Runs one controller for `minutes` simulated minutes, with the
/// controller, the IaaS layer and the simulator all reporting through
/// `telemetry`, and sums phase 1's operations.
pub fn run_one(
    controller: Controller,
    seed: u64,
    minutes: u64,
    telemetry: telemetry::Telemetry,
) -> ElasticRun {
    let run = crate::ScenarioSpec::new(crate::ScenarioStrategy::Elastic(controller), seed, minutes)
        .telemetry(telemetry)
        .run();
    let cumulative_phase1 = run
        .total_series
        .points()
        .iter()
        .filter(|(t, _)| *t <= SimTime::from_mins(PHASE1_END_MIN))
        .map(|(_, v)| v)
        .sum();
    let peak_nodes = run.node_series.points().iter().map(|(_, v)| *v).fold(0.0, f64::max);
    let final_nodes = run.node_series.points().last().map(|(_, v)| *v).unwrap_or(0.0);
    ElasticRun {
        throughput: run.total_series,
        nodes: run.node_series,
        cumulative_phase1,
        peak_nodes,
        final_nodes,
    }
}

/// The cloud arm of [`ScenarioSpec::run`](crate::ScenarioSpec::run): the
/// §6.4 deployment under the chosen controller. The spec's
/// `provision_delay` overrides the default OpenStack boot delay; its fault
/// plan drives both the IaaS substrate and (for MeT) the control loop.
pub(crate) fn run_spec(spec: crate::ScenarioSpec) -> crate::ScenarioRun {
    let crate::ScenarioStrategy::Elastic(controller) = spec.strategy else {
        unreachable!("elastic::run_spec only handles the Elastic strategy");
    };
    let telemetry = spec.telemetry.clone();
    let (mut cloud, deployments) = build_cloud(
        spec.seed,
        spec.provision_delay.unwrap_or(SimDuration::from_secs(BOOT_DELAY_S)),
    );
    cloud.set_telemetry(telemetry.clone());
    let injector = (!spec.faults.is_empty()).then(|| spec.faults.injector());
    if let Some(inj) = &injector {
        cloud.set_fault_injector(inj.clone());
    }
    let met_cfg = MetConfig {
        min_nodes: INITIAL_SERVERS,
        max_nodes: QUOTA - 2,
        remove_cooldown: SimDuration::from_mins(6),
        // The read nodes legitimately run near 0.9 CPU at the client-
        // saturation ceiling; only genuinely pegged nodes count as
        // overloaded in this deployment's thresholds.
        cpu_high: 0.92,
        ..MetConfig::default()
    };
    let mut met = Met::with_telemetry(met_cfg, cloud_node_config(), telemetry.clone());
    if let Some(inj) = &injector {
        met.set_fault_injector(inj.clone());
    }
    // tiramola's thresholds are user-defined rules (§7); these are the
    // values a CloudWatch-style operator would set after profiling this
    // deployment: scale out above 60 % average utilization, scale in only
    // when every node idles below 8 %.
    let tiramola_cfg = TiramolaConfig {
        cpu_high: 0.50,
        cpu_low: 0.08,
        action_cooldown: SimDuration::from_mins(4),
        ..TiramolaConfig::default()
    };
    let mut tiramola = Tiramola::new(tiramola_cfg, cloud_node_config());
    tiramola.set_telemetry(telemetry.clone());
    if controller == Controller::Tiramola {
        // Without MeT, HBase's own periodic count balancer spreads regions
        // onto nodes tiramola adds.
        cloud.inner_mut().set_auto_balance(Some(SimDuration::from_mins(5)));
    }

    let mut track = spec.track_layout.then(|| crate::spec::LayoutTrack::new(cloud.inner()));
    for tick in 0..(spec.minutes * 60) {
        // Phase 2 switch-offs (§6.4): E and F at 33, B at 43, A at 53.
        match tick {
            t if t == PHASE1_END_MIN * 60 => {
                cloud.inner_mut().set_group_active("workload-E", false);
                cloud.inner_mut().set_group_active("workload-F", false);
            }
            t if t == 43 * 60 => {
                cloud.inner_mut().set_group_active("workload-B", false);
                cloud.inner_mut().set_group_active("workload-D", false);
            }
            t if t == 53 * 60 => cloud.inner_mut().set_group_active("workload-A", false),
            _ => {}
        }
        cloud.run_ticks(1);
        match controller {
            Controller::Met => met.tick(&mut cloud),
            Controller::Tiramola => tiramola.tick(&mut cloud),
        }
        if let Some(t) = &mut track {
            t.observe(cloud.inner());
        }
    }

    telemetry.flush();
    let group_names: Vec<String> =
        deployments.iter().map(|d| format!("workload-{}", d.spec.name)).collect();
    let reconfigurations = match controller {
        Controller::Met => met.reconfigurations(),
        Controller::Tiramola => 0,
    };
    let faults_injected = injector.map_or(0, |i| i.injected() as u64);
    crate::spec::collect(cloud.inner(), &group_names, reconfigurations, faults_injected, track)
}

/// Both runs plus the Figure 5 comparison numbers.
#[derive(Debug, Clone)]
pub struct ElasticResult {
    /// The MeT-managed run.
    pub met: ElasticRun,
    /// The tiramola-managed run.
    pub tiramola: ElasticRun,
}

impl ElasticResult {
    /// Extra operations MeT completed by the end of phase 1 (paper:
    /// ≈ 706 000).
    pub fn met_extra_ops(&self) -> f64 {
        self.met.cumulative_phase1 - self.tiramola.cumulative_phase1
    }

    /// MeT's phase-1 throughput advantage (paper: ≈ 31 %).
    pub fn met_gain(&self) -> f64 {
        self.met.cumulative_phase1 / self.tiramola.cumulative_phase1 - 1.0
    }
}

/// Runs the full Figure 5/6 experiment.
pub fn run(seed: u64) -> ElasticResult {
    let run = |controller| run_one(controller, seed, MINUTES, telemetry::Telemetry::disabled());
    ElasticResult { met: run(Controller::Met), tiramola: run(Controller::Tiramola) }
}
