//! The unified Scenario API: one builder, one `run()`, every experiment.
//!
//! Historically each figure grew its own runner family —
//! `fig1::run_once`, `fig4::run_met_curve{,_traced}`,
//! `fig4::run_manual_curve`, `chaos::run_chaos_curve`,
//! `elastic::run_one{,_for,_traced}`, `table2::run_{manual,met,captured}` —
//! all permutations of the same six choices: seed, horizon, telemetry
//! pipeline, fault plan, provision delay and the strategy under test. [`ScenarioSpec`] names those choices once; [`ScenarioSpec::run`]
//! executes them; [`ScenarioRun`] carries everything any caller derives its
//! figures from. The legacy entry points survive as thin wrappers, so
//! existing tests, binaries and recorded traces are untouched: a spec with
//! the defaults a legacy runner used reproduces that runner byte for byte.

use crate::fig1::Strategy;
use crate::scenario::FIG1_SERVERS;
use baselines::{build_manual_heterogeneous, build_random_homogeneous};
use cluster::admin::{ClusterSnapshot, ElasticCluster, ServerHealth};
use cluster::SimCluster;
use hstore::StoreConfig;
use met::profiles::ProfileKind;
use met::{Met, MetConfig};
use simcore::timeseries::TimeSeries;
use simcore::{FaultPlan, SimDuration, SimTime};
use std::collections::BTreeMap;
use telemetry::Telemetry;

/// What drives the cluster during the run.
#[derive(Debug, Clone)]
pub enum ScenarioStrategy {
    /// A §3.3 manual placement, no controller (fig 1, fig 4 baselines).
    Manual(Strategy),
    /// Random-Homogeneous start, MeT attached at minute 2 with scaling
    /// disabled (§6.2's convergence run; the chaos experiment layers a
    /// fault plan on top of exactly this strategy).
    MetFixedFleet,
    /// The §6.4 cloud deployment under an elastic controller (figs 5/6).
    Elastic(crate::elastic::Controller),
    /// Table 2 (i): the best manual homogeneous TPC-C configuration.
    TpccManual,
    /// Table 2 (ii): same start, MeT attached at minute 4.
    TpccMet,
    /// Table 2 (iii): a fresh run from a layout captured off a MeT run.
    TpccCaptured(crate::table2::CapturedLayout),
}

/// The builder: every knob an experiment runner ever exposed, defaulted to
/// what the legacy runners did.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Strategy under test.
    pub strategy: ScenarioStrategy,
    /// Simulation seed.
    pub seed: u64,
    /// Measured minutes (the YCSB scenarios add their 2-minute ramp on
    /// top; TPC-C and the cloud runs use this as the full horizon, as
    /// their legacy runners did).
    pub minutes: u64,
    /// Telemetry pipeline shared by the simulator and the controller.
    pub telemetry: Telemetry,
    /// Scripted faults; an empty plan leaves the injector detached.
    pub faults: FaultPlan,
    /// Provisioning boot delay (`None`: instant for the direct simulator,
    /// the paper's 60 s for the cloud substrate).
    pub provision_delay: Option<SimDuration>,
    /// Track the online profile layout every tick to report convergence
    /// (costs a snapshot per tick; the chaos experiment turns it on).
    pub track_layout: bool,
    /// Offered-load multiplier for the YCSB suite (1.0: the paper's load;
    /// the `exp-latency` sweep pushes this past saturation).
    pub load_factor: f64,
    /// Controller-config override for the direct-simulator MeT strategies
    /// (`MetFixedFleet`, `TpccMet`). `None` keeps the legacy §6.2/§6.3
    /// fixed-fleet config (`allow_scaling: false`, paper defaults). The
    /// SLO-gate experiment passes a config with `slo_p99_ms` set and
    /// scaling enabled.
    pub met_config: Option<MetConfig>,
}

/// Everything a run produces; each figure derives its numbers from here.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Total throughput, ops/s per tick.
    pub total_series: TimeSeries,
    /// Per-group throughput, keyed by workload name ("A".."F", "tpcc").
    pub group_series: BTreeMap<String, TimeSeries>,
    /// Online node count per tick.
    pub node_series: TimeSeries,
    /// Final cluster snapshot.
    pub snapshot: ClusterSnapshot,
    /// Reconfiguration plans the controller completed (0 without one).
    pub reconfigurations: u64,
    /// Minute of the last online-layout change (0 unless `track_layout`).
    pub converged_at_min: f64,
    /// Final profile multiset of the online fleet.
    pub profiles: BTreeMap<String, usize>,
    /// Online servers at the end.
    pub online: usize,
    /// Faults the injector actually delivered.
    pub faults_injected: u64,
}

impl ScenarioSpec {
    /// A spec with the legacy defaults: disabled telemetry, no faults, no provision delay, no layout tracking.
    pub fn new(strategy: ScenarioStrategy, seed: u64, minutes: u64) -> Self {
        ScenarioSpec {
            strategy,
            seed,
            minutes,
            telemetry: Telemetry::disabled(),
            faults: FaultPlan::empty(),
            provision_delay: None,
            track_layout: false,
            load_factor: 1.0,
            met_config: None,
        }
    }

    /// Routes the simulator and controller through `telemetry`.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Injects `faults` into both the substrate and the control loop.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Makes provisioning take `delay` instead of completing instantly.
    pub fn provision_delay(mut self, delay: SimDuration) -> Self {
        self.provision_delay = Some(delay);
        self
    }

    /// Tracks the online profile layout per tick (convergence reporting).
    pub fn track_layout(mut self, on: bool) -> Self {
        self.track_layout = on;
        self
    }

    /// Scales the YCSB suite's offered load by `factor`.
    pub fn load(mut self, factor: f64) -> Self {
        self.load_factor = factor;
        self
    }

    /// Overrides the MeT configuration for the direct-simulator MeT
    /// strategies.
    pub fn met_config(mut self, cfg: MetConfig) -> Self {
        self.met_config = Some(cfg);
        self
    }

    /// Executes the scenario.
    pub fn run(self) -> ScenarioRun {
        match self.strategy {
            ScenarioStrategy::Manual(_) | ScenarioStrategy::MetFixedFleet => run_ycsb_direct(self),
            ScenarioStrategy::Elastic(_) => crate::elastic::run_spec(self),
            ScenarioStrategy::TpccManual
            | ScenarioStrategy::TpccMet
            | ScenarioStrategy::TpccCaptured(_) => crate::table2::run_spec(self),
        }
    }
}

/// Profile multiset of the online fleet (convergence is "this stopped
/// changing").
pub(crate) fn profile_layout(snapshot: &ClusterSnapshot) -> BTreeMap<String, usize> {
    let mut layout = BTreeMap::new();
    for s in &snapshot.servers {
        if s.health != ServerHealth::Online {
            continue;
        }
        let name = ProfileKind::of_config(&s.config)
            .map(|p| p.to_string())
            .unwrap_or_else(|| "unprofiled".to_string());
        *layout.entry(name).or_insert(0) += 1;
    }
    layout
}

/// Per-tick layout tracking state, threaded through [`drive`].
pub(crate) struct LayoutTrack {
    /// Online profile multiset at the last change.
    pub profiles: BTreeMap<String, usize>,
    /// Online count at the last change.
    pub online: usize,
    /// When the layout last changed.
    pub last_change: SimTime,
}

/// The shared tick loop: step the simulator, tick the controller from
/// `controller_start` on, optionally watch the layout. Exactly the loop
/// every legacy runner had inline.
pub(crate) fn drive(
    sim: &mut SimCluster,
    mut met: Option<&mut Met>,
    controller_start: u64,
    total_ticks: u64,
    track_layout: bool,
) -> Option<LayoutTrack> {
    let mut track = track_layout.then(|| LayoutTrack {
        profiles: profile_layout(&ElasticCluster::snapshot(sim)),
        online: sim.online_server_ids().len(),
        last_change: SimTime::ZERO,
    });
    for tick in 0..total_ticks {
        sim.step();
        if tick >= controller_start {
            if let Some(met) = met.as_deref_mut() {
                met.tick(sim);
            }
        }
        if let Some(t) = &mut track {
            let snap = ElasticCluster::snapshot(sim);
            let now_layout = profile_layout(&snap);
            let now_online = snap.online_servers().len();
            if now_layout != t.profiles || now_online != t.online {
                t.profiles = now_layout;
                t.online = now_online;
                t.last_change = sim.time();
            }
        }
    }
    track
}

/// Assembles the [`ScenarioRun`] from a finished direct-simulator run.
pub(crate) fn collect(
    sim: &SimCluster,
    group_names: &[String],
    reconfigurations: u64,
    faults_injected: u64,
    track: Option<LayoutTrack>,
) -> ScenarioRun {
    let snapshot = ElasticCluster::snapshot(sim);
    let group_series = group_names
        .iter()
        .filter_map(|name| sim.group_throughput(name).map(|s| (short_name(name), s.clone())))
        .collect();
    let (converged_at_min, profiles, online) = match track {
        Some(t) => (t.last_change.as_mins_f64(), t.profiles, t.online),
        None => (0.0, profile_layout(&snapshot), snapshot.online_servers().len()),
    };
    ScenarioRun {
        total_series: sim.total_series().clone(),
        group_series,
        node_series: sim.node_series().clone(),
        snapshot,
        reconfigurations,
        converged_at_min,
        profiles,
        online,
        faults_injected,
    }
}

/// Strips the `workload-` group prefix so callers key by workload name.
fn short_name(group: &str) -> String {
    group.strip_prefix("workload-").unwrap_or(group).to_string()
}

/// The direct-simulator YCSB arm: fig 1's manual strategies, fig 4's MeT
/// convergence curve and the chaos experiment (MeT + fault plan).
fn run_ycsb_direct(spec: ScenarioSpec) -> ScenarioRun {
    let mut scenario = crate::scenario::ycsb_scenario_scaled(spec.seed, spec.load_factor);
    match &spec.strategy {
        ScenarioStrategy::MetFixedFleet | ScenarioStrategy::Manual(Strategy::RandomHomogeneous) => {
            build_random_homogeneous(&mut scenario.sim, FIG1_SERVERS);
        }
        ScenarioStrategy::Manual(Strategy::ManualHomogeneous) => {
            let placement = crate::fig1::manual_homog_best_placement(spec.seed);
            crate::fig1::apply_placement(&mut scenario, &placement);
        }
        ScenarioStrategy::Manual(Strategy::ManualHeterogeneous) => {
            let groups = scenario.grouped_partitions();
            build_manual_heterogeneous(&mut scenario.sim, FIG1_SERVERS, &groups);
        }
        _ => unreachable!("run_ycsb_direct only handles direct YCSB strategies"),
    }
    scenario.start_clients();
    scenario.sim.set_telemetry(spec.telemetry.clone());
    if let Some(d) = spec.provision_delay {
        scenario.sim.set_provision_delay(d);
    }
    let injector = (!spec.faults.is_empty()).then(|| spec.faults.injector());
    if let Some(inj) = &injector {
        scenario.sim.set_fault_injector(inj.clone());
    }
    let mut met = if matches!(spec.strategy, ScenarioStrategy::MetFixedFleet) {
        // §6.2 runs MeT against the database alone: reconfiguration only —
        // unless the caller overrides the config (the SLO-gate experiment
        // enables scaling and sets `slo_p99_ms`).
        let cfg = spec
            .met_config
            .clone()
            .unwrap_or_else(|| MetConfig { allow_scaling: false, ..MetConfig::default() });
        let mut met =
            Met::with_telemetry(cfg, StoreConfig::default_homogeneous(), spec.telemetry.clone());
        if let Some(inj) = &injector {
            met.set_fault_injector(inj.clone());
        }
        Some(met)
    } else {
        None
    };

    let total_ticks = (spec.minutes + 2) * 60;
    let track = drive(&mut scenario.sim, met.as_mut(), 120, total_ticks, spec.track_layout);
    spec.telemetry.flush();

    let group_names: Vec<String> =
        scenario.deployments.iter().map(|d| format!("workload-{}", d.spec.name)).collect();
    collect(
        &scenario.sim,
        &group_names,
        met.as_ref().map(|m| m.reconfigurations()).unwrap_or(0),
        injector.map(|i| i.injected() as u64).unwrap_or(0),
        track,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The spec path must reproduce what the legacy fig4 runner measures:
    /// same strategy, same seed, same horizon ⇒ identical series.
    #[test]
    fn spec_reproduces_the_legacy_met_curve() {
        let spec = ScenarioSpec::new(ScenarioStrategy::MetFixedFleet, 7, 6);
        let run = spec.run();
        let (legacy, reconfigs, snap) =
            crate::fig4::run_met_curve_traced(7, 6, Telemetry::disabled());
        assert_eq!(run.total_series.points(), legacy.points());
        assert_eq!(run.reconfigurations, reconfigs);
        assert_eq!(format!("{:?}", run.snapshot), format!("{snap:?}"));
    }

    /// Layout tracking is observation only: it must not perturb the run.
    #[test]
    fn layout_tracking_does_not_change_the_run() {
        let base = ScenarioSpec::new(ScenarioStrategy::MetFixedFleet, 11, 5).run();
        let tracked =
            ScenarioSpec::new(ScenarioStrategy::MetFixedFleet, 11, 5).track_layout(true).run();
        assert_eq!(base.total_series.points(), tracked.total_series.points());
        assert_eq!(base.profiles, tracked.profiles);
        // The tracked run additionally knows *when* it converged.
        assert!(tracked.converged_at_min > 0.0);
    }

    /// Group series come back keyed by workload name, one per deployment.
    #[test]
    fn group_series_cover_the_suite() {
        let run =
            ScenarioSpec::new(ScenarioStrategy::Manual(Strategy::RandomHomogeneous), 3, 3).run();
        let names: Vec<&str> = run.group_series.keys().map(|s| s.as_str()).collect();
        assert_eq!(names, ["A", "B", "C", "D", "E", "F"]);
        assert!(run.reconfigurations == 0 && run.faults_injected == 0);
        assert_eq!(run.online, FIG1_SERVERS);
    }
}
