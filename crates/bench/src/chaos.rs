//! `exp-chaos` — the Fig-4 convergence workload under a scripted fault
//! plan, measuring how the control plane's self-healing machinery (retry
//! with backoff, plan reconciliation, crash replacement, stale-metric
//! degradation) changes convergence versus the fault-free run.
//!
//! The headline check mirrors the robustness claim: with the reference
//! plan (one server crash mid-reconfiguration, two provision failures
//! against the replacement, one dropped metrics round) MeT must still land
//! on the *same* final profile layout as the fault-free run — just later
//! and with some wasted actions, both of which the report quantifies.

use cluster::admin::ClusterSnapshot;
use simcore::{FaultPlan, SimDuration, SimTime};
use std::collections::BTreeMap;
use telemetry::{Telemetry, Verbosity};

/// One instrumented run (fault-free or faulted) of the chaos workload.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Steady-state throughput over the final 10 minutes (ops/s).
    pub steady: f64,
    /// Reconfiguration plans MeT completed.
    pub reconfigurations: u64,
    /// Minute of the last change to the online profile layout — the
    /// convergence time (clients start at minute 2).
    pub converged_at_min: f64,
    /// Final profile multiset of the online fleet (profile name → count).
    pub profiles: BTreeMap<String, usize>,
    /// Online servers at the end of the run.
    pub online: usize,
    /// Step retries the actuator and healer performed.
    pub retries: u64,
    /// Steps abandoned after exhausting their retry budget.
    pub abandoned: u64,
    /// Plan-reconciliation rounds the actuator ran.
    pub reconciles: u64,
    /// Crashed servers replaced by the healer.
    pub replacements: u64,
    /// Orphaned partitions re-homed outside a plan.
    pub orphans_reassigned: u64,
    /// Degraded-mode entries by the decision maker.
    pub degraded_entries: u64,
    /// Scale-in decisions vetoed on stale data.
    pub scale_in_vetoes: u64,
    /// Faults the injector actually delivered.
    pub faults_injected: u64,
    /// Final cluster snapshot, so determinism checks can compare end
    /// states.
    pub snapshot: ClusterSnapshot,
}

impl ChaosRun {
    /// Actions that only exist because faults fired: retries, abandoned
    /// steps, reconcile rounds, replacements and orphan moves.
    pub fn recovery_actions(&self) -> u64 {
        self.retries
            + self.abandoned
            + self.reconciles
            + self.replacements
            + self.orphans_reassigned
    }
}

/// The experiment result: the faulted run against its fault-free twin.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// The fault plan, rendered in the `parse` grammar.
    pub plan: String,
    /// The baseline run with no injector attached.
    pub fault_free: ChaosRun,
    /// The run under the fault plan.
    pub faulted: ChaosRun,
    /// Whether both runs converged to the same profile multiset and fleet
    /// size — the acceptance criterion.
    pub same_final_configuration: bool,
    /// Recovery actions the faults cost (the fault-free run's are zero by
    /// construction, but subtracted anyway so the number stays honest).
    pub wasted_actions: u64,
    /// Extra minutes the faulted run needed to converge.
    pub convergence_penalty_min: f64,
}

/// Runs the Fig-4 workload (Random-Homogeneous start, MeT attached at
/// minute 2, scaling disabled as in §6.2) with `plan`'s faults injected
/// into both the cluster substrate and the control loop. An empty plan
/// leaves the injector detached, reproducing the fault-free Fig-4 path
/// byte for byte. A thin wrapper over the unified
/// [`ScenarioSpec`](crate::ScenarioSpec) runner: the chaos experiment is
/// exactly [`MetFixedFleet`](crate::ScenarioStrategy) plus a fault plan, a
/// realistic 60 s provision delay (so a crash is a real outage rather than
/// an instant swap) and per-tick layout tracking.
pub fn run_chaos_curve(
    seed: u64,
    minutes: u64,
    plan: &FaultPlan,
    telemetry: Telemetry,
) -> ChaosRun {
    let run = crate::ScenarioSpec::new(crate::ScenarioStrategy::MetFixedFleet, seed, minutes)
        .telemetry(telemetry.clone())
        .faults(plan.clone())
        .provision_delay(SimDuration::from_secs(60))
        .track_layout(true)
        .run();

    let end = SimTime::from_mins(minutes + 2);
    // Saturate for short runs (determinism gates use 6-minute curves);
    // the steady window then just covers the whole run.
    let steady_from = SimTime::from_mins((minutes + 2).saturating_sub(10));
    ChaosRun {
        steady: run.total_series.mean_between(steady_from, end).unwrap_or(0.0),
        reconfigurations: run.reconfigurations,
        converged_at_min: run.converged_at_min,
        profiles: run.profiles,
        online: run.online,
        retries: telemetry.counter_total("met_step_retries_total"),
        abandoned: telemetry.counter_total("met_steps_abandoned_total"),
        reconciles: telemetry.counter_total("met_plan_reconciles_total"),
        replacements: telemetry.counter_total("met_nodes_replaced_total"),
        orphans_reassigned: telemetry.counter_total("met_orphans_reassigned_total"),
        degraded_entries: telemetry.counter_total("met_degraded_entries_total"),
        scale_in_vetoes: telemetry.counter_total("met_scale_in_vetoes_total"),
        faults_injected: run.faults_injected,
        snapshot: run.snapshot,
    }
}

/// Runs the full experiment: a fault-free baseline, then the same seed
/// under `plan` with the caller's telemetry pipeline (so `MET_TRACE`
/// captures the faulted run's audit trail).
pub fn run(seed: u64, minutes: u64, plan: &FaultPlan, telemetry: Telemetry) -> ChaosResult {
    // The baseline gets its own registry-only pipeline: its counters feed
    // the comparison without polluting the faulted run's trace.
    let fault_free =
        run_chaos_curve(seed, minutes, &FaultPlan::empty(), Telemetry::new(Verbosity::Off));
    let faulted = run_chaos_curve(seed, minutes, plan, telemetry);

    let same_final_configuration =
        fault_free.profiles == faulted.profiles && fault_free.online == faulted.online;
    let wasted_actions = faulted.recovery_actions().saturating_sub(fault_free.recovery_actions());
    let convergence_penalty_min = faulted.converged_at_min - fault_free.converged_at_min;
    ChaosResult {
        plan: plan.to_string(),
        fault_free,
        faulted,
        same_final_configuration,
        wasted_actions,
        convergence_penalty_min,
    }
}

/// Resolves the fault plan from the typed environment config:
/// `MET_FAULT_PLAN` is `reference` (default), `random` (seeded by
/// `MET_FAULT_SEED`, default 42), or a spec string in the
/// [`FaultPlan::parse`] grammar.
pub fn plan_from_env() -> Result<FaultPlan, String> {
    plan_from_config(simcore::config::env_config())
}

/// [`plan_from_env`] over an explicit config (tests pass their own).
pub fn plan_from_config(cfg: &simcore::config::EnvConfig) -> Result<FaultPlan, String> {
    match cfg.fault_plan.as_deref() {
        None | Some("reference") => Ok(FaultPlan::reference()),
        Some("random") => {
            Ok(FaultPlan::random(cfg.fault_seed, &simcore::RandomFaultConfig::default()))
        }
        Some(spec) => FaultPlan::parse(spec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::RandomFaultConfig;

    /// The acceptance run: the reference plan (crash mid-reconfiguration,
    /// two provision failures, one dropped metrics round) must not change
    /// where MeT converges — only how long it takes and how many recovery
    /// actions it spends.
    #[test]
    fn reference_plan_converges_to_the_fault_free_configuration() {
        let r = run(1_000, 20, &FaultPlan::reference(), Telemetry::new(Verbosity::Off));
        assert_eq!(r.faulted.faults_injected, 4, "all scheduled faults must fire");
        assert!(
            r.same_final_configuration,
            "faulted run must reach the fault-free configuration: {:?} vs {:?} \
             (online {} vs {})",
            r.fault_free.profiles, r.faulted.profiles, r.fault_free.online, r.faulted.online
        );
        assert!(r.wasted_actions > 0, "recovering from faults must cost actions");
        assert!(
            r.faulted.retries >= 1,
            "the provision failures must surface as retries: {:?}",
            r.faulted
        );
        assert!(
            r.faulted.replacements >= 1,
            "the crashed server must be replaced: {:?}",
            r.faulted
        );
    }

    /// The chaos soak (CI runs this per fixed seed): a bounded-rate random
    /// plan must leave a converged, fully assigned cluster.
    fn soak(seed: u64) {
        let plan = FaultPlan::random(
            seed,
            &RandomFaultConfig {
                horizon: SimDuration::from_mins(12),
                warmup: SimDuration::from_mins(3),
                faults: 4,
                allow_crashes: true,
                disk_faults: false,
            },
        );
        let telemetry = Telemetry::new(Verbosity::Off);
        let run = run_chaos_curve(seed, 18, &plan, telemetry);
        assert!(run.reconfigurations >= 1, "seed {seed}: MeT never acted");
        // Converged: the layout stopped changing well before the end.
        assert!(
            run.converged_at_min < 15.0,
            "seed {seed}: layout still changing at minute {}",
            run.converged_at_min
        );
        assert!(run.online >= 1, "seed {seed}: fleet wiped out");
    }

    #[test]
    fn chaos_soak_seed_101() {
        soak(101);
    }

    #[test]
    fn chaos_soak_seed_202() {
        soak(202);
    }

    #[test]
    fn chaos_soak_seed_303() {
        soak(303);
    }
}
