//! The MeT framework loop tying Monitor → Decision Maker → Actuator
//! (Fig. 2 / Fig. 3 of the paper).
//!
//! Driven once per simulation tick. Every `monitor_interval` it samples the
//! cluster; once `min_samples` smoothed samples accumulate (§6.1: 30 s
//! samples, 6 samples → a 3-minute decision period) it runs the decision
//! maker; a resulting plan executes through the actuator over the following
//! ticks, after which the monitor's smoothing state is reset (§4.1).
//!
//! What MeT did, and why, is recorded on its telemetry trail (events and
//! registry counters), not in a log of its own.

use crate::actuator::{Actuator, ActuatorStats, Failure, RetryPolicy, RETRY};
use crate::config::MetConfig;
use crate::decision::{Decision, DecisionMaker};
use crate::monitor::Monitor;
use crate::output::CurrentNode;
use crate::profiles::ProfileKind;
use cluster::admin::{ElasticCluster, ServerHealth};
use cluster::ServerId;
use hstore::StoreConfig;
use simcore::{FaultInjector, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use telemetry::{Telemetry, TelemetryEvent};

/// A crash replacement in flight: re-provision the dead server's profile,
/// with retry/backoff against transient boot failures.
#[derive(Debug, Clone)]
struct Replacement {
    dead: ServerId,
    config: StoreConfig,
    attempts: u32,
    not_before: SimTime,
}

/// Replacement provisioning attempts before the framework gives up on a
/// crashed node (the decision maker then works with the smaller fleet).
const REPLACEMENT_MAX_ATTEMPTS: u32 = 8;

/// The actuator's retry budget, stretched to the replacement attempts.
const REPLACEMENT: RetryPolicy = RetryPolicy { max_attempts: REPLACEMENT_MAX_ATTEMPTS, ..RETRY };

/// The assembled MeT control plane.
pub struct Met {
    cfg: MetConfig,
    monitor: Monitor,
    decision: DecisionMaker,
    actuator: Actuator,
    last_sample: Option<SimTime>,
    reconfigurations: u64,
    telemetry: Telemetry,
    reconfig_started_at: Option<SimTime>,
    last_decision_at: Option<SimTime>,
    faults: FaultInjector,
    /// Servers seen online and their last-known configs, for crash
    /// detection and like-for-like replacement.
    fleet: BTreeMap<ServerId, StoreConfig>,
    /// Servers MeT decommissioned on purpose; their disappearance is not
    /// a crash.
    expected_gone: BTreeSet<ServerId>,
    replacements: Vec<Replacement>,
}

impl Met {
    /// Creates a MeT instance. `base_config` carries the heap size and
    /// other non-profile parameters of the managed servers.
    pub fn new(cfg: MetConfig, base_config: StoreConfig) -> Self {
        cfg.validate().expect("invalid MeT configuration");
        Met {
            monitor: Monitor::new(cfg.smoothing_alpha),
            decision: DecisionMaker::new(cfg.clone()),
            actuator: Actuator::new(base_config),
            cfg,
            last_sample: None,
            reconfigurations: 0,
            telemetry: Telemetry::disabled(),
            reconfig_started_at: None,
            last_decision_at: None,
            faults: FaultInjector::disabled(),
            fleet: BTreeMap::new(),
            expected_gone: BTreeSet::new(),
            replacements: Vec::new(),
        }
    }

    /// Attaches a fault injector: scripted `MetricsDrop` faults make the
    /// monitor skip rounds (the control plane then works on aged data),
    /// mirroring lost Ganglia deliveries. Share the same injector with the
    /// cluster substrate so one script drives both sides.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Creates a MeT instance whose whole control loop (monitor samples,
    /// decision audit trail, actuator actions) reports to `telemetry`.
    pub fn with_telemetry(cfg: MetConfig, base_config: StoreConfig, telemetry: Telemetry) -> Self {
        let mut met = Met::new(cfg, base_config);
        met.set_telemetry(telemetry);
        met
    }

    /// Routes the control loop's telemetry to `telemetry` (shared with the
    /// monitor, decision maker and actuator).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.monitor.set_telemetry(telemetry.clone());
        self.decision.set_telemetry(telemetry.clone());
        self.actuator.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The telemetry handle this instance reports to.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Actuator statistics.
    pub fn actuator_stats(&self) -> ActuatorStats {
        self.actuator.stats()
    }

    /// Completed reconfiguration plans.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// True while a plan is being applied.
    pub fn reconfiguring(&self) -> bool {
        self.actuator.busy()
    }

    /// Advances the running plan. When it completes, records the end of
    /// the reconfiguration (the `ReconfigCompleted` event, the duration
    /// histogram, the completion counter) and resets the monitor, so only
    /// post-action observations feed the next decision.
    fn advance_plan(&mut self, now: SimTime, cluster: &mut dyn ElasticCluster) {
        if !self.actuator.advance(cluster) {
            return;
        }
        self.reconfigurations += 1;
        let duration_ms =
            self.reconfig_started_at.take().map(|t| now.since(t).as_millis()).unwrap_or(0);
        self.telemetry.counter_add("met_reconfigurations_total", &[], 1);
        self.telemetry.observe("met_reconfig_duration_ms", &[], duration_ms as f64);
        self.telemetry.emit(now, TelemetryEvent::ReconfigCompleted { duration_ms });
        self.monitor.reset();
        self.last_sample = None;
    }

    /// Self-healing pass, run every tick before the control loop proper:
    ///
    /// 1. Tracks the fleet (servers seen online and their configs).
    /// 2. A server that vanishes without being decommissioned is a crash:
    ///    schedule a like-for-like replacement, retried against transient
    ///    provisioning failures through the actuator's retry path.
    /// 3. When the actuator is idle, partitions still assigned to a dead
    ///    server are re-homed onto the least-loaded online server (while a
    ///    plan runs, the actuator's own reconciliation pass covers them).
    ///
    /// It reads [`ElasticCluster::health_view`], not a full snapshot: the
    /// monitor wants metrics once per interval, the healer only server
    /// health and orphans, every tick.
    fn heal(&mut self, now: SimTime, cluster: &mut dyn ElasticCluster) {
        let view = cluster.health_view();
        let present: BTreeSet<ServerId> = view.servers.iter().map(|s| s.server).collect();
        for s in &view.servers {
            if s.health == ServerHealth::Online {
                self.fleet.insert(s.server, s.config.clone());
            }
        }

        // Crash detection: in the fleet, gone from the cluster, and not a
        // deliberate decommission.
        let vanished: Vec<ServerId> =
            self.fleet.keys().copied().filter(|id| !present.contains(id)).collect();
        for id in vanished {
            let config = self.fleet.remove(&id).expect("vanished id came from the fleet map");
            if self.expected_gone.remove(&id) {
                continue;
            }
            self.telemetry.counter_add("met_nodes_lost_total", &[], 1);
            self.telemetry.emit(
                now,
                TelemetryEvent::ActionStarted {
                    action: "replace_node".to_string(),
                    server: id.0,
                    partition: None,
                    detail: "server vanished without decommission; provisioning a replacement \
                             with its last-known profile"
                        .to_string(),
                },
            );
            self.replacements.push(Replacement { dead: id, config, attempts: 0, not_before: now });
        }

        // Drive pending replacements (repairs bypass the scaling policy:
        // this restores agreed capacity, it does not grow it).
        let mut still_pending = Vec::new();
        for mut r in std::mem::take(&mut self.replacements) {
            if now < r.not_before {
                still_pending.push(r);
                continue;
            }
            match cluster.provision_server(r.config.clone()) {
                Ok(new_id) => {
                    self.telemetry.counter_add("met_nodes_replaced_total", &[], 1);
                    let profile = ProfileKind::of_config(&r.config)
                        .map(|p| p.to_string())
                        .unwrap_or_else(|| "custom".to_string());
                    self.telemetry
                        .emit(now, TelemetryEvent::NodeProvisioned { server: new_id.0, profile });
                }
                Err(e) => {
                    r.attempts += 1;
                    let failure = Failure {
                        action: "replace_node",
                        server: Some(r.dead),
                        partition: None,
                        attempt: r.attempts,
                        cause: e.to_string(),
                    };
                    if let Some(backoff) =
                        REPLACEMENT.retry_or_abandon(&self.telemetry, now, failure)
                    {
                        r.not_before = now + backoff;
                        still_pending.push(r);
                    }
                }
            }
        }
        self.replacements = still_pending;

        // Orphan re-homing, only while no plan is running (the actuator's
        // reconcile pass owns mid-plan recovery).
        if self.actuator.busy() {
            return;
        }
        if view.orphans.is_empty() {
            return;
        }
        let mut load: BTreeMap<ServerId, usize> = view
            .servers
            .iter()
            .filter(|s| s.health == ServerHealth::Online)
            .map(|s| (s.server, s.partitions))
            .collect();
        for (partition, wal_backlog) in view.orphans {
            let Some(target) = load.iter().min_by_key(|(id, n)| (**n, id.0)).map(|(id, _)| *id)
            else {
                break;
            };
            if cluster.move_partition(partition, target).is_ok() {
                *load.get_mut(&target).expect("target came from load map") += 1;
                self.telemetry.counter_add("met_orphans_reassigned_total", &[], 1);
                if wal_backlog > 0 {
                    self.telemetry.counter_add("met_wal_replay_bytes_total", &[], wal_backlog);
                }
                self.telemetry.emit(
                    now,
                    TelemetryEvent::ActionStarted {
                        action: "orphan_reassign".to_string(),
                        server: target.0,
                        partition: Some(partition.0),
                        detail: if wal_backlog > 0 {
                            format!(
                                "re-homing a partition orphaned by a crashed server; \
                                 {wal_backlog} B of WAL to replay"
                            )
                        } else {
                            "re-homing a partition orphaned by a crashed server".to_string()
                        },
                    },
                );
            }
        }
    }

    /// Drives MeT for one simulation tick.
    pub fn tick(&mut self, cluster: &mut dyn ElasticCluster) {
        let now = cluster.now();

        // Self-healing first: detect crashed servers, drive replacement
        // provisioning, and re-home orphaned partitions. Fault-free this
        // is a pure read (no events, no mutations).
        self.heal(now, cluster);

        // A running plan takes priority; the monitor pauses meanwhile.
        if self.actuator.busy() {
            self.advance_plan(now, cluster);
            return;
        }

        // Sample every monitor interval.
        let due = match self.last_sample {
            None => true,
            Some(t) => now.since(t) >= self.cfg.monitor_interval,
        };
        if !due {
            return;
        }
        self.last_sample = Some(now);
        let snapshot = cluster.snapshot();
        if self.faults.take_metrics_drop(now) {
            // A scripted Ganglia loss: this round's samples never arrive.
            // The monitor records the miss (aging subsequent reports) and
            // the decision maker sees stale data instead of fresh.
            self.monitor.note_missed(now);
            self.telemetry.counter_add("met_faults_injected_total", &[("kind", "metrics_drop")], 1);
            self.telemetry.emit(
                now,
                TelemetryEvent::FaultInjected {
                    kind: "metrics_drop".to_string(),
                    target: None,
                    detail: "monitoring round dropped; control plane continues on aged data"
                        .to_string(),
                },
            );
        } else {
            self.monitor.observe(&snapshot);
        }

        if self.monitor.samples() < self.cfg.min_samples {
            return;
        }
        let Some(report) = self.monitor.report(&snapshot) else { return };
        if let Some(last) = self.last_decision_at {
            self.telemetry.observe(
                "met_decision_interval_ms",
                &[],
                now.since(last).as_millis() as f64,
            );
        }
        self.last_decision_at = Some(now);
        match self.decision.decide(now, &report, &snapshot) {
            Decision::Healthy => {
                // Stay in StageA; keep the sliding window of samples.
            }
            Decision::Reconfigure(plan) => {
                let current: Vec<CurrentNode> = snapshot
                    .servers
                    .iter()
                    .filter(|s| s.health == ServerHealth::Online)
                    .map(|s| CurrentNode {
                        server: s.server,
                        profile: ProfileKind::of_config(&s.config),
                        partitions: s.partitions.clone(),
                    })
                    .collect();
                let adds = plan.entries.iter().filter(|(s, _)| s.is_none()).count();
                let removes = plan.decommission.len();
                let moves = plan.moves_required(&current);
                let restarts = plan.restarts_required(&current);
                // Hysteresis: a plan that only shuffles a few partitions
                // (no restarts, no fleet change) is LPT noise, not a better
                // layout — the move outages would cost more than the
                // rebalance gains.
                let total_partitions = snapshot.partitions.len().max(1);
                if adds == 0 && removes == 0 && restarts == 0 && moves * 5 < total_partitions {
                    return;
                }
                let reason = format!(
                    "plan: {} slots, +{adds} nodes, -{removes} nodes, {moves} moves, {restarts} restarts",
                    plan.entries.len(),
                );
                self.reconfig_started_at = Some(now);
                self.telemetry.emit(now, TelemetryEvent::ReconfigStarted { reason });
                // Remember deliberate removals so the healer does not
                // mistake them for crashes.
                self.expected_gone.extend(plan.decommission.iter().copied());
                self.actuator.start(plan, &snapshot);
                // Begin executing immediately.
                self.advance_plan(now, cluster);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::ProfileKind;
    use cluster::{ClientGroup, CostParams, OpMix, PartitionId, PartitionSpec, SimCluster};

    /// Builds the §3 scenario in miniature: read, write, mixed and scan
    /// partitions on a homogeneous random cluster, then lets MeT run.
    fn build_scenario(seed: u64) -> (SimCluster, Vec<PartitionId>) {
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
        (sim, parts)
    }

    #[test]
    fn met_reconfigures_heterogeneously_and_improves_throughput() {
        let (mut sim, _parts) = build_scenario(11);
        // Baseline: run homogeneous for 4 minutes.
        sim.run_ticks(240);
        let baseline = sim
            .total_series()
            .mean_between(simcore::SimTime::from_secs(120), simcore::SimTime::from_secs(240))
            .unwrap();

        let mut met = Met::new(MetConfig::default(), StoreConfig::default_homogeneous());
        // 26 more minutes with MeT in the loop.
        for _ in 0..(26 * 60) {
            sim.step();
            met.tick(&mut sim);
        }
        assert!(met.reconfigurations() >= 1, "MeT never acted: {:?}", met.actuator_stats());

        // All servers end on Table-1 profiles.
        let snap = cluster::ElasticCluster::snapshot(&sim);
        let profiled = snap
            .servers
            .iter()
            .filter(|s| s.health == cluster::ServerHealth::Online)
            .filter(|s| ProfileKind::of_config(&s.config).is_some())
            .count();
        assert!(profiled >= 3, "servers not reconfigured: {profiled}");

        // Steady-state throughput beats the homogeneous baseline.
        let end = sim.time();
        let steady =
            sim.total_series().mean_between(simcore::SimTime(end.0 - 5 * 60_000), end).unwrap();
        assert!(
            steady > baseline * 1.1,
            "MeT should improve throughput: baseline {baseline:.0} → {steady:.0}"
        );
    }

    #[test]
    fn crashed_server_is_replaced_and_orphans_re_homed() {
        let (mut sim, _) = build_scenario(17);
        let trail = Telemetry::with_ring(telemetry::Verbosity::Info, 4_096);
        let mut met = Met::with_telemetry(
            MetConfig { allow_scaling: false, ..MetConfig::default() },
            StoreConfig::default_homogeneous(),
            trail.clone(),
        );
        // Reach a post-reconfiguration steady state.
        for _ in 0..(12 * 60) {
            sim.step();
            met.tick(&mut sim);
        }
        assert!(met.reconfigurations() >= 1, "MeT never acted: {:?}", met.actuator_stats());
        while met.reconfiguring() {
            sim.step();
            met.tick(&mut sim);
        }

        let snap = cluster::ElasticCluster::snapshot(&sim);
        let victim = snap.online_servers()[0];
        sim.crash_server(victim);
        for _ in 0..(5 * 60) {
            sim.step();
            met.tick(&mut sim);
        }

        let after = cluster::ElasticCluster::snapshot(&sim);
        assert_eq!(after.online_servers().len(), 4, "replacement should restore the fleet");
        for p in &after.partitions {
            assert_ne!(p.assigned_to, Some(victim), "partition left on the crashed server");
        }
        // The crash and its repair are on the trail.
        let replacing = trail.events().into_iter().any(|e| {
            matches!(e.data, TelemetryEvent::ActionStarted { ref action, server, .. }
                if action == "replace_node" && server == victim.0)
        });
        assert!(replacing, "no crash detection on the trail");
        assert_eq!(trail.counter_total("met_nodes_lost_total"), 1);
        assert_eq!(trail.counter_total("met_nodes_replaced_total"), 1);
    }

    #[test]
    fn replacement_retries_back_off_then_give_up() {
        use simcore::fault::{FaultSpec, ScheduledFault};
        use telemetry::Verbosity;
        let (mut sim, _) = build_scenario(19);
        // More boot failures than the healer has attempts.
        let fails = (0..2 * REPLACEMENT_MAX_ATTEMPTS)
            .map(|_| ScheduledFault { at: SimTime::ZERO, spec: FaultSpec::ProvisionFail })
            .collect();
        sim.set_fault_injector(simcore::FaultPlan::new(fails).injector());
        let trail = Telemetry::with_ring(Verbosity::Info, 4_096);
        // No decision within the run: only the healer touches the cluster.
        let cfg = MetConfig { allow_scaling: false, min_samples: 1_000, ..MetConfig::default() };
        let mut met = Met::with_telemetry(cfg, StoreConfig::default_homogeneous(), trail.clone());
        sim.step();
        met.tick(&mut sim);
        let victim = cluster::ElasticCluster::snapshot(&sim).online_servers()[0];
        sim.crash_server(victim);
        for _ in 0..(6 * 60) {
            sim.step();
            met.tick(&mut sim);
        }

        let events = trail.events();
        let retries: Vec<(u64, u64)> = events
            .iter()
            .filter_map(|e| match &e.data {
                TelemetryEvent::RetryScheduled { action, server, attempt, backoff_ms, .. } => {
                    assert_eq!(action, "replace_node");
                    assert_eq!(*server, Some(victim.0));
                    Some((*attempt, *backoff_ms))
                }
                _ => None,
            })
            .collect();
        let expected: Vec<(u64, u64)> = (1..REPLACEMENT_MAX_ATTEMPTS as u64)
            .map(|attempt| (attempt, 2_000 << (attempt - 1)))
            .collect();
        assert_eq!(retries, expected);
        let failed: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.data {
                TelemetryEvent::StepFailed { action, server, attempts, .. } => {
                    Some((action.as_str(), *server, *attempts))
                }
                _ => None,
            })
            .collect();
        assert_eq!(failed, vec![("replace_node", Some(victim.0), REPLACEMENT_MAX_ATTEMPTS as u64)]);
        assert_eq!(
            trail.counter_total("met_step_retries_total"),
            REPLACEMENT_MAX_ATTEMPTS as u64 - 1
        );
        assert_eq!(trail.counter_total("met_steps_abandoned_total"), 1);
        assert_eq!(trail.counter_total("met_nodes_replaced_total"), 0);
    }

    #[test]
    fn met_does_nothing_before_enough_samples() {
        let (mut sim, _) = build_scenario(13);
        let mut met = Met::new(MetConfig::default(), StoreConfig::default_homogeneous());
        // 5 samples' worth of time (monitor interval 30 s → 150 s).
        for _ in 0..150 {
            sim.step();
            met.tick(&mut sim);
        }
        assert_eq!(met.reconfigurations(), 0);
        assert!(!met.reconfiguring());
    }
}
