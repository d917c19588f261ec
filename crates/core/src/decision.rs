//! The Decision Maker (§4.2): stages A–D.
//!
//! * **StageA** — is the cluster's load acceptable? (system metrics against
//!   thresholds)
//! * **StageB** — Algorithm 1: how many nodes to add (quadratically) or
//!   remove (linearly), with the `firstTime` InitialReconfiguration case
//!   and the `SubOptimalNodesThreshold` fast path.
//! * **StageC** — the distribution algorithm: classify partitions into
//!   read/write/read-write/scan groups, allocate nodes to groups
//!   proportionally, and run LPT assignment (Algorithm 2) inside each
//!   group.
//! * **StageD** — output computation (Algorithm 3): match the suggested
//!   distribution to the running cluster, minimizing reconfigurations and
//!   moves.

use crate::assignment::assign_lpt;
use crate::classify::classify;
use crate::config::MetConfig;
use crate::grouping::nodes_per_group;
use crate::monitor::MonitorReport;
use crate::output::{compute_output, CurrentNode, OutputPlan, SuggestedNode};
use crate::profiles::ProfileKind;
use cluster::admin::{ClusterSnapshot, ServerHealth};
use simcore::SimTime;
use std::collections::BTreeMap;
use telemetry::{Telemetry, TelemetryEvent};

/// The decision maker's verdict for one invocation.
#[derive(Debug, Clone)]
pub enum Decision {
    /// The cluster is healthy — stay in StageA.
    Healthy,
    /// Reconfigure toward this layout.
    Reconfigure(OutputPlan),
}

/// StageA's summary of cluster health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthAssessment {
    /// Online nodes considered.
    pub online: usize,
    /// Nodes over the high thresholds.
    pub overloaded: usize,
    /// Nodes under the low thresholds.
    pub underloaded: usize,
}

impl HealthAssessment {
    /// The cluster needs intervention.
    pub fn suboptimal(&self) -> bool {
        self.overloaded > 0 || self.remove()
    }

    /// The intervention direction is scale-down. Unlike tiramola — which
    /// "only releases resources when every node in the cluster is
    /// underutilized" — MeT releases a machine "each time it detects
    /// underutilization" (§6.4): a majority of idle nodes suffices,
    /// because the reconfiguration redistributes the survivors' load.
    pub fn remove(&self) -> bool {
        self.overloaded == 0 && self.online > 1 && self.underloaded * 2 > self.online
    }
}

/// The stateful decision maker.
#[derive(Debug)]
pub struct DecisionMaker {
    cfg: MetConfig,
    nodes_to_change: usize,
    first_time: bool,
    last_remove: Option<SimTime>,
    degraded: bool,
    telemetry: Telemetry,
}

impl DecisionMaker {
    /// Creates a decision maker (Algorithm 1's `nodesToChange ← 1`,
    /// `firstTime ← true`).
    pub fn new(cfg: MetConfig) -> Self {
        cfg.validate().expect("invalid MeT configuration");
        DecisionMaker {
            cfg,
            nodes_to_change: 1,
            first_time: true,
            last_remove: None,
            degraded: false,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Routes the decision audit trail (health assessments, classification
    /// verdicts, computed plans) to `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// True while the decision maker is in degraded mode (monitoring data
    /// older than `stale_metrics_after`): it holds the last-known-good
    /// configuration and refuses to release capacity.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Degraded-mode gate: on stale data the decision maker holds the
    /// current (last-known-good) configuration outright. Returns the held
    /// decision, or `None` when the data is fresh enough to act on.
    fn check_degraded(&mut self, now: SimTime, report: &MonitorReport) -> Option<Decision> {
        if report.age > self.cfg.stale_metrics_after {
            if !self.degraded {
                self.degraded = true;
                self.telemetry.counter_add("met_degraded_entries_total", &[], 1);
                self.telemetry.emit(
                    now,
                    TelemetryEvent::DegradedMode {
                        entered: true,
                        age_ms: report.age.as_millis(),
                        detail: "monitoring data stale; holding last-known-good configuration \
                                 and vetoing scale-in"
                            .to_string(),
                    },
                );
            }
            return Some(Decision::Healthy);
        }
        if self.degraded {
            self.degraded = false;
            self.telemetry.emit(
                now,
                TelemetryEvent::DegradedMode {
                    entered: false,
                    age_ms: report.age.as_millis(),
                    detail: "fresh monitoring data restored".to_string(),
                },
            );
        }
        None
    }

    /// The latency-SLO gate: true when the configured p99 SLO exists and
    /// this server's smoothed p99 breaches it. A breaching server counts
    /// as overloaded, which both steers Stage B toward scale-out and — via
    /// [`HealthAssessment::remove`] requiring zero overloaded nodes —
    /// vetoes scale-in for as long as the breach lasts. Degraded-mode
    /// staleness rules still apply first: stale p99 data never triggers
    /// (or suppresses) anything, because [`DecisionMaker::decide`] holds
    /// the configuration before Stage A runs.
    fn slo_breached(&self, s: &crate::monitor::ServerLoad) -> bool {
        self.cfg.slo_p99_ms.map(|slo| s.p99_ms > slo).unwrap_or(false)
    }

    /// StageA: assess health from the smoothed report.
    pub fn assess(&self, report: &MonitorReport) -> HealthAssessment {
        let online = report.servers.len();
        let overloaded = report
            .servers
            .iter()
            .filter(|s| {
                s.cpu > self.cfg.cpu_high || s.io > self.cfg.io_high || self.slo_breached(s)
            })
            .count();
        let underloaded = report
            .servers
            .iter()
            .filter(|s| s.cpu < self.cfg.cpu_low && s.io < self.cfg.io_low && !self.slo_breached(s))
            .count();
        HealthAssessment { online, overloaded, underloaded }
    }

    /// Algorithm 1: the node-count delta for this iteration.
    fn node_delta(&mut self, health: &HealthAssessment) -> isize {
        if !self.cfg.allow_scaling {
            return 0; // fixed fleet: reconfiguration only
        }
        let over_threshold = health.overloaded as f64 / health.online.max(1) as f64
            > self.cfg.suboptimal_nodes_threshold;
        if over_threshold {
            let result = self.nodes_to_change as isize;
            self.nodes_to_change *= 2;
            result
        } else if self.first_time {
            0 // InitialReconfiguration
        } else if health.remove() {
            self.nodes_to_change = 1;
            if health.online > self.cfg.min_nodes {
                -1
            } else {
                0
            }
        } else if health.overloaded as f64 >= self.cfg.add_fraction * health.online as f64 {
            let result = self.nodes_to_change as isize;
            self.nodes_to_change *= 2;
            result
        } else {
            // Sparse overload: rebalance/reconfigure without new machines.
            self.nodes_to_change = 1;
            0
        }
    }

    /// Runs stages A–D. `now` gates the scale-down cooldown.
    pub fn decide(
        &mut self,
        now: SimTime,
        report: &MonitorReport,
        snapshot: &ClusterSnapshot,
    ) -> Decision {
        if let Some(held) = self.check_degraded(now, report) {
            self.telemetry.counter_add("met_decisions_total", &[("verdict", "degraded_hold")], 1);
            return held;
        }
        let decision = self.decide_inner(now, report, snapshot);
        let verdict = match &decision {
            Decision::Healthy => "healthy",
            Decision::Reconfigure(_) => "reconfigure",
        };
        self.telemetry.counter_add("met_decisions_total", &[("verdict", verdict)], 1);
        decision
    }

    fn decide_inner(
        &mut self,
        now: SimTime,
        report: &MonitorReport,
        snapshot: &ClusterSnapshot,
    ) -> Decision {
        let health = self.assess(report);
        self.emit_health(now, report, &health);
        if health.online == 0 {
            return Decision::Healthy;
        }
        if !health.suboptimal() && !self.first_time {
            // Healthy: stay in StageA and reset the quadratic ramp.
            self.nodes_to_change = 1;
            return Decision::Healthy;
        }
        if health.remove() {
            // Even moderately stale data (below the degraded threshold)
            // never justifies releasing capacity: a dropped round may be
            // hiding the load that needs those machines.
            if report.age > simcore::SimDuration::ZERO {
                self.telemetry.counter_add("met_scale_in_vetoes_total", &[], 1);
                return Decision::Healthy;
            }
            if health.online <= self.cfg.min_nodes && !self.first_time {
                return Decision::Healthy;
            }
            if let Some(last) = self.last_remove {
                if now.since(last) < self.cfg.remove_cooldown {
                    return Decision::Healthy;
                }
            }
        }

        // StageB.
        let first_time = self.first_time;
        let delta = self.node_delta(&health);
        self.telemetry.emit(
            now,
            TelemetryEvent::NodeDelta {
                current: health.online as u64,
                delta: delta as i64,
                overloaded: health.overloaded as u64,
                underloaded: health.underloaded as u64,
            },
        );
        self.first_time = false;
        let target_nodes = ((health.online as isize + delta).max(1) as usize)
            .clamp(self.cfg.min_nodes.min(health.online), self.cfg.max_nodes);

        // StageC: classification.
        let mut by_group: BTreeMap<ProfileKind, Vec<(cluster::PartitionId, f64)>> = BTreeMap::new();
        for p in &report.partitions {
            let kind = classify(p.rates, self.cfg.classify_threshold);
            if self.telemetry.is_enabled() {
                let total = p.rates.total();
                let frac = |v: f64| if total > 0.0 { v / total } else { 0.0 };
                self.telemetry.emit(
                    now,
                    TelemetryEvent::PartitionClassified {
                        partition: p.partition.0,
                        profile: kind.to_string(),
                        read_frac: frac(p.rates.reads),
                        write_frac: frac(p.rates.writes),
                        scan_frac: frac(p.rates.scans),
                        threshold: self.cfg.classify_threshold,
                    },
                );
            }
            by_group.entry(kind).or_default().push((p.partition, p.rates.total()));
        }
        let counts: BTreeMap<ProfileKind, usize> =
            by_group.iter().map(|(k, v)| (*k, v.len())).collect();
        let alloc = nodes_per_group(&counts, target_nodes);
        if alloc.is_empty() {
            return Decision::Healthy;
        }

        // StageC: grouping + assignment (Algorithm 2 per group). Groups
        // whose allocation was folded away merge into the read/write slots.
        let mut suggested: Vec<SuggestedNode> = Vec::new();
        let mut folded: Vec<(cluster::PartitionId, f64)> = Vec::new();
        for (kind, parts) in &by_group {
            if !alloc.contains_key(kind) {
                folded.extend(parts.iter().copied());
            }
        }
        for (kind, nodes) in &alloc {
            let mut parts = by_group.get(kind).cloned().unwrap_or_default();
            if *kind == ProfileKind::ReadWrite
                || (!alloc.contains_key(&ProfileKind::ReadWrite)
                    && Some(kind) == alloc.keys().next().as_ref().map(|k| *k))
            {
                parts.append(&mut folded);
            }
            for node in assign_lpt(&parts, *nodes) {
                suggested.push(SuggestedNode { profile: *kind, partitions: node.partitions });
            }
        }

        // StageD.
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
        let plan = compute_output(&current, suggested, first_time);
        if !plan.decommission.is_empty() {
            self.last_remove = Some(now);
        }
        if self.telemetry.is_enabled() {
            let mut groups: BTreeMap<String, u64> = BTreeMap::new();
            for (_, node) in &plan.entries {
                *groups.entry(node.profile.to_string()).or_insert(0) += 1;
            }
            self.telemetry.emit(
                now,
                TelemetryEvent::PlanComputed {
                    moves: plan.moves_required(&current) as u64,
                    restarts: plan.restarts_required(&current) as u64,
                    decommissions: plan.decommission.len() as u64,
                    groups: groups.into_iter().collect(),
                },
            );
        }
        Decision::Reconfigure(plan)
    }

    /// Emits the Stage A verdict with the per-server evidence: which
    /// servers crossed which thresholds.
    fn emit_health(&self, now: SimTime, report: &MonitorReport, health: &HealthAssessment) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let overloaded: Vec<u64> = report
            .servers
            .iter()
            .filter(|s| {
                s.cpu > self.cfg.cpu_high || s.io > self.cfg.io_high || self.slo_breached(s)
            })
            .map(|s| s.server.0)
            .collect();
        let underloaded: Vec<u64> = report
            .servers
            .iter()
            .filter(|s| s.cpu < self.cfg.cpu_low && s.io < self.cfg.io_low && !self.slo_breached(s))
            .map(|s| s.server.0)
            .collect();
        self.telemetry.emit(
            now,
            TelemetryEvent::HealthAssessed {
                online: health.online as u64,
                overloaded,
                underloaded,
                cpu_high: self.cfg.cpu_high,
                io_high: self.cfg.io_high,
                cpu_low: self.cfg.cpu_low,
                io_low: self.cfg.io_low,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::PartitionRates;
    use crate::monitor::{PartitionLoad, ServerLoad};
    use cluster::admin::{PartitionMetrics, ServerMetrics};
    use cluster::{PartitionCounters, PartitionId, ServerId};
    use hstore::StoreConfig;

    fn server_load(id: u64, cpu: f64, io: f64) -> ServerLoad {
        ServerLoad { server: ServerId(id), cpu, io, mem: 0.5, p99_ms: 0.0, locality: 1.0 }
    }

    fn part_load(id: u64, reads: f64, writes: f64, scans: f64) -> PartitionLoad {
        PartitionLoad {
            partition: PartitionId(id),
            rates: PartitionRates { reads, writes, scans },
            size_bytes: 1_000_000,
            assigned_to: Some(ServerId(1 + id % 2)),
        }
    }

    fn snapshot_for(report: &MonitorReport) -> ClusterSnapshot {
        let servers = report
            .servers
            .iter()
            .map(|s| ServerMetrics {
                server: s.server,
                health: ServerHealth::Online,
                cpu_util: s.cpu,
                io_wait: s.io,
                mem_util: s.mem,
                requests_per_sec: 100.0,
                p99_latency_ms: s.p99_ms,
                locality: s.locality,
                partitions: report
                    .partitions
                    .iter()
                    .filter(|p| p.assigned_to == Some(s.server))
                    .map(|p| p.partition)
                    .collect(),
                config: StoreConfig::default_homogeneous(),
            })
            .collect();
        let partitions = report
            .partitions
            .iter()
            .map(|p| PartitionMetrics {
                partition: p.partition,
                table: "t".into(),
                counters: PartitionCounters::default(),
                size_bytes: p.size_bytes,
                assigned_to: p.assigned_to,
                locality: 1.0,
                wal_backlog_bytes: 0,
                stall_ms: 0,
                frozen_memstores: 0,
                maintenance_debt_bytes: 0,
            })
            .collect();
        ClusterSnapshot { at: SimTime::ZERO, servers, partitions }
    }

    fn mixed_report(cpu: f64) -> MonitorReport {
        MonitorReport {
            servers: vec![server_load(1, cpu, 0.2), server_load(2, cpu, 0.2)],
            partitions: vec![
                part_load(1, 100.0, 0.0, 0.0),
                part_load(2, 0.0, 100.0, 0.0),
                part_load(3, 50.0, 50.0, 0.0),
                part_load(4, 0.0, 5.0, 95.0),
            ],
            age: simcore::SimDuration::ZERO,
        }
    }

    #[test]
    fn healthy_cluster_after_first_time_stays_put() {
        let mut dm = DecisionMaker::new(MetConfig::default());
        let report = mixed_report(0.5);
        let snap = snapshot_for(&report);
        // First invocation on a healthy-but-unconfigured cluster performs
        // the InitialReconfiguration.
        match dm.decide(SimTime::ZERO, &report, &snap) {
            Decision::Reconfigure(plan) => {
                assert!(plan.decommission.is_empty());
                assert_eq!(plan.entries.len(), 2);
            }
            Decision::Healthy => panic!("first time must reconfigure"),
        }
        // Second invocation, still healthy: nothing to do.
        assert!(matches!(dm.decide(SimTime::from_mins(5), &report, &snap), Decision::Healthy));
    }

    #[test]
    fn quadratic_growth_of_additions() {
        let cfg = MetConfig::default();
        let mut dm = DecisionMaker::new(cfg);
        // Every node overloaded → over the 50% threshold → straight add.
        let report = mixed_report(0.95);
        let snap = snapshot_for(&report);
        let sizes: Vec<usize> = (0..3)
            .map(|i| match dm.decide(SimTime::from_mins(i), &report, &snap) {
                Decision::Reconfigure(plan) => {
                    plan.entries.iter().filter(|(s, _)| s.is_none()).count()
                }
                Decision::Healthy => panic!("overloaded cluster must act"),
            })
            .collect();
        // 1, then 2, then 4 new nodes.
        assert_eq!(sizes, vec![1, 2, 4]);
    }

    #[test]
    fn ramp_resets_when_cluster_recovers() {
        let mut dm = DecisionMaker::new(MetConfig::default());
        let hot = mixed_report(0.95);
        let snap = snapshot_for(&hot);
        let _ = dm.decide(SimTime::ZERO, &hot, &snap);
        let _ = dm.decide(SimTime::from_mins(1), &hot, &snap);
        // Recovery.
        let ok = mixed_report(0.5);
        assert!(matches!(
            dm.decide(SimTime::from_mins(2), &ok, &snapshot_for(&ok)),
            Decision::Healthy
        ));
        // Next overload starts at 1 again.
        match dm.decide(SimTime::from_mins(3), &hot, &snap) {
            Decision::Reconfigure(plan) => {
                assert_eq!(plan.entries.iter().filter(|(s, _)| s.is_none()).count(), 1);
            }
            Decision::Healthy => panic!("must act"),
        }
    }

    #[test]
    fn underload_removes_one_node_linearly() {
        let mut dm = DecisionMaker::new(MetConfig::default());
        // Burn the first-time flag with an initial reconfiguration.
        let report = mixed_report(0.5);
        let _ = dm.decide(SimTime::ZERO, &report, &snapshot_for(&report));
        // All nodes idle.
        let idle = mixed_report(0.05);
        let snap = snapshot_for(&idle);
        match dm.decide(SimTime::from_mins(10), &idle, &snap) {
            Decision::Reconfigure(plan) => {
                assert_eq!(plan.decommission.len(), 1, "linear removal");
                assert_eq!(plan.entries.len(), 1);
            }
            Decision::Healthy => panic!("idle cluster should shrink"),
        }
        // Cooldown: an immediate second shrink is suppressed.
        assert!(matches!(dm.decide(SimTime::from_mins(11), &idle, &snap), Decision::Healthy));
        // After the cooldown it may shrink again.
        assert!(matches!(
            dm.decide(SimTime::from_mins(20), &idle, &snap),
            Decision::Reconfigure(_)
        ));
    }

    #[test]
    fn classification_drives_group_structure() {
        let mut dm = DecisionMaker::new(MetConfig::default());
        let mut report = mixed_report(0.5);
        // 8 partitions: 4 read, 4 write on 4 servers.
        report.servers = (1..=4).map(|i| server_load(i, 0.5, 0.2)).collect();
        report.partitions =
            (0..8)
                .map(|i| {
                    if i < 4 {
                        part_load(i, 100.0, 0.0, 0.0)
                    } else {
                        part_load(i, 0.0, 100.0, 0.0)
                    }
                })
                .collect();
        let snap = snapshot_for(&report);
        match dm.decide(SimTime::ZERO, &report, &snap) {
            Decision::Reconfigure(plan) => {
                let read_nodes =
                    plan.entries.iter().filter(|(_, s)| s.profile == ProfileKind::Read).count();
                let write_nodes =
                    plan.entries.iter().filter(|(_, s)| s.profile == ProfileKind::Write).count();
                assert_eq!(read_nodes, 2, "{plan:?}");
                assert_eq!(write_nodes, 2, "{plan:?}");
                // Every partition appears exactly once.
                let mut all: Vec<_> =
                    plan.entries.iter().flat_map(|(_, s)| s.partitions.iter().copied()).collect();
                all.sort();
                all.dedup();
                assert_eq!(all.len(), 8);
            }
            Decision::Healthy => panic!("first time must reconfigure"),
        }
    }

    #[test]
    fn max_nodes_caps_quadratic_growth() {
        let cfg = MetConfig { max_nodes: 4, ..MetConfig::default() };
        let mut dm = DecisionMaker::new(cfg);
        let report = mixed_report(0.95);
        let snap = snapshot_for(&report);
        // 2 online + clamp(…, 4): the ramp can never plan past 4 slots.
        for i in 0..4 {
            match dm.decide(SimTime::from_mins(i), &report, &snap) {
                Decision::Reconfigure(plan) => {
                    assert!(plan.entries.len() <= 4, "round {i}: {} slots", plan.entries.len());
                }
                Decision::Healthy => panic!("overloaded cluster must act"),
            }
        }
    }

    #[test]
    fn min_nodes_floor_blocks_removal() {
        let cfg = MetConfig { min_nodes: 2, ..MetConfig::default() };
        let mut dm = DecisionMaker::new(cfg);
        let report = mixed_report(0.5);
        let _ = dm.decide(SimTime::ZERO, &report, &snapshot_for(&report)); // first time
        let idle = mixed_report(0.05);
        let snap = snapshot_for(&idle);
        // Two online nodes = the floor: idle or not, no removal.
        match dm.decide(SimTime::from_mins(10), &idle, &snap) {
            Decision::Healthy => {}
            Decision::Reconfigure(plan) => {
                assert!(plan.decommission.is_empty(), "removed below the floor");
            }
        }
    }

    #[test]
    fn lone_hot_node_triggers_rebalance_not_growth() {
        // One node of five pegged (20 % < the 25 % add_fraction) → delta 0,
        // but the distribution algorithm still reshuffles.
        let mut dm = DecisionMaker::new(MetConfig::default());
        let mut report = mixed_report(0.5);
        report.servers = vec![
            server_load(1, 0.99, 0.99),
            server_load(2, 0.05, 0.05),
            server_load(3, 0.05, 0.05),
            server_load(4, 0.05, 0.05),
            server_load(5, 0.05, 0.05),
        ];
        for p in &mut report.partitions {
            p.assigned_to = Some(ServerId(1));
        }
        let snap = snapshot_for(&report);
        let _ = dm.decide(SimTime::ZERO, &report, &snap); // burn first_time
        match dm.decide(SimTime::from_mins(5), &report, &snap) {
            Decision::Reconfigure(plan) => {
                assert_eq!(
                    plan.entries.iter().filter(|(s, _)| s.is_none()).count(),
                    0,
                    "a lone hot node must not grow the fleet"
                );
                assert!(plan.decommission.is_empty());
            }
            Decision::Healthy => panic!("a pegged node is not healthy"),
        }
    }

    #[test]
    fn stale_metrics_hold_the_last_known_good_configuration() {
        let mut dm = DecisionMaker::new(MetConfig::default());
        let report = mixed_report(0.95);
        let snap = snapshot_for(&report);
        let _ = dm.decide(SimTime::ZERO, &report, &snap); // burn first_time
        assert!(!dm.degraded());
        // Metrics older than stale_metrics_after (90 s default): even a
        // badly overloaded report is held instead of acted on.
        let mut stale = mixed_report(0.95);
        stale.age = simcore::SimDuration::from_secs(120);
        assert!(matches!(dm.decide(SimTime::from_mins(5), &stale, &snap), Decision::Healthy));
        assert!(dm.degraded());
        // Fresh data leaves degraded mode and acts again.
        let fresh = mixed_report(0.95);
        match dm.decide(SimTime::from_mins(10), &fresh, &snap) {
            Decision::Reconfigure(_) => {}
            Decision::Healthy => panic!("fresh overload must act"),
        }
        assert!(!dm.degraded());
    }

    #[test]
    fn any_staleness_vetoes_scale_in() {
        let mut dm = DecisionMaker::new(MetConfig::default());
        let report = mixed_report(0.5);
        let _ = dm.decide(SimTime::ZERO, &report, &snapshot_for(&report)); // first time
                                                                           // All nodes idle, but the data is one dropped round old (30 s,
                                                                           // below the degraded threshold): no machine may be released.
        let mut idle = mixed_report(0.05);
        idle.age = simcore::SimDuration::from_secs(30);
        let snap = snapshot_for(&idle);
        assert!(matches!(dm.decide(SimTime::from_mins(10), &idle, &snap), Decision::Healthy));
        assert!(!dm.degraded(), "a single missed round is not degraded mode");
        // The same report with zero age shrinks as usual.
        let idle_fresh = mixed_report(0.05);
        match dm.decide(SimTime::from_mins(11), &idle_fresh, &snap) {
            Decision::Reconfigure(plan) => assert_eq!(plan.decommission.len(), 1),
            Decision::Healthy => panic!("fresh idle cluster should shrink"),
        }
    }

    #[test]
    fn slo_breach_vetoes_scale_in() {
        let cfg = MetConfig { slo_p99_ms: Some(100.0), ..MetConfig::default() };
        let mut dm = DecisionMaker::new(cfg);
        let report = mixed_report(0.5);
        let _ = dm.decide(SimTime::ZERO, &report, &snapshot_for(&report)); // first time
                                                                           // Idle CPUs, but one server's queue is past the SLO: an idle-looking
                                                                           // cluster must NOT release the machine the tail is hiding on.
        let mut idle = mixed_report(0.05);
        idle.servers[1].p99_ms = 250.0;
        let snap = snapshot_for(&idle);
        match dm.decide(SimTime::from_mins(10), &idle, &snap) {
            Decision::Healthy => {}
            Decision::Reconfigure(plan) => {
                assert!(plan.decommission.is_empty(), "SLO breach must veto scale-in: {plan:?}");
            }
        }
        // Once the tail recovers, normal rules resume and the idle cluster
        // shrinks as usual.
        let recovered = mixed_report(0.05);
        match dm.decide(SimTime::from_mins(20), &recovered, &snapshot_for(&recovered)) {
            Decision::Reconfigure(plan) => assert_eq!(plan.decommission.len(), 1),
            Decision::Healthy => panic!("recovered idle cluster should shrink"),
        }
    }

    #[test]
    fn slo_breach_prefers_scale_out() {
        let cfg = MetConfig { slo_p99_ms: Some(100.0), ..MetConfig::default() };
        let mut dm = DecisionMaker::new(cfg);
        let report = mixed_report(0.5);
        let _ = dm.decide(SimTime::ZERO, &report, &snapshot_for(&report)); // first time
                                                                           // Moderate CPU (below cpu_high) but both servers' p99 past the SLO:
                                                                           // over the suboptimal threshold → straight addition.
        let mut slow = mixed_report(0.5);
        for s in &mut slow.servers {
            s.p99_ms = 300.0;
        }
        let snap = snapshot_for(&slow);
        match dm.decide(SimTime::from_mins(5), &slow, &snap) {
            Decision::Reconfigure(plan) => {
                assert_eq!(
                    plan.entries.iter().filter(|(s, _)| s.is_none()).count(),
                    1,
                    "an SLO breach on every node must add capacity: {plan:?}"
                );
            }
            Decision::Healthy => panic!("SLO breach must act"),
        }
        // Without the SLO configured the same report is healthy.
        let mut dm_plain = DecisionMaker::new(MetConfig::default());
        let _ = dm_plain.decide(SimTime::ZERO, &report, &snapshot_for(&report));
        assert!(matches!(dm_plain.decide(SimTime::from_mins(5), &slow, &snap), Decision::Healthy));
    }

    #[test]
    fn stale_slo_breach_is_held_by_degraded_mode() {
        let cfg = MetConfig { slo_p99_ms: Some(100.0), ..MetConfig::default() };
        let mut dm = DecisionMaker::new(cfg);
        let report = mixed_report(0.5);
        let _ = dm.decide(SimTime::ZERO, &report, &snapshot_for(&report)); // first time
                                                                           // A breach reported by stale data must not trigger scale-out: the
                                                                           // degraded-mode hold runs before Stage A sees the p99.
        let mut stale = mixed_report(0.5);
        for s in &mut stale.servers {
            s.p99_ms = 500.0;
        }
        stale.age = simcore::SimDuration::from_secs(120);
        let snap = snapshot_for(&stale);
        assert!(matches!(dm.decide(SimTime::from_mins(5), &stale, &snap), Decision::Healthy));
        assert!(dm.degraded());
    }

    #[test]
    fn single_node_cluster_never_removes() {
        let mut dm = DecisionMaker::new(MetConfig::default());
        let mut report = mixed_report(0.05);
        report.servers = vec![server_load(1, 0.05, 0.05)];
        for p in &mut report.partitions {
            p.assigned_to = Some(ServerId(1));
        }
        let snap = snapshot_for(&report);
        let _ = dm.decide(SimTime::ZERO, &report, &snap); // first time
        match dm.decide(SimTime::from_mins(10), &report, &snap) {
            Decision::Healthy => {}
            Decision::Reconfigure(plan) => {
                assert!(plan.decommission.is_empty(), "must not remove the last node");
            }
        }
    }
}
