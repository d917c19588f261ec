//! The Actuator (§4.3, §5): carries a target layout into the running
//! cluster, incrementally.
//!
//! HBase cannot reconfigure a RegionServer online, so each reconfiguration
//! implies a restart. The actuator therefore proceeds server by server
//! while the rest of the cluster keeps serving (§5):
//!
//! 1. provision any new nodes (boots overlap),
//! 2. for each node whose profile changes: drain its partitions to the
//!    other online nodes, restart it with the new configuration, wait,
//!    then move in its final partitions,
//! 3. for nodes keeping their profile: just move in the final partitions,
//! 4. issue a major compact for every partition whose locality fell below
//!    its profile's threshold (70 % on write nodes, 90 % elsewhere),
//! 5. decommission surplus nodes.
//!
//! `advance` is called every simulation tick; steps that wait on
//! asynchronous state (boots, restarts) park until satisfied.
//!
//! # Fault tolerance
//!
//! Management calls against a real cluster fail: VM boots abort, RPCs get
//! lost, RegionServers crash mid-drain. Every step therefore carries a
//! retry budget with exponential backoff (`RETRY`); a step whose
//! target server vanished is abandoned immediately instead of being
//! retried into the void. Every retry and abandonment is booked on the
//! telemetry trail (`RetryScheduled`, `StepFailed` and their counters),
//! the control plane's one record of what it did. When the
//! step queue drains, a bounded reconciliation pass re-diffs the intended
//! plan against the actual cluster: partitions stranded on dead or
//! never-provisioned slots are redistributed to the surviving ones, and
//! unfinished restarts, placements, or decommissions are re-issued. With
//! no faults the reconcile diff is empty and the actuator behaves exactly
//! as the happy path describes.

use crate::output::OutputPlan;
use crate::profiles::ProfileKind;
use cluster::admin::{ClusterSnapshot, ElasticCluster, ServerHealth};
use cluster::{PartitionId, ServerId};
use hstore::StoreConfig;
use simcore::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use telemetry::{Telemetry, TelemetryEvent};

/// Cumulative actuator statistics (observable in experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActuatorStats {
    /// Partition moves issued.
    pub moves: u64,
    /// Server restarts issued.
    pub restarts: u64,
    /// Major compactions issued.
    pub compactions: u64,
    /// Servers provisioned.
    pub provisions: u64,
    /// Servers decommissioned.
    pub decommissions: u64,
    /// Steps abandoned after exhausting retries or losing their target.
    pub errors: u64,
    /// Step retries scheduled after transient failures.
    pub retries: u64,
}

/// Retry/backoff budget for a management step (the actuator's steps and
/// the framework's crash replacements).
pub(crate) struct RetryPolicy {
    /// Attempts before a step is abandoned (the first try counts).
    pub(crate) max_attempts: u32,
    /// Backoff after the first failure; doubles (by `multiplier`) after
    /// each subsequent one.
    pub(crate) base_backoff: SimDuration,
    /// Backoff growth factor per failed attempt.
    pub(crate) multiplier: f64,
    /// Wall-clock budget for asynchronous waits (VM boots, restarts);
    /// a wait still pending past this is abandoned as a timeout.
    pub(crate) step_timeout: SimDuration,
}

/// The budget every actuator step runs under.
pub(crate) const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 4,
    base_backoff: SimDuration::from_secs(2),
    multiplier: 2.0,
    step_timeout: SimDuration::from_secs(600),
};

/// One failed attempt at a step, as the audit trail records it.
pub(crate) struct Failure {
    /// Step kind (`provision`, `drain`, `restart`, `move_in`, `compact`,
    /// `decommission`, `replace_node`).
    pub(crate) action: &'static str,
    /// Server the step targeted, when known.
    pub(crate) server: Option<ServerId>,
    /// Partition involved, when the step was partition-scoped.
    pub(crate) partition: Option<PartitionId>,
    /// Failures so far, this one included.
    pub(crate) attempt: u32,
    /// The underlying error.
    pub(crate) cause: String,
}

impl RetryPolicy {
    /// Books `failure` on the trail: while the budget lasts, a
    /// `RetryScheduled` and the backoff before the next attempt (doubling
    /// from `base_backoff`); once it is spent, a `StepFailed` and `None`.
    pub(crate) fn retry_or_abandon(
        &self,
        telemetry: &Telemetry,
        now: SimTime,
        failure: Failure,
    ) -> Option<SimDuration> {
        if failure.attempt >= self.max_attempts {
            abandon(telemetry, now, failure);
            return None;
        }
        let factor = self.multiplier.powi(failure.attempt.saturating_sub(1) as i32);
        let backoff = SimDuration::from_secs_f64(self.base_backoff.as_secs_f64() * factor);
        let Failure { action, server, partition, attempt, cause } = failure;
        telemetry.counter_add("met_step_retries_total", &[("action", action)], 1);
        telemetry.emit(
            now,
            TelemetryEvent::RetryScheduled {
                action: action.to_string(),
                server: server.map(|s| s.0),
                partition: partition.map(|p| p.0),
                attempt: attempt as u64,
                backoff_ms: backoff.as_millis(),
                error: cause,
            },
        );
        Some(backoff)
    }
}

/// Books a step given up on: the abandonment counter and a `StepFailed`.
fn abandon(telemetry: &Telemetry, now: SimTime, failure: Failure) {
    let Failure { action, server, partition, attempt, cause } = failure;
    telemetry.counter_add("met_steps_abandoned_total", &[("action", action)], 1);
    telemetry.emit(
        now,
        TelemetryEvent::StepFailed {
            action: action.to_string(),
            server: server.map(|s| s.0),
            partition: partition.map(|p| p.0),
            attempts: attempt as u64,
            error: cause,
        },
    );
}

#[derive(Debug, Clone)]
struct Slot {
    server: Option<ServerId>,
    profile: ProfileKind,
    partitions: Vec<PartitionId>,
    needs_restart: bool,
    /// The slot's server crashed or never provisioned; its remaining
    /// steps are skipped and reconciliation redistributes its partitions.
    lost: bool,
    /// Partitions already sent to compaction for this slot, so a retried
    /// compact step does not re-issue them.
    compacted: Vec<PartitionId>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Provision { slot: usize },
    AwaitOnline { slot: usize },
    Drain { slot: usize },
    Restart { slot: usize },
    AwaitRestart { slot: usize },
    MoveIn { slot: usize },
    Compact { slot: usize },
    Decommission { server: ServerId },
}

impl Step {
    fn slot(self) -> Option<usize> {
        match self {
            Step::Provision { slot }
            | Step::AwaitOnline { slot }
            | Step::Drain { slot }
            | Step::Restart { slot }
            | Step::AwaitRestart { slot }
            | Step::MoveIn { slot }
            | Step::Compact { slot } => Some(slot),
            Step::Decommission { .. } => None,
        }
    }
}

/// A queued step plus its retry bookkeeping.
#[derive(Debug, Clone, Copy)]
struct StepState {
    step: Step,
    attempts: u32,
    /// The step parks until the simulation clock reaches this (backoff).
    not_before: SimTime,
    /// Abandon-by time for asynchronous waits, set on first processing.
    deadline: Option<SimTime>,
}

impl StepState {
    fn new(step: Step) -> Self {
        StepState { step, attempts: 0, not_before: SimTime::ZERO, deadline: None }
    }
}

/// Reconciliation passes per plan; keeps a pathological cluster from
/// pinning the actuator in a re-diff loop forever.
const MAX_RECONCILE_ROUNDS: u32 = 3;

/// The actuator: a step queue over one plan.
#[derive(Debug)]
pub struct Actuator {
    base_config: StoreConfig,
    slots: Vec<Slot>,
    steps: VecDeque<StepState>,
    stats: ActuatorStats,
    decommission: Vec<ServerId>,
    reconcile_rounds: u32,
    telemetry: Telemetry,
    /// Start time of each in-flight action, keyed by (slot, action name).
    started: BTreeMap<(usize, &'static str), SimTime>,
}

impl Actuator {
    /// Creates an idle actuator. `base_config` supplies the non-Table-1
    /// parameters (heap size etc.) for every profile it deploys.
    pub fn new(base_config: StoreConfig) -> Self {
        Actuator {
            base_config,
            slots: Vec::new(),
            steps: VecDeque::new(),
            stats: ActuatorStats::default(),
            decommission: Vec::new(),
            reconcile_rounds: 0,
            telemetry: Telemetry::disabled(),
            started: BTreeMap::new(),
        }
    }

    /// Routes the action audit trail (step starts/completions, provisions,
    /// decommissions, retries) to `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Emits `ActionStarted` once per (slot, action), remembering the start
    /// time so the matching completion can report a duration.
    fn begin_action(
        &mut self,
        now: SimTime,
        slot: usize,
        action: &'static str,
        server: ServerId,
        partition: Option<PartitionId>,
        detail: String,
    ) {
        if !self.telemetry.is_enabled() || self.started.contains_key(&(slot, action)) {
            return;
        }
        self.started.insert((slot, action), now);
        self.telemetry.counter_add("met_actions_total", &[("action", action)], 1);
        self.telemetry.emit(
            now,
            TelemetryEvent::ActionStarted {
                action: action.to_string(),
                server: server.0,
                partition: partition.map(|p| p.0),
                detail,
            },
        );
    }

    /// Emits `ActionCompleted` with the simulated duration since the
    /// matching [`begin_action`](Actuator::begin_action).
    fn finish_action(
        &mut self,
        now: SimTime,
        slot: usize,
        action: &'static str,
        server: ServerId,
        partition: Option<PartitionId>,
    ) {
        let Some(start) = self.started.remove(&(slot, action)) else { return };
        let duration_ms = now.since(start).as_millis();
        self.telemetry.observe("met_action_duration_ms", &[("action", action)], duration_ms as f64);
        self.telemetry.emit(
            now,
            TelemetryEvent::ActionCompleted {
                action: action.to_string(),
                server: server.0,
                partition: partition.map(|p| p.0),
                duration_ms,
            },
        );
    }

    /// True while a plan is executing.
    pub fn busy(&self) -> bool {
        !self.steps.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> ActuatorStats {
        self.stats
    }

    /// Compiles a plan into the step queue.
    ///
    /// # Panics
    ///
    /// Panics if a plan is already executing.
    pub fn start(&mut self, plan: OutputPlan, snapshot: &ClusterSnapshot) {
        assert!(!self.busy(), "actuator already executing a plan");
        self.slots = plan
            .entries
            .iter()
            .map(|(server, slot)| {
                let needs_restart = match server {
                    Some(s) => snapshot
                        .server(*s)
                        .map(|m| ProfileKind::of_config(&m.config) != Some(slot.profile))
                        .unwrap_or(true),
                    None => false, // new nodes boot with the right profile
                };
                Slot {
                    server: *server,
                    profile: slot.profile,
                    partitions: slot.partitions.clone(),
                    needs_restart,
                    lost: false,
                    compacted: Vec::new(),
                }
            })
            .collect();

        self.steps.clear();
        self.started.clear();
        self.reconcile_rounds = 0;
        // Boot all new nodes first so their delays overlap.
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.server.is_none() {
                self.steps.push_back(StepState::new(Step::Provision { slot: i }));
            }
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.server.is_none() {
                self.steps.push_back(StepState::new(Step::AwaitOnline { slot: i }));
            }
        }
        // Reconfigure existing nodes one at a time (incremental, §5).
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.server.is_some() && slot.needs_restart {
                self.steps.push_back(StepState::new(Step::Drain { slot: i }));
                self.steps.push_back(StepState::new(Step::Restart { slot: i }));
                self.steps.push_back(StepState::new(Step::AwaitRestart { slot: i }));
                self.steps.push_back(StepState::new(Step::MoveIn { slot: i }));
                self.steps.push_back(StepState::new(Step::Compact { slot: i }));
            }
        }
        // Then pure placement changes (no restart).
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.server.is_none() || !slot.needs_restart {
                self.steps.push_back(StepState::new(Step::MoveIn { slot: i }));
                self.steps.push_back(StepState::new(Step::Compact { slot: i }));
            }
        }
        self.decommission = plan.decommission.clone();
        for server in plan.decommission {
            self.steps.push_back(StepState::new(Step::Decommission { server }));
        }
    }

    /// Gives up on the front step at once (its target is gone or its wait
    /// timed out) and pops it.
    fn abandon_step(
        &mut self,
        now: SimTime,
        action: &'static str,
        server: ServerId,
        cause: String,
    ) {
        let st = self.steps.pop_front().expect("abandoning the front step");
        self.stats.errors += 1;
        let attempt = st.attempts + 1;
        let failure = Failure { action, server: Some(server), partition: None, attempt, cause };
        abandon(&self.telemetry, now, failure);
    }

    /// Books a failure against the front step: schedules a backoff retry,
    /// or abandons and pops it once the budget is spent. Returns `true`
    /// when the step was abandoned.
    fn fail_step(
        &mut self,
        now: SimTime,
        action: &'static str,
        server: Option<ServerId>,
        partition: Option<PartitionId>,
        cause: String,
    ) -> bool {
        let st = self.steps.front_mut().expect("failing the front step");
        st.attempts += 1;
        let failure = Failure { action, server, partition, attempt: st.attempts, cause };
        match RETRY.retry_or_abandon(&self.telemetry, now, failure) {
            Some(backoff) => {
                st.not_before = now + backoff;
                self.stats.retries += 1;
                false
            }
            None => {
                self.stats.errors += 1;
                self.steps.pop_front();
                true
            }
        }
    }

    /// Executes ready steps; returns `true` when the plan has completed.
    pub fn advance(&mut self, cluster: &mut dyn ElasticCluster) -> bool {
        let now = cluster.now();
        loop {
            let Some(front) = self.steps.front() else {
                if self.reconcile(cluster) {
                    continue;
                }
                return true;
            };
            if now < front.not_before {
                return false; // backing off after a failure
            }
            let step = front.step;
            if let Some(slot) = step.slot() {
                if self.slots[slot].lost {
                    self.steps.pop_front();
                    continue;
                }
            }
            match step {
                Step::Provision { slot } => {
                    let profile = self.slots[slot].profile;
                    let config = profile.config(&self.base_config);
                    match cluster.provision_server(config) {
                        Ok(id) => {
                            self.slots[slot].server = Some(id);
                            self.stats.provisions += 1;
                            self.begin_action(
                                now,
                                slot,
                                "provision",
                                id,
                                None,
                                format!("profile={profile}"),
                            );
                            self.telemetry.emit(
                                now,
                                TelemetryEvent::NodeProvisioned {
                                    server: id.0,
                                    profile: profile.to_string(),
                                },
                            );
                            self.steps.pop_front();
                        }
                        Err(e) => {
                            if self.fail_step(now, "provision", None, None, e.to_string()) {
                                self.slots[slot].lost = true;
                            }
                        }
                    }
                }
                Step::AwaitOnline { slot } => {
                    let Some(server) = self.slots[slot].server else {
                        // Provisioning was abandoned; nothing to wait for.
                        self.steps.pop_front();
                        continue;
                    };
                    match cluster.health_view().server(server).map(|s| s.health) {
                        Some(ServerHealth::Online) => {
                            self.finish_action(now, slot, "provision", server, None);
                            self.steps.pop_front();
                        }
                        Some(ServerHealth::Provisioning) => {
                            let deadline = {
                                let st = self.steps.front_mut().expect("front checked");
                                *st.deadline.get_or_insert(now + RETRY.step_timeout)
                            };
                            if now >= deadline {
                                self.abandon_step(
                                    now,
                                    "provision",
                                    server,
                                    format!("{server} still provisioning at step timeout"),
                                );
                                self.slots[slot].lost = true;
                                continue;
                            }
                            return false;
                        }
                        _ => {
                            self.abandon_step(
                                now,
                                "provision",
                                server,
                                format!("{server} never came online"),
                            );
                            self.slots[slot].lost = true;
                        }
                    }
                }
                Step::Drain { slot } => {
                    let Some(server) = self.slots[slot].server else {
                        self.steps.pop_front();
                        continue;
                    };
                    let snap = cluster.snapshot();
                    let Some(meta) = snap.server(server) else {
                        self.abandon_step(
                            now,
                            "drain",
                            server,
                            format!("{server} crashed while draining"),
                        );
                        self.slots[slot].lost = true;
                        continue;
                    };
                    let held = meta.partitions.clone();
                    // HBase moves regions one at a time; stagger one move
                    // per tick so availability dips stay shallow (§5's
                    // incremental strategy).
                    let Some(&p) = held.first() else {
                        self.finish_action(now, slot, "drain", server, None);
                        self.steps.pop_front();
                        continue;
                    };
                    self.begin_action(
                        now,
                        slot,
                        "drain",
                        server,
                        None,
                        format!("{} partitions to drain before restart", held.len()),
                    );
                    let target = self.final_destination(p, server, &snap);
                    if let Some(t) = target {
                        match cluster.move_partition(p, t) {
                            Ok(()) => {
                                self.stats.moves += 1;
                                self.steps.front_mut().expect("front checked").attempts = 0;
                            }
                            Err(e) => {
                                self.fail_step(
                                    now,
                                    "drain",
                                    Some(server),
                                    Some(p),
                                    format!("drain move {p} failed: {e}"),
                                );
                                continue;
                            }
                        }
                    } else {
                        self.finish_action(now, slot, "drain", server, None);
                        self.steps.pop_front();
                        continue;
                    }
                    if held.len() > 1 {
                        return false; // continue draining next tick
                    }
                    self.finish_action(now, slot, "drain", server, None);
                    self.steps.pop_front();
                }
                Step::Restart { slot } => {
                    let Some(server) = self.slots[slot].server else {
                        self.steps.pop_front();
                        continue;
                    };
                    let profile = self.slots[slot].profile;
                    match cluster.restart_server(server, profile.config(&self.base_config)) {
                        Ok(()) => {
                            self.stats.restarts += 1;
                            self.begin_action(
                                now,
                                slot,
                                "restart",
                                server,
                                None,
                                format!("reconfigure to profile={profile}"),
                            );
                            self.steps.pop_front();
                        }
                        Err(e) => {
                            if cluster.health_view().server(server).is_none() {
                                self.abandon_step(
                                    now,
                                    "restart",
                                    server,
                                    format!("{server} gone before restart: {e}"),
                                );
                                self.slots[slot].lost = true;
                            } else {
                                self.fail_step(now, "restart", Some(server), None, e.to_string());
                            }
                        }
                    }
                }
                Step::AwaitRestart { slot } => {
                    let Some(server) = self.slots[slot].server else {
                        self.steps.pop_front();
                        continue;
                    };
                    match cluster.health_view().server(server).map(|s| s.health) {
                        Some(ServerHealth::Online) => {
                            self.finish_action(now, slot, "restart", server, None);
                            self.steps.pop_front();
                        }
                        Some(ServerHealth::Restarting) => {
                            let deadline = {
                                let st = self.steps.front_mut().expect("front checked");
                                *st.deadline.get_or_insert(now + RETRY.step_timeout)
                            };
                            if now >= deadline {
                                self.abandon_step(
                                    now,
                                    "restart",
                                    server,
                                    format!("{server} still restarting at step timeout"),
                                );
                                self.slots[slot].lost = true;
                                continue;
                            }
                            return false;
                        }
                        _ => {
                            self.abandon_step(
                                now,
                                "restart",
                                server,
                                format!("{server} lost during restart"),
                            );
                            self.slots[slot].lost = true;
                        }
                    }
                }
                Step::MoveIn { slot } => {
                    let Some(server) = self.slots[slot].server else {
                        self.steps.pop_front();
                        continue;
                    };
                    let snap = cluster.snapshot();
                    if snap.server(server).is_none() {
                        self.abandon_step(
                            now,
                            "move_in",
                            server,
                            format!("{server} crashed before its partitions arrived"),
                        );
                        self.slots[slot].lost = true;
                        continue;
                    }
                    // One staggered move per tick (see Drain).
                    let pending: Vec<PartitionId> = self.slots[slot]
                        .partitions
                        .iter()
                        .filter(|p| {
                            snap.partitions
                                .iter()
                                .find(|m| m.partition == **p)
                                .and_then(|m| m.assigned_to)
                                != Some(server)
                        })
                        .copied()
                        .collect();
                    let Some(&p) = pending.first() else {
                        self.finish_action(now, slot, "move_in", server, None);
                        self.steps.pop_front();
                        continue;
                    };
                    self.begin_action(
                        now,
                        slot,
                        "move_in",
                        server,
                        Some(p),
                        format!("{} partitions to place on final node", pending.len()),
                    );
                    match cluster.move_partition(p, server) {
                        Ok(()) => {
                            self.stats.moves += 1;
                            self.steps.front_mut().expect("front checked").attempts = 0;
                        }
                        Err(e) => {
                            self.fail_step(
                                now,
                                "move_in",
                                Some(server),
                                Some(p),
                                format!("move {p} -> {server} failed: {e}"),
                            );
                            continue;
                        }
                    }
                    if pending.len() > 1 {
                        return false;
                    }
                    self.finish_action(now, slot, "move_in", server, None);
                    self.steps.pop_front();
                }
                Step::Compact { slot } => {
                    let Some(server) = self.slots[slot].server else {
                        self.steps.pop_front();
                        continue;
                    };
                    let threshold = self.slots[slot].profile.locality_threshold();
                    let snap = cluster.snapshot();
                    if snap.server(server).is_none() {
                        // Nothing to compact on a dead node; reconciliation
                        // will pick up its partitions.
                        self.slots[slot].lost = true;
                        self.steps.pop_front();
                        continue;
                    }
                    let victims: Vec<(PartitionId, f64)> = snap
                        .partitions
                        .iter()
                        .filter(|m| {
                            m.assigned_to == Some(server)
                                && m.locality < threshold
                                && !self.slots[slot].compacted.contains(&m.partition)
                        })
                        .map(|m| (m.partition, m.locality))
                        .collect();
                    let mut failed = false;
                    for (p, locality) in victims {
                        match cluster.major_compact(p) {
                            Ok(()) => {
                                self.slots[slot].compacted.push(p);
                                self.stats.compactions += 1;
                                self.telemetry.counter_add(
                                    "met_actions_total",
                                    &[("action", "compact")],
                                    1,
                                );
                                self.telemetry.emit(
                                    now,
                                    TelemetryEvent::ActionStarted {
                                        action: "compact".to_string(),
                                        server: server.0,
                                        partition: Some(p.0),
                                        detail: format!(
                                            "locality {locality:.3} < threshold {threshold:.3}"
                                        ),
                                    },
                                );
                            }
                            Err(e) => {
                                self.fail_step(
                                    now,
                                    "compact",
                                    Some(server),
                                    Some(p),
                                    format!("compact {p} failed: {e}"),
                                );
                                failed = true;
                                break;
                            }
                        }
                    }
                    if failed {
                        continue; // retry (or abandonment) already booked
                    }
                    self.steps.pop_front();
                }
                Step::Decommission { server } => {
                    match cluster.decommission_server(server) {
                        Ok(()) => {
                            self.stats.decommissions += 1;
                            self.telemetry.counter_add(
                                "met_actions_total",
                                &[("action", "decommission")],
                                1,
                            );
                            self.telemetry.emit(
                                now,
                                TelemetryEvent::ActionStarted {
                                    action: "decommission".to_string(),
                                    server: server.0,
                                    partition: None,
                                    detail: "surplus node released".to_string(),
                                },
                            );
                            self.telemetry
                                .emit(now, TelemetryEvent::NodeDecommissioned { server: server.0 });
                            self.steps.pop_front();
                        }
                        Err(e) => {
                            if cluster.health_view().server(server).is_none() {
                                // Already gone (crashed): the goal is met.
                                self.steps.pop_front();
                            } else {
                                self.fail_step(
                                    now,
                                    "decommission",
                                    Some(server),
                                    None,
                                    e.to_string(),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Re-diffs the intended plan against the actual cluster after the
    /// step queue drained: partitions of dead slots move to surviving
    /// slots, and unfinished restarts, placements, or decommissions are
    /// re-enqueued. Returns `true` when new steps were issued. The diff
    /// is empty on a fault-free run, and the pass is bounded by
    /// [`MAX_RECONCILE_ROUNDS`] per plan.
    fn reconcile(&mut self, cluster: &mut dyn ElasticCluster) -> bool {
        if self.reconcile_rounds >= MAX_RECONCILE_ROUNDS {
            return false;
        }
        let now = cluster.now();
        let snap = cluster.snapshot();

        // Collect partitions stranded on slots whose server crashed or
        // never provisioned, and mark those slots lost for good.
        let mut stranded: Vec<PartitionId> = Vec::new();
        for slot in &mut self.slots {
            let alive =
                !slot.lost && slot.server.map(|s| snap.server(s).is_some()).unwrap_or(false);
            if !alive {
                slot.lost = true;
                stranded.append(&mut slot.partitions);
            }
        }
        let mut redistributed = 0u64;
        let mut abandoned = 0u64;
        for p in stranded {
            let target = (0..self.slots.len())
                .filter(|i| !self.slots[*i].lost)
                .min_by_key(|i| (self.slots[*i].partitions.len(), *i));
            match target {
                Some(i) => {
                    self.slots[i].partitions.push(p);
                    redistributed += 1;
                }
                None => abandoned += 1,
            }
        }

        // Re-diff each surviving slot against the snapshot.
        let mut reissued = 0u64;
        for i in 0..self.slots.len() {
            if self.slots[i].lost {
                continue;
            }
            let Some(server) = self.slots[i].server else { continue };
            let Some(meta) = snap.server(server) else { continue };
            let profile_ok = ProfileKind::of_config(&meta.config) == Some(self.slots[i].profile);
            let missing = self.slots[i].partitions.iter().any(|p| {
                snap.partitions.iter().find(|m| m.partition == *p).and_then(|m| m.assigned_to)
                    != Some(server)
            });
            if !profile_ok {
                self.slots[i].needs_restart = true;
                self.steps.push_back(StepState::new(Step::Drain { slot: i }));
                self.steps.push_back(StepState::new(Step::Restart { slot: i }));
                self.steps.push_back(StepState::new(Step::AwaitRestart { slot: i }));
                reissued += 3;
            }
            if !profile_ok || missing {
                self.steps.push_back(StepState::new(Step::MoveIn { slot: i }));
                reissued += 1;
            }
        }

        // Decommissions that never landed (and whose target still exists).
        for server in self.decommission.clone() {
            if snap.server(server).is_some() {
                self.steps.push_back(StepState::new(Step::Decommission { server }));
                reissued += 1;
            }
        }

        if reissued == 0 && redistributed == 0 && abandoned == 0 {
            return false;
        }
        self.reconcile_rounds += 1;
        self.telemetry.counter_add("met_plan_reconciles_total", &[], 1);
        self.telemetry.emit(
            now,
            TelemetryEvent::PlanReconciled {
                round: self.reconcile_rounds as u64,
                reissued,
                redistributed,
                abandoned,
            },
        );
        !self.steps.is_empty()
    }

    /// Where to park a partition drained off `from`: its final slot's
    /// server when that is online and different, otherwise the online
    /// server with the fewest partitions.
    fn final_destination(
        &self,
        p: PartitionId,
        from: ServerId,
        snap: &ClusterSnapshot,
    ) -> Option<ServerId> {
        let final_home = self
            .slots
            .iter()
            .find(|s| s.partitions.contains(&p))
            .and_then(|s| s.server)
            .filter(|s| {
                *s != from
                    && snap.server(*s).map(|m| m.health == ServerHealth::Online).unwrap_or(false)
            });
        if final_home.is_some() {
            return final_home;
        }
        snap.servers
            .iter()
            .filter(|s| s.health == ServerHealth::Online && s.server != from)
            .min_by_key(|s| (s.partitions.len(), s.server))
            .map(|s| s.server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::{compute_output, CurrentNode, SuggestedNode};
    use cluster::{ClientGroup, CostParams, OpMix, PartitionSpec, SimCluster};
    use simcore::fault::{FaultOp, FaultSpec, ScheduledFault};
    use simcore::{FaultPlan, SimDuration};
    use telemetry::Verbosity;

    /// An idle actuator reporting to a ring trail, and the trail.
    fn traced_actuator() -> (Actuator, Telemetry) {
        let trail = Telemetry::with_ring(Verbosity::Debug, 4_096);
        let mut actuator = Actuator::new(StoreConfig::default_homogeneous());
        actuator.set_telemetry(trail.clone());
        (actuator, trail)
    }

    /// The trail as JSON lines, for failure messages.
    fn lines(trail: &Telemetry) -> Vec<String> {
        trail.events().iter().map(|e| e.to_json_line()).collect()
    }

    /// `(action, attempt, backoff_ms)` of every scheduled retry.
    fn retries(trail: &Telemetry) -> Vec<(String, u64, u64)> {
        trail
            .events()
            .into_iter()
            .filter_map(|e| match e.data {
                TelemetryEvent::RetryScheduled { action, attempt, backoff_ms, .. } => {
                    Some((action, attempt, backoff_ms))
                }
                _ => None,
            })
            .collect()
    }

    /// `(action, server, attempts)` of every abandoned step.
    fn failures(trail: &Telemetry) -> Vec<(String, Option<u64>, u64)> {
        trail
            .events()
            .into_iter()
            .filter_map(|e| match e.data {
                TelemetryEvent::StepFailed { action, server, attempts, .. } => {
                    Some((action, server, attempts))
                }
                _ => None,
            })
            .collect()
    }

    fn sim_with(servers: usize, partitions: usize) -> (SimCluster, Vec<PartitionId>) {
        let mut sim = SimCluster::new(CostParams::default(), 5);
        for _ in 0..servers {
            sim.add_server_immediate(StoreConfig::default_homogeneous());
        }
        let parts: Vec<PartitionId> = (0..partitions)
            .map(|_| {
                sim.create_partition(PartitionSpec {
                    table: "t".into(),
                    size_bytes: 5e8,
                    record_bytes: 1_000.0,
                    hot_set_fraction: 0.4,
                    hot_ops_fraction: 0.5,
                })
            })
            .collect();
        sim.random_balance_unassigned();
        let w = 1.0 / partitions as f64;
        sim.add_group(ClientGroup::with_common_weights(
            "g",
            20.0,
            0.5,
            None,
            OpMix::new(0.5, 0.5, 0.0),
            parts.iter().map(|p| (*p, w)).collect(),
            1.0,
            0.0,
        ));
        (sim, parts)
    }

    fn drive(actuator: &mut Actuator, sim: &mut SimCluster, max_ticks: usize) {
        for _ in 0..max_ticks {
            sim.step();
            if actuator.advance(sim) {
                return;
            }
        }
        panic!("actuator did not finish within {max_ticks} ticks");
    }

    #[test]
    fn executes_full_reconfiguration() {
        let (mut sim, parts) = sim_with(2, 4);
        let snap = sim.snapshot();
        let current: Vec<CurrentNode> = snap
            .servers
            .iter()
            .map(|s| CurrentNode {
                server: s.server,
                profile: ProfileKind::of_config(&s.config),
                partitions: s.partitions.clone(),
            })
            .collect();
        let suggested = vec![
            SuggestedNode { profile: ProfileKind::Read, partitions: vec![parts[0], parts[1]] },
            SuggestedNode { profile: ProfileKind::Write, partitions: vec![parts[2], parts[3]] },
        ];
        let plan = compute_output(&current, suggested, true);
        let (mut actuator, trail) = traced_actuator();
        actuator.start(plan, &snap);
        assert!(actuator.busy());
        drive(&mut actuator, &mut sim, 300);
        assert!(!actuator.busy());
        let stats = actuator.stats();
        assert_eq!(stats.restarts, 2, "{stats:?}\n{:#?}", lines(&trail));
        assert_eq!(stats.errors, 0, "{:#?}", lines(&trail));
        assert_eq!(stats.retries, 0, "{:#?}", lines(&trail));
        // Final layout matches the plan.
        let snap = sim.snapshot();
        for s in &snap.servers {
            let profile = ProfileKind::of_config(&s.config);
            assert!(profile.is_some(), "server {} not on a Table-1 profile", s.server);
        }
        let read_server = snap
            .servers
            .iter()
            .find(|s| ProfileKind::of_config(&s.config) == Some(ProfileKind::Read))
            .unwrap();
        let mut held = read_server.partitions.clone();
        held.sort();
        assert_eq!(held, vec![parts[0], parts[1]]);
        // Both restarts completed on the trail; nothing was retried or
        // abandoned.
        let restarts = trail
            .events()
            .iter()
            .filter(|e| {
                matches!(&e.data, TelemetryEvent::ActionCompleted { action, .. } if action == "restart")
            })
            .count();
        assert_eq!(restarts, 2, "{:#?}", lines(&trail));
        assert!(retries(&trail).is_empty() && failures(&trail).is_empty());
    }

    #[test]
    fn provisions_new_nodes_with_profiles() {
        let (mut sim, parts) = sim_with(1, 2);
        sim.set_provision_delay(SimDuration::from_secs(30));
        let snap = sim.snapshot();
        let plan = compute_output(
            &[CurrentNode {
                server: snap.servers[0].server,
                profile: None,
                partitions: snap.servers[0].partitions.clone(),
            }],
            vec![
                SuggestedNode { profile: ProfileKind::ReadWrite, partitions: vec![parts[0]] },
                SuggestedNode { profile: ProfileKind::Write, partitions: vec![parts[1]] },
            ],
            false,
        );
        assert_eq!(plan.entries.iter().filter(|(s, _)| s.is_none()).count(), 1);
        let (mut actuator, trail) = traced_actuator();
        actuator.start(plan, &snap);
        drive(&mut actuator, &mut sim, 300);
        let stats = actuator.stats();
        assert_eq!(stats.provisions, 1);
        assert_eq!(stats.errors, 0, "{:#?}", lines(&trail));
        assert_eq!(sim.online_server_ids().len(), 2);
    }

    #[test]
    fn decommission_happens_last() {
        let (mut sim, parts) = sim_with(3, 3);
        let snap = sim.snapshot();
        let victim = snap.servers[2].server;
        let keep: Vec<ServerId> = vec![snap.servers[0].server, snap.servers[1].server];
        let plan = crate::output::OutputPlan {
            entries: vec![
                (
                    Some(keep[0]),
                    SuggestedNode {
                        profile: ProfileKind::ReadWrite,
                        partitions: vec![parts[0], parts[1]],
                    },
                ),
                (
                    Some(keep[1]),
                    SuggestedNode { profile: ProfileKind::ReadWrite, partitions: vec![parts[2]] },
                ),
            ],
            decommission: vec![victim],
        };
        let mut actuator = Actuator::new(StoreConfig::default_homogeneous());
        actuator.start(plan, &snap);
        drive(&mut actuator, &mut sim, 400);
        assert_eq!(actuator.stats().decommissions, 1);
        assert_eq!(sim.online_server_ids().len(), 2);
        // No partition stranded on the dead server.
        for p in &parts {
            assert_ne!(sim.partition_server(*p), Some(victim));
        }
    }

    #[test]
    fn provision_failure_retried_with_backoff() {
        let (mut sim, parts) = sim_with(1, 2);
        sim.set_provision_delay(SimDuration::from_secs(30));
        // Two scripted boot failures; the third attempt succeeds.
        sim.set_fault_injector(
            FaultPlan::new(vec![
                ScheduledFault { at: SimTime::ZERO, spec: FaultSpec::ProvisionFail },
                ScheduledFault { at: SimTime::from_secs(3), spec: FaultSpec::ProvisionFail },
            ])
            .injector(),
        );
        let snap = sim.snapshot();
        let plan = compute_output(
            &[CurrentNode {
                server: snap.servers[0].server,
                profile: None,
                partitions: snap.servers[0].partitions.clone(),
            }],
            vec![
                SuggestedNode { profile: ProfileKind::ReadWrite, partitions: vec![parts[0]] },
                SuggestedNode { profile: ProfileKind::Write, partitions: vec![parts[1]] },
            ],
            false,
        );
        let (mut actuator, trail) = traced_actuator();
        actuator.start(plan, &snap);
        drive(&mut actuator, &mut sim, 400);
        let stats = actuator.stats();
        assert_eq!(stats.retries, 2, "{:#?}", lines(&trail));
        assert_eq!(stats.provisions, 1, "{:#?}", lines(&trail));
        assert_eq!(stats.errors, 0, "the slot must not be dropped: {:#?}", lines(&trail));
        assert_eq!(sim.online_server_ids().len(), 2);
        // Exponential backoff: 2s after the first failure, 4s after the second.
        assert_eq!(
            retries(&trail),
            vec![("provision".to_string(), 1, 2_000), ("provision".to_string(), 2, 4_000)]
        );
        assert_eq!(trail.counter_total("met_step_retries_total"), 2);
    }

    #[test]
    fn abandoned_provision_redistributes_partitions() {
        let (mut sim, parts) = sim_with(1, 2);
        sim.set_provision_delay(SimDuration::from_secs(30));
        // More boot failures than the retry budget: the slot is abandoned
        // and its partitions must land on the surviving node.
        sim.set_fault_injector(
            FaultPlan::new(
                (0..6)
                    .map(|_| ScheduledFault { at: SimTime::ZERO, spec: FaultSpec::ProvisionFail })
                    .collect(),
            )
            .injector(),
        );
        let snap = sim.snapshot();
        let keep = snap.servers[0].server;
        let plan = compute_output(
            &[CurrentNode { server: keep, profile: None, partitions: parts.clone() }],
            vec![
                SuggestedNode { profile: ProfileKind::ReadWrite, partitions: vec![parts[0]] },
                SuggestedNode { profile: ProfileKind::Write, partitions: vec![parts[1]] },
            ],
            false,
        );
        let (mut actuator, trail) = traced_actuator();
        actuator.start(plan, &snap);
        drive(&mut actuator, &mut sim, 400);
        let stats = actuator.stats();
        assert_eq!(stats.provisions, 0);
        assert_eq!(stats.retries, 3, "{:#?}", lines(&trail));
        assert_eq!(stats.errors, 1, "{:#?}", lines(&trail));
        assert_eq!(failures(&trail), vec![("provision".to_string(), None, 4)]);
        assert_eq!(trail.counter_total("met_steps_abandoned_total"), 1);
        // Reconciliation placed both partitions on the surviving server.
        for p in &parts {
            assert_eq!(sim.partition_server(*p), Some(keep), "{:#?}", lines(&trail));
        }
    }

    #[test]
    fn crash_during_drain_recovers_via_reconciliation() {
        let mut sim = SimCluster::new(CostParams::default(), 5);
        let a = sim.add_server_immediate(StoreConfig::default_homogeneous());
        let b = sim.add_server_immediate(StoreConfig::default_homogeneous());
        let _c = sim.add_server_immediate(StoreConfig::default_homogeneous());
        let parts: Vec<PartitionId> = (0..4)
            .map(|_| {
                sim.create_partition(PartitionSpec {
                    table: "t".into(),
                    size_bytes: 5e8,
                    record_bytes: 1_000.0,
                    hot_set_fraction: 0.4,
                    hot_ops_fraction: 0.5,
                })
            })
            .collect();
        sim.assign_partition(parts[0], a).unwrap();
        sim.assign_partition(parts[1], a).unwrap();
        sim.assign_partition(parts[2], b).unwrap();
        sim.assign_partition(parts[3], b).unwrap();
        let snap = sim.snapshot();
        let plan = crate::output::OutputPlan {
            entries: vec![
                (
                    Some(a),
                    SuggestedNode {
                        profile: ProfileKind::Read,
                        partitions: vec![parts[0], parts[1]],
                    },
                ),
                (
                    Some(b),
                    SuggestedNode {
                        profile: ProfileKind::Write,
                        partitions: vec![parts[2], parts[3]],
                    },
                ),
            ],
            decommission: vec![],
        };
        let (mut actuator, trail) = traced_actuator();
        actuator.start(plan, &snap);
        let mut finished = false;
        for tick in 0..400 {
            sim.step();
            if tick == 1 {
                assert!(sim.crash_server(a), "crash mid-drain");
            }
            if actuator.advance(&mut sim) {
                finished = true;
                break;
            }
        }
        assert!(finished, "plan never converged: {:#?}", lines(&trail));
        // The crashed server's steps were abandoned, not silently dropped.
        assert!(failures(&trail).iter().any(|(_, server, _)| *server == Some(a.0)));
        // Every partition (including the ones orphaned on the crashed
        // node) ended up on a live server.
        let snap = sim.snapshot();
        for p in &parts {
            let home = sim.partition_server(*p).expect("assigned");
            assert_ne!(home, a, "partition {p} stranded on crashed server");
            assert!(snap.server(home).is_some());
        }
        // Reconciliation was recorded on the trail.
        assert!(
            trail.events().iter().any(|e| matches!(e.data, TelemetryEvent::PlanReconciled { .. })),
            "{:#?}",
            lines(&trail)
        );
    }

    #[test]
    fn transient_move_failure_is_retried() {
        let mut sim = SimCluster::new(CostParams::default(), 5);
        let base = StoreConfig::default_homogeneous();
        let a = sim.add_server_immediate(ProfileKind::ReadWrite.config(&base));
        let b = sim.add_server_immediate(ProfileKind::ReadWrite.config(&base));
        let parts: Vec<PartitionId> = (0..2)
            .map(|_| {
                sim.create_partition(PartitionSpec {
                    table: "t".into(),
                    size_bytes: 5e8,
                    record_bytes: 1_000.0,
                    hot_set_fraction: 0.4,
                    hot_ops_fraction: 0.5,
                })
            })
            .collect();
        sim.assign_partition(parts[0], b).unwrap();
        sim.assign_partition(parts[1], b).unwrap();
        sim.set_fault_injector(
            FaultPlan::new(vec![ScheduledFault {
                at: SimTime::ZERO,
                spec: FaultSpec::CallFail { op: FaultOp::Move },
            }])
            .injector(),
        );
        let snap = sim.snapshot();
        let plan = crate::output::OutputPlan {
            entries: vec![
                (
                    Some(a),
                    SuggestedNode {
                        profile: ProfileKind::ReadWrite,
                        partitions: vec![parts[0], parts[1]],
                    },
                ),
                (Some(b), SuggestedNode { profile: ProfileKind::ReadWrite, partitions: vec![] }),
            ],
            decommission: vec![],
        };
        let (mut actuator, trail) = traced_actuator();
        actuator.start(plan, &snap);
        drive(&mut actuator, &mut sim, 100);
        let stats = actuator.stats();
        assert_eq!(stats.retries, 1, "{:#?}", lines(&trail));
        assert_eq!(stats.errors, 0, "{:#?}", lines(&trail));
        assert_eq!(stats.moves, 2);
        assert_eq!(sim.partition_server(parts[0]), Some(a));
        assert_eq!(sim.partition_server(parts[1]), Some(a));
    }
}
