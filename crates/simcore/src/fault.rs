//! Deterministic fault injection: seeded, sim-clock-scheduled fault
//! scripts for chaos experiments.
//!
//! The paper evaluates MeT on real clusters where VM boots fail,
//! RegionServers crash and Ganglia samples arrive late. This module makes
//! those failures reproducible in simulation: a [`FaultPlan`] is a sorted
//! script of [`ScheduledFault`]s, and a [`FaultInjector`] is the cheap
//! shared handle the substrate polls at each injection point ("is a fault
//! of this kind due now?"). Faults are *consumed* when they fire, so a
//! scheduled provision failure fails exactly one provision call.
//!
//! Determinism rules:
//!
//! * a plan is fully determined by its construction inputs (an explicit
//!   fault list, a spec string, or a seed for [`FaultPlan::random`]);
//! * the injector draws no randomness of its own — which entity a fault
//!   hits is resolved by the consumer from the fault's stable index and
//!   the consumer's own deterministic state;
//! * a disabled injector ([`FaultInjector::disabled`]) makes every poll a
//!   constant-time no-op, so fault-free runs are byte-identical to runs of
//!   a build without the hooks.

use crate::clock::{SimDuration, SimTime};
use crate::rng::SimRng;
use std::fmt;
use std::sync::{Arc, Mutex};

/// The class of management call a [`FaultSpec::CallFail`] targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// A partition move.
    Move,
    /// A rolling server restart.
    Restart,
    /// A major compaction request.
    Compact,
}

impl FaultOp {
    /// Stable lower-case name (used in spec strings and telemetry).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultOp::Move => "move",
            FaultOp::Restart => "restart",
            FaultOp::Compact => "compact",
        }
    }
}

/// One kind of injectable failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// The next `provision_server` call at or after the scheduled time
    /// fails (VM boot error).
    ProvisionFail,
    /// The next `provision_server` call succeeds but boots `factor`×
    /// slower than configured.
    SlowBoot {
        /// Multiplier applied to the provision delay (>= 1.0 is a slowdown).
        factor: f64,
    },
    /// An online server crashes: it stops serving instantly, its
    /// partitions are orphaned and its datanode is lost. `online_index`
    /// selects the victim among online servers (in id order, modulo the
    /// online count).
    ServerCrash {
        /// Index into the sorted online-server list at fire time.
        online_index: usize,
    },
    /// The next management call of class `op` at or after the scheduled
    /// time fails transiently.
    CallFail {
        /// Which management call class fails.
        op: FaultOp,
    },
    /// A datanode is lost without its server crashing (disk/JVM failure);
    /// its blocks become under-replicated and are repaired lazily.
    DatanodeLoss {
        /// Index into the sorted online-server list at fire time.
        online_index: usize,
    },
    /// One monitoring round is dropped (Ganglia samples lost or late).
    MetricsDrop,
    /// A write-ahead-log append is torn: the process crashes after `bytes`
    /// bytes of the append reached the disk, leaving a partial frame at
    /// the log tail (recovery must truncate it, never trust it).
    TornWrite {
        /// How many bytes of the in-flight append survive on disk.
        bytes: u64,
    },
    /// The next WAL fsync fails. A store that cannot guarantee durability
    /// aborts (HBase RegionServers treat log-sync errors as fatal), so at
    /// the cluster level this behaves like a crash with a distinct cause.
    FsyncFail,
    /// Bit-rot in one HFile block: the stored bytes no longer match their
    /// checksum, so the next read of that block must surface a typed
    /// corruption error instead of silently returning wrong data.
    BitRot {
        /// Block selector (consumers resolve it modulo their block/file
        /// population, like the online-index selectors above).
        block: usize,
    },
}

impl FaultSpec {
    /// Stable snake-case name for telemetry and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultSpec::ProvisionFail => "provision_fail",
            FaultSpec::SlowBoot { .. } => "slow_boot",
            FaultSpec::ServerCrash { .. } => "server_crash",
            FaultSpec::CallFail { op: FaultOp::Move } => "move_fail",
            FaultSpec::CallFail { op: FaultOp::Restart } => "restart_fail",
            FaultSpec::CallFail { op: FaultOp::Compact } => "compact_fail",
            FaultSpec::DatanodeLoss { .. } => "datanode_loss",
            FaultSpec::MetricsDrop => "metrics_drop",
            FaultSpec::TornWrite { .. } => "torn_write",
            FaultSpec::FsyncFail => "fsync_fail",
            FaultSpec::BitRot { .. } => "bit_rot",
        }
    }
}

impl fmt::Display for FaultSpec {
    /// Renders the canonical [`FaultPlan::parse`] grammar, so
    /// `parse(&spec.to_string())` reconstructs the spec exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpec::ProvisionFail => f.write_str("provision-fail"),
            FaultSpec::SlowBoot { factor } => write!(f, "slow-boot@{factor}"),
            FaultSpec::ServerCrash { online_index } => write!(f, "crash@{online_index}"),
            FaultSpec::CallFail { op } => write!(f, "{}-fail", op.as_str()),
            FaultSpec::DatanodeLoss { online_index } => write!(f, "dn-loss@{online_index}"),
            FaultSpec::MetricsDrop => f.write_str("metrics-drop"),
            FaultSpec::TornWrite { bytes } => write!(f, "torn-write@{bytes}"),
            FaultSpec::FsyncFail => f.write_str("fsync-fail"),
            FaultSpec::BitRot { block } => write!(f, "bit-rot@{block}"),
        }
    }
}

/// A fault and the simulated time at which it becomes due.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// Earliest time the fault can fire.
    pub at: SimTime,
    /// What fails.
    pub spec: FaultSpec,
}

impl fmt::Display for ScheduledFault {
    /// Renders the canonical [`FaultPlan::parse`] grammar. Whole-second
    /// times print as `Ns`; sub-second schedules (random plans draw at
    /// millisecond granularity) print as `Nms` so the round trip is exact.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.at.as_millis();
        if ms.is_multiple_of(1000) {
            write!(f, "{}s:{}", ms / 1000, self.spec)
        } else {
            write!(f, "{ms}ms:{}", self.spec)
        }
    }
}

/// Bounds for [`FaultPlan::random`].
#[derive(Debug, Clone, Copy)]
pub struct RandomFaultConfig {
    /// Faults are scheduled in `[warmup, horizon)`.
    pub horizon: SimDuration,
    /// No fault fires before this offset (lets the experiment boot).
    pub warmup: SimDuration,
    /// Exact number of faults to schedule (the bounded fault rate is
    /// `faults / (horizon - warmup)`).
    pub faults: usize,
    /// Include server crashes in the mix (the heaviest fault class).
    pub allow_crashes: bool,
    /// Include disk faults (`torn-write`, `fsync-fail`, `bit-rot`) in the
    /// mix. Off by default so plans drawn from pre-durability seeds are
    /// unchanged.
    pub disk_faults: bool,
}

impl Default for RandomFaultConfig {
    fn default() -> Self {
        RandomFaultConfig {
            horizon: SimDuration::from_mins(20),
            warmup: SimDuration::from_mins(3),
            faults: 4,
            allow_crashes: true,
            disk_faults: false,
        }
    }
}

/// A seeded, sorted script of scheduled faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn empty() -> Self {
        FaultPlan { faults: Vec::new() }
    }

    /// A plan from an explicit fault list (sorted by time, stably).
    pub fn new(mut faults: Vec<ScheduledFault>) -> Self {
        faults.sort_by_key(|f| f.at);
        FaultPlan { faults }
    }

    /// The reference chaos plan used by the `exp chaos` acceptance run:
    /// one server crash while the first reconfiguration is draining, two
    /// provision failures that hit the control plane's replacement
    /// attempts, and one dropped metrics round during recovery.
    ///
    /// Times are tuned to the Fig-4 workload (clients start at minute 2,
    /// first reconfiguration around minute 5).
    pub fn reference() -> Self {
        FaultPlan::new(vec![
            ScheduledFault {
                at: SimTime::from_secs(305),
                spec: FaultSpec::ServerCrash { online_index: 1 },
            },
            ScheduledFault { at: SimTime::from_secs(305), spec: FaultSpec::ProvisionFail },
            ScheduledFault { at: SimTime::from_secs(306), spec: FaultSpec::ProvisionFail },
            ScheduledFault { at: SimTime::from_secs(420), spec: FaultSpec::MetricsDrop },
        ])
    }

    /// A random plan with a bounded fault rate, fully determined by
    /// `seed` and `cfg`.
    pub fn random(seed: u64, cfg: &RandomFaultConfig) -> Self {
        let mut rng = SimRng::new(seed).derive("fault-plan");
        let lo = cfg.warmup.as_millis();
        let hi = cfg.horizon.as_millis().max(lo + 1);
        let mut faults = Vec::with_capacity(cfg.faults);
        // The draw width only grows when disk faults are opted in, so a
        // given seed yields the exact pre-durability plan otherwise.
        let kinds = if cfg.disk_faults { 11 } else { 8 };
        for _ in 0..cfg.faults {
            let at = SimTime(rng.next_range(lo, hi));
            let spec = loop {
                let s = match rng.next_below(kinds) {
                    0 => FaultSpec::ProvisionFail,
                    1 => FaultSpec::SlowBoot { factor: 2.0 + rng.next_f64() * 4.0 },
                    2 => FaultSpec::ServerCrash { online_index: rng.next_below(16) as usize },
                    3 => FaultSpec::CallFail { op: FaultOp::Move },
                    4 => FaultSpec::CallFail { op: FaultOp::Restart },
                    5 => FaultSpec::CallFail { op: FaultOp::Compact },
                    6 => FaultSpec::DatanodeLoss { online_index: rng.next_below(16) as usize },
                    7 => FaultSpec::MetricsDrop,
                    8 => FaultSpec::TornWrite { bytes: rng.next_below(4096) },
                    9 => FaultSpec::FsyncFail,
                    _ => FaultSpec::BitRot { block: rng.next_below(64) as usize },
                };
                // Torn writes and fsync failures abort the victim server
                // too, so `allow_crashes: false` excludes them as well.
                let crash_ok = cfg.allow_crashes
                    || !matches!(
                        s,
                        FaultSpec::ServerCrash { .. }
                            | FaultSpec::FsyncFail
                            | FaultSpec::TornWrite { .. }
                    );
                if crash_ok {
                    break s;
                }
            };
            faults.push(ScheduledFault { at, spec });
        }
        FaultPlan::new(faults)
    }

    /// Parses a compact spec string: comma- or semicolon-separated
    /// `TIME:KIND[@ARG]` entries, where `TIME` is seconds (`420` or
    /// `420s`), minutes (`7m`) or milliseconds (`420500ms`), and `KIND`
    /// is one of `provision-fail`, `slow-boot@FACTOR`, `crash@INDEX`,
    /// `move-fail`, `restart-fail`, `compact-fail`, `dn-loss@INDEX`,
    /// `metrics-drop`, `torn-write@BYTES`, `fsync-fail`,
    /// `bit-rot@BLOCK`. Snake-case aliases of each kind (`torn_write`,
    /// `server_crash`, …) are accepted too, so legacy `kind()`-style
    /// renderings parse.
    ///
    /// Malformed entries — an unknown kind, a missing time, an empty or
    /// non-numeric `@ARG` such as `torn-write@` or `crash@x` — yield
    /// `Err`, never a panic.
    ///
    /// Example: `"305s:crash@1,305s:provision-fail,7m:metrics-drop"`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut faults = Vec::new();
        for raw in spec.split([',', ';']) {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            let (time_s, kind_s) =
                entry.split_once(':').ok_or_else(|| format!("'{entry}': expected TIME:KIND"))?;
            let at = parse_time(time_s.trim())?;
            let (kind, arg) = match kind_s.trim().split_once('@') {
                Some((k, a)) => (k, Some(a)),
                None => (kind_s.trim(), None),
            };
            let spec = match kind {
                "provision-fail" | "provision_fail" => FaultSpec::ProvisionFail,
                "slow-boot" | "slow_boot" => {
                    FaultSpec::SlowBoot { factor: parse_arg_f64(entry, arg, 4.0)? }
                }
                "crash" | "server-crash" | "server_crash" => {
                    FaultSpec::ServerCrash { online_index: parse_arg_usize(entry, arg, 0)? }
                }
                "move-fail" | "move_fail" => FaultSpec::CallFail { op: FaultOp::Move },
                "restart-fail" | "restart_fail" => FaultSpec::CallFail { op: FaultOp::Restart },
                "compact-fail" | "compact_fail" => FaultSpec::CallFail { op: FaultOp::Compact },
                "dn-loss" | "dn_loss" | "datanode-loss" | "datanode_loss" => {
                    FaultSpec::DatanodeLoss { online_index: parse_arg_usize(entry, arg, 0)? }
                }
                "metrics-drop" | "metrics_drop" => FaultSpec::MetricsDrop,
                "torn-write" | "torn_write" => {
                    FaultSpec::TornWrite { bytes: parse_arg_u64(entry, arg, 0)? }
                }
                "fsync-fail" | "fsync_fail" => FaultSpec::FsyncFail,
                "bit-rot" | "bit_rot" => {
                    FaultSpec::BitRot { block: parse_arg_usize(entry, arg, 0)? }
                }
                other => return Err(format!("'{entry}': unknown fault kind '{other}'")),
            };
            faults.push(ScheduledFault { at, spec });
        }
        Ok(FaultPlan::new(faults))
    }

    /// The scheduled faults, sorted by time.
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Builds the live injector handle for this plan. An empty plan still
    /// yields an *enabled* injector (its polls are cheap but non-zero);
    /// use [`FaultInjector::disabled`] for the guaranteed-byte-identical
    /// fault-free path.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector {
            inner: Some(Arc::new(Mutex::new(InjectorState {
                pending: self.faults.clone(),
                fired: Vec::new(),
            }))),
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for fault in &self.faults {
            if !first {
                f.write_str(",")?;
            }
            first = false;
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

fn parse_time(s: &str) -> Result<SimTime, String> {
    // Millis per unit; checked arithmetic so absurd inputs are an `Err`,
    // not a debug-build overflow panic.
    let (num, ms_per_unit) = if let Some(n) = s.strip_suffix("ms") {
        (n, 1u64)
    } else if let Some(n) = s.strip_suffix('m') {
        (n, 60_000u64)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000u64)
    } else {
        (s, 1_000u64)
    };
    let v: u64 = num.trim().parse().map_err(|_| format!("'{s}': bad time"))?;
    let ms = v.checked_mul(ms_per_unit).ok_or_else(|| format!("'{s}': time out of range"))?;
    Ok(SimTime(ms))
}

fn parse_arg_f64(entry: &str, arg: Option<&str>, default: f64) -> Result<f64, String> {
    match arg {
        None => Ok(default),
        Some(a) => a.trim().parse().map_err(|_| format!("'{entry}': bad numeric argument")),
    }
}

fn parse_arg_usize(entry: &str, arg: Option<&str>, default: usize) -> Result<usize, String> {
    match arg {
        None => Ok(default),
        Some(a) => a.trim().parse().map_err(|_| format!("'{entry}': bad integer argument")),
    }
}

fn parse_arg_u64(entry: &str, arg: Option<&str>, default: u64) -> Result<u64, String> {
    match arg {
        None => Ok(default),
        Some(a) => a.trim().parse().map_err(|_| format!("'{entry}': bad integer argument")),
    }
}

struct InjectorState {
    pending: Vec<ScheduledFault>,
    fired: Vec<ScheduledFault>,
}

/// What an injected provision fault does to the call that consumed it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProvisionFault {
    /// The call fails outright.
    Fail,
    /// The call succeeds but the boot takes `factor`× the normal delay.
    Slow(f64),
}

/// Shared handle the substrate polls at each injection point.
///
/// Mirrors the `Telemetry` handle pattern: clones share state, and a
/// [`FaultInjector::disabled`] handle makes every poll a constant-time
/// no-op (no locking, no allocation, no randomness) so un-faulted runs
/// behave exactly as if the hooks did not exist.
#[derive(Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<Mutex<InjectorState>>>,
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("FaultInjector(disabled)"),
            Some(_) => f.write_str("FaultInjector(enabled)"),
        }
    }
}

impl FaultInjector {
    /// A handle that never injects anything.
    pub fn disabled() -> Self {
        FaultInjector { inner: None }
    }

    /// True when this handle can inject faults (even if none are pending).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Removes and returns all due faults matching `pred`.
    fn take_due(&self, now: SimTime, pred: impl Fn(&FaultSpec) -> bool) -> Vec<FaultSpec> {
        let Some(inner) = &self.inner else { return Vec::new() };
        let mut state = inner.lock().unwrap();
        let mut taken = Vec::new();
        let mut kept = Vec::with_capacity(state.pending.len());
        for fault in std::mem::take(&mut state.pending) {
            if fault.at <= now && pred(&fault.spec) {
                taken.push(fault.spec);
                state.fired.push(fault);
            } else {
                kept.push(fault);
            }
        }
        state.pending = kept;
        taken
    }

    /// Removes and returns at most one due fault matching `pred`.
    fn take_one(&self, now: SimTime, pred: impl Fn(&FaultSpec) -> bool) -> Option<FaultSpec> {
        let Some(inner) = &self.inner else { return None };
        let mut state = inner.lock().unwrap();
        let idx = state.pending.iter().position(|f| f.at <= now && pred(&f.spec))?;
        let fault = state.pending.remove(idx);
        state.fired.push(fault);
        Some(fault.spec)
    }

    /// Consumes a due provision fault, if any (one per provision call).
    pub fn take_provision_fault(&self, now: SimTime) -> Option<ProvisionFault> {
        self.take_one(now, |s| matches!(s, FaultSpec::ProvisionFail | FaultSpec::SlowBoot { .. }))
            .map(|s| match s {
                FaultSpec::ProvisionFail => ProvisionFault::Fail,
                FaultSpec::SlowBoot { factor } => ProvisionFault::Slow(factor),
                _ => unreachable!("filtered to provision faults"),
            })
    }

    /// Consumes a due transient-failure fault for management calls of
    /// class `op`. Returns true when the call should fail.
    pub fn take_call_fault(&self, now: SimTime, op: FaultOp) -> bool {
        self.take_one(now, |s| matches!(s, FaultSpec::CallFail { op: o } if *o == op)).is_some()
    }

    /// Consumes all due server crashes; returns the victims'
    /// online-index selectors.
    pub fn take_crashes(&self, now: SimTime) -> Vec<usize> {
        self.take_due(now, |s| matches!(s, FaultSpec::ServerCrash { .. }))
            .into_iter()
            .map(|s| match s {
                FaultSpec::ServerCrash { online_index } => online_index,
                _ => unreachable!("filtered to crashes"),
            })
            .collect()
    }

    /// Consumes all due datanode losses; returns online-index selectors.
    pub fn take_datanode_losses(&self, now: SimTime) -> Vec<usize> {
        self.take_due(now, |s| matches!(s, FaultSpec::DatanodeLoss { .. }))
            .into_iter()
            .map(|s| match s {
                FaultSpec::DatanodeLoss { online_index } => online_index,
                _ => unreachable!("filtered to datanode losses"),
            })
            .collect()
    }

    /// Consumes one due dropped-metrics-round fault. Returns true when
    /// the current monitoring round should be dropped.
    pub fn take_metrics_drop(&self, now: SimTime) -> bool {
        self.take_one(now, |s| matches!(s, FaultSpec::MetricsDrop)).is_some()
    }

    /// Consumes all due torn-write faults; each value is how many bytes
    /// of the in-flight WAL append survive on disk.
    pub fn take_torn_writes(&self, now: SimTime) -> Vec<u64> {
        self.take_due(now, |s| matches!(s, FaultSpec::TornWrite { .. }))
            .into_iter()
            .map(|s| match s {
                FaultSpec::TornWrite { bytes } => bytes,
                _ => unreachable!("filtered to torn writes"),
            })
            .collect()
    }

    /// Consumes all due fsync failures; returns how many fired.
    pub fn take_fsync_fails(&self, now: SimTime) -> usize {
        self.take_due(now, |s| matches!(s, FaultSpec::FsyncFail)).len()
    }

    /// Consumes all due bit-rot faults; returns their block selectors.
    pub fn take_bit_rots(&self, now: SimTime) -> Vec<usize> {
        self.take_due(now, |s| matches!(s, FaultSpec::BitRot { .. }))
            .into_iter()
            .map(|s| match s {
                FaultSpec::BitRot { block } => block,
                _ => unreachable!("filtered to bit rot"),
            })
            .collect()
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => inner.lock().unwrap().fired.len(),
        }
    }

    /// Faults injected so far, in consumption order.
    pub fn fired(&self) -> Vec<ScheduledFault> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.lock().unwrap().fired.clone(),
        }
    }

    /// Number of faults still waiting to fire.
    pub fn pending(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => inner.lock().unwrap().pending.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_is_inert() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_enabled());
        assert!(inj.take_provision_fault(SimTime::from_secs(999)).is_none());
        assert!(!inj.take_call_fault(SimTime::from_secs(999), FaultOp::Move));
        assert!(inj.take_crashes(SimTime::from_secs(999)).is_empty());
        assert!(!inj.take_metrics_drop(SimTime::from_secs(999)));
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn faults_fire_once_and_only_when_due() {
        let plan = FaultPlan::new(vec![
            ScheduledFault { at: SimTime::from_secs(10), spec: FaultSpec::ProvisionFail },
            ScheduledFault {
                at: SimTime::from_secs(20),
                spec: FaultSpec::CallFail { op: FaultOp::Move },
            },
        ]);
        let inj = plan.injector();
        assert!(inj.take_provision_fault(SimTime::from_secs(9)).is_none());
        assert_eq!(inj.take_provision_fault(SimTime::from_secs(10)), Some(ProvisionFault::Fail));
        assert!(inj.take_provision_fault(SimTime::from_secs(11)).is_none(), "consumed");
        assert!(!inj.take_call_fault(SimTime::from_secs(15), FaultOp::Move));
        assert!(!inj.take_call_fault(SimTime::from_secs(25), FaultOp::Restart), "wrong class");
        assert!(inj.take_call_fault(SimTime::from_secs(25), FaultOp::Move));
        assert_eq!(inj.injected(), 2);
        assert_eq!(inj.pending(), 0);
    }

    #[test]
    fn clones_share_the_pending_script() {
        let plan = FaultPlan::new(vec![ScheduledFault {
            at: SimTime::ZERO,
            spec: FaultSpec::MetricsDrop,
        }]);
        let a = plan.injector();
        let b = a.clone();
        assert!(a.take_metrics_drop(SimTime::from_secs(1)));
        assert!(!b.take_metrics_drop(SimTime::from_secs(2)), "already consumed via clone");
        assert_eq!(b.injected(), 1);
    }

    #[test]
    fn parse_round_trips_the_reference_grammar() {
        let plan = FaultPlan::parse(
            "305s:crash@1, 305s:provision-fail; 306:provision-fail,7m:metrics-drop",
        )
        .unwrap();
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.faults()[0].at, SimTime::from_secs(305));
        assert!(matches!(plan.faults()[0].spec, FaultSpec::ServerCrash { online_index: 1 }));
        assert!(matches!(plan.faults()[3].spec, FaultSpec::MetricsDrop));
        assert_eq!(plan.faults()[3].at, SimTime::from_mins(7));

        assert!(FaultPlan::parse("10s:warp-core-breach").is_err());
        assert!(FaultPlan::parse("provision-fail").is_err(), "missing time");
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn random_plans_are_seed_deterministic_and_bounded() {
        let cfg = RandomFaultConfig::default();
        let a = FaultPlan::random(7, &cfg);
        let b = FaultPlan::random(7, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.faults);
        for f in a.faults() {
            assert!(f.at >= SimTime(cfg.warmup.as_millis()));
            assert!(f.at < SimTime(cfg.horizon.as_millis()));
        }
        let c = FaultPlan::random(8, &cfg);
        assert_ne!(a, c, "different seeds give different plans");
        let no_crash =
            FaultPlan::random(3, &RandomFaultConfig { faults: 32, allow_crashes: false, ..cfg });
        assert!(!no_crash.faults().iter().any(|f| matches!(f.spec, FaultSpec::ServerCrash { .. })));
    }

    #[test]
    fn crashes_batch_and_slow_boot_reports_factor() {
        let plan = FaultPlan::new(vec![
            ScheduledFault {
                at: SimTime::from_secs(5),
                spec: FaultSpec::ServerCrash { online_index: 0 },
            },
            ScheduledFault {
                at: SimTime::from_secs(6),
                spec: FaultSpec::ServerCrash { online_index: 3 },
            },
            ScheduledFault { at: SimTime::from_secs(5), spec: FaultSpec::SlowBoot { factor: 3.0 } },
        ]);
        let inj = plan.injector();
        assert_eq!(inj.take_crashes(SimTime::from_secs(7)), vec![0, 3]);
        assert_eq!(
            inj.take_provision_fault(SimTime::from_secs(7)),
            Some(ProvisionFault::Slow(3.0))
        );
    }

    #[test]
    fn reference_plan_matches_the_acceptance_recipe() {
        let plan = FaultPlan::reference();
        let crashes = plan
            .faults()
            .iter()
            .filter(|f| matches!(f.spec, FaultSpec::ServerCrash { .. }))
            .count();
        let provisions =
            plan.faults().iter().filter(|f| matches!(f.spec, FaultSpec::ProvisionFail)).count();
        let drops =
            plan.faults().iter().filter(|f| matches!(f.spec, FaultSpec::MetricsDrop)).count();
        assert_eq!((crashes, provisions, drops), (1, 2, 1));
        // Display renders the parse grammar, so the round trip is exact.
        let reparsed = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn disk_fault_grammar_parses_and_round_trips() {
        let plan =
            FaultPlan::parse("10s:torn-write@37, 20s:fsync-fail; 30s:bit-rot@5, 40500ms:crash@2")
                .unwrap();
        assert_eq!(plan.len(), 4);
        assert!(matches!(plan.faults()[0].spec, FaultSpec::TornWrite { bytes: 37 }));
        assert!(matches!(plan.faults()[1].spec, FaultSpec::FsyncFail));
        assert!(matches!(plan.faults()[2].spec, FaultSpec::BitRot { block: 5 }));
        assert_eq!(plan.faults()[3].at, SimTime(40_500));
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        // Snake-case aliases (the legacy `kind()` renderings) parse too.
        let alias = FaultPlan::parse("10s:torn_write@37,20s:server_crash@1").unwrap();
        assert!(matches!(alias.faults()[0].spec, FaultSpec::TornWrite { bytes: 37 }));
        assert!(matches!(alias.faults()[1].spec, FaultSpec::ServerCrash { online_index: 1 }));
    }

    #[test]
    fn malformed_entries_are_errors_not_panics() {
        for bad in [
            "10s:torn-write@",
            "10s:crash@x",
            "10s:bit-rot@-1",
            "10s:slow-boot@fast",
            "abc:crash@1",
            "99999999999999999999s:crash@1",
            "18446744073709551615m:crash@1",
            "10s:@3",
            ":crash@1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' should be rejected");
        }
    }

    #[test]
    fn injector_hands_out_disk_faults() {
        let plan = FaultPlan::parse("5s:torn-write@64,5s:fsync-fail,6s:bit-rot@9").unwrap();
        let inj = plan.injector();
        assert!(inj.take_torn_writes(SimTime::from_secs(4)).is_empty());
        assert_eq!(inj.take_torn_writes(SimTime::from_secs(5)), vec![64]);
        assert_eq!(inj.take_fsync_fails(SimTime::from_secs(5)), 1);
        assert_eq!(inj.take_bit_rots(SimTime::from_secs(10)), vec![9]);
        assert_eq!(inj.pending(), 0);
    }

    #[test]
    fn random_plans_with_disk_faults_round_trip_and_legacy_seeds_hold() {
        let cfg = RandomFaultConfig::default();
        let legacy = FaultPlan::random(7, &cfg);
        let with_disk =
            FaultPlan::random(7, &RandomFaultConfig { faults: 64, disk_faults: true, ..cfg });
        assert!(
            with_disk.faults().iter().any(|f| matches!(
                f.spec,
                FaultSpec::TornWrite { .. } | FaultSpec::FsyncFail | FaultSpec::BitRot { .. }
            )),
            "64 draws over 11 kinds should include a disk fault"
        );
        assert_eq!(FaultPlan::parse(&with_disk.to_string()).unwrap(), with_disk);
        // Same seed without the opt-in still yields the pre-durability plan.
        assert_eq!(FaultPlan::random(7, &cfg), legacy);
    }
}
