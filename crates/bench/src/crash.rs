//! `exp crash` — kill-at-every-point durability audit of the hstore WAL.
//!
//! The harness generates a deterministic YCSB-flavoured schedule of puts,
//! deletes and memstore flushes, then murders a WAL-backed [`CfStore`] at
//! every operation boundary — and, separately, at every byte of a torn
//! final write — and proves three things about each recovery:
//!
//! 1. **Exactness** — the recovered store scans byte-equal to a model map
//!    replaying exactly the acknowledged-durable prefix of the schedule.
//! 2. **Graceful tails** — torn final writes truncate on replay; they never
//!    panic and never surface as data loss of *acknowledged* operations.
//! 3. **Typed damage** — bit-rot in a store file or a sealed WAL segment
//!    fails recovery with [`HStoreError::Corruption`] naming the file and
//!    offset, rather than serving corrupt data.
//!
//! Everything is deterministic in the seed; `exp crash` layers a sim-level
//! disk-fault leg (torn-write / fsync-fail / bit-rot through the fault
//! injector) on top.

use bytes::Bytes;
use hstore::{
    CfStore, FileIdAllocator, HStoreError, KeyRange, MaintenanceConfig, SharedBlockCache,
    WalConfig, WAL_FILE_ID_BASE,
};
use simcore::SimRng;
use std::collections::BTreeMap;

/// One step of the crash schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashOp {
    /// Write `val` at `(row, qual)`.
    Put {
        /// Row key.
        row: String,
        /// Column qualifier.
        qual: String,
        /// Value written.
        val: String,
    },
    /// Tombstone `(row, qual)`.
    Delete {
        /// Row key.
        row: String,
        /// Column qualifier.
        qual: String,
    },
    /// Flush the memstore to an immutable file (rotates the WAL).
    Flush,
}

/// The schedule length `exp crash` audits.
pub const DEFAULT_OPS: usize = 150;

/// An update-heavy schedule over a small keyspace — 70 % puts, 20 %
/// deletes, 10 % flushes — so deletes hit live rows and flushes interleave
/// immutable files with live WAL segments.
pub fn schedule(seed: u64, ops: usize) -> Vec<CrashOp> {
    let mut rng = SimRng::new(seed).derive("crash-schedule");
    let mut out = Vec::with_capacity(ops);
    for i in 0..ops {
        let row = format!("user{:02}", rng.next_below(16));
        let qual = format!("f{}", rng.next_below(4));
        let dice = rng.next_below(10);
        if dice < 7 {
            out.push(CrashOp::Put { row, qual, val: format!("v{i}") });
        } else if dice < 9 {
            out.push(CrashOp::Delete { row, qual });
        } else {
            out.push(CrashOp::Flush);
        }
    }
    out
}

/// The comparable shape of a store: rows with their live cells, in scan
/// order.
pub type State = Vec<(String, Vec<(String, Bytes)>)>;

/// Scans a store into comparable form.
pub fn store_state(s: &CfStore) -> State {
    s.scan_range(&KeyRange::all(), usize::MAX)
        .into_iter()
        .map(|(r, cells)| {
            (r.to_string(), cells.into_iter().map(|(q, v)| (q.to_string(), v)).collect())
        })
        .collect()
}

/// Renders a model map into the same shape.
pub fn model_state(model: &BTreeMap<(String, String), String>) -> State {
    let mut rows: BTreeMap<String, Vec<(String, Bytes)>> = BTreeMap::new();
    for ((row, qual), val) in model {
        rows.entry(row.clone())
            .or_default()
            .push((qual.clone(), Bytes::copy_from_slice(val.as_bytes())));
    }
    rows.into_iter().collect()
}

/// Maintenance settings for the background-pipeline audit: a freeze
/// threshold small enough that the tiny crash schedule actually drives
/// background flushes (and, through them, WAL rotations, deferred
/// truncations, and compactions) between crash points, instead of never
/// reaching one.
fn crash_maintenance_cfg() -> MaintenanceConfig {
    MaintenanceConfig {
        memstore_flush_bytes: 256,
        compact_min_files: 3,
        ..MaintenanceConfig::default()
    }
}

fn fresh_store(group_commit_bytes: usize, bg: bool) -> CfStore {
    let mut s = CfStore::new(SharedBlockCache::new(1 << 20), FileIdAllocator::new(), 512);
    s.enable_wal(WalConfig { group_commit_bytes, ..WalConfig::default() });
    if bg {
        s.start_maintenance(crash_maintenance_cfg());
    }
    s
}

/// Applies one op to the store, mirroring it into the model only when the
/// store acknowledged it. Returns whether the op appended a WAL record.
fn apply(
    store: &mut CfStore,
    model: &mut BTreeMap<(String, String), String>,
    op: &CrashOp,
) -> bool {
    match op {
        CrashOp::Put { row, qual, val } => {
            if store
                .try_put(
                    row.as_str().into(),
                    qual.as_str().into(),
                    Bytes::copy_from_slice(val.as_bytes()),
                )
                .is_ok()
            {
                model.insert((row.clone(), qual.clone()), val.clone());
                return true;
            }
            false
        }
        CrashOp::Delete { row, qual } => {
            if store.try_delete(row.as_str().into(), qual.as_str().into()).is_ok() {
                model.remove(&(row.clone(), qual.clone()));
                return true;
            }
            false
        }
        CrashOp::Flush => {
            store.flush();
            false
        }
    }
}

/// What the full audit measured.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// Schedule length.
    pub ops: usize,
    /// Sync-per-append crash points exercised (one per op boundary).
    pub crash_points: usize,
    /// Torn-write byte offsets exercised.
    pub torn_points: usize,
    /// Torn tails actually observed by replay across all legs.
    pub torn_tails_seen: usize,
    /// Group-commit crash points exercised.
    pub group_points: usize,
    /// Worst modeled recovery cost across every recovery, ms.
    pub max_recovery_ms: u64,
    /// Total WAL records replayed across every recovery.
    pub replayed_records: u64,
    /// Total WAL records appended across every crashed store.
    pub wal_appends: u64,
    /// Total WAL bytes synced across every crashed store.
    pub wal_bytes: u64,
    /// Whether the bit-rot legs produced the expected typed errors.
    pub corruption_typed: bool,
    /// Whether the fsync-failure leg kept the store consistent.
    pub fsync_clean: bool,
    /// Every invariant violation, as human-readable strings. Empty = pass.
    pub failures: Vec<String>,
}

impl CrashReport {
    /// True when every leg held every invariant.
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.corruption_typed && self.fsync_clean
    }
}

/// Runs the whole audit, with inline maintenance or with the background
/// maintenance pipeline running in every crashed store (`bg`). The
/// *invariants* are identical — a crash abandons queued background work,
/// and the WAL segments covering it were never truncated, so every
/// acknowledged op must still recover exactly. Schedule and crash points
/// stay deterministic in `seed` and `ops`; with `bg` the bookkeeping
/// totals (replayed records, WAL bytes) become timing-dependent because
/// background flushes earn truncations at their own pace; inline, the
/// whole report is deterministic in `seed` and `ops`.
pub fn run(seed: u64, ops: usize, bg: bool) -> CrashReport {
    let plan = schedule(seed, ops);
    let mut report = CrashReport {
        ops,
        crash_points: 0,
        torn_points: 0,
        torn_tails_seen: 0,
        group_points: 0,
        max_recovery_ms: 0,
        replayed_records: 0,
        wal_appends: 0,
        wal_bytes: 0,
        corruption_typed: true,
        fsync_clean: true,
        failures: Vec::new(),
    };

    crash_at_every_boundary(&plan, bg, &mut report);
    torn_write_sweep(&plan, bg, &mut report);
    group_commit_prefixes(&plan, bg, &mut report);
    bit_rot_is_typed(&plan, bg, &mut report);
    fsync_failure_is_clean(&plan, bg, &mut report);
    report
}

/// Recovers `store` (consuming it) and checks the recovered scan against
/// any of the acceptable states (more than one only when an unacknowledged
/// trailing write may or may not have reached disk). Pushes failures into
/// the report; returns the recovered store.
fn recover_and_check(
    store: CfStore,
    wants: &[&State],
    what: &str,
    report: &mut CrashReport,
) -> Option<CfStore> {
    if let Some(stats) = store.wal().map(|w| w.stats()) {
        report.wal_appends += stats.appends;
        report.wal_bytes += stats.synced_bytes;
    }
    match CfStore::recover(store.crash(), SharedBlockCache::new(1 << 20), FileIdAllocator::new()) {
        Ok((recovered, rr)) => {
            report.max_recovery_ms = report.max_recovery_ms.max(rr.cost.as_millis());
            report.replayed_records += rr.replayed_records;
            if rr.torn_tail.is_some() {
                report.torn_tails_seen += 1;
            }
            let got = store_state(&recovered);
            if !wants.contains(&&got) {
                report.failures.push(format!(
                    "{what}: recovered state diverges from the model \
                     ({} rows recovered, {} expected)",
                    got.len(),
                    wants[0].len()
                ));
            }
            Some(recovered)
        }
        Err(e) => {
            report.failures.push(format!("{what}: recovery failed: {e}"));
            None
        }
    }
}

/// Leg 1: with sync-per-append durability (HBase's default), kill the
/// store after every prefix of the schedule. Every acknowledged op must
/// survive; the recovered store must keep accepting writes.
fn crash_at_every_boundary(plan: &[CrashOp], bg: bool, report: &mut CrashReport) {
    for k in 0..=plan.len() {
        let mut store = fresh_store(0, bg);
        let mut model = BTreeMap::new();
        for op in &plan[..k] {
            apply(&mut store, &mut model, op);
        }
        let want = model_state(&model);
        let what = format!("boundary crash at op {k}");
        let Some(mut recovered) = recover_and_check(store, &[&want], &what, report) else {
            continue;
        };
        report.crash_points += 1;
        // The reopened store is live: one more write round-trips.
        if k == plan.len() {
            recovered.put("post".into(), "crash".into(), Bytes::from_static(b"alive"));
            if recovered.get(&"post".into(), &"crash".into()).as_deref() != Some(b"alive".as_ref())
            {
                report.failures.push("recovered store refused a new write".into());
            }
        }
    }
}

/// Leg 2: tear the final write at every byte offset. The torn frame must
/// truncate on replay — never panic, never lose an *acknowledged* op. The
/// unacknowledged victim itself sits outside the contract: a tear wide
/// enough to persist its whole frame may legitimately resurrect it.
fn torn_write_sweep(plan: &[CrashOp], bg: bool, report: &mut CrashReport) {
    // A prefix long enough to have real state, short enough to stay fast.
    let prefix = plan.len().min(40);
    for torn in 0..48u64 {
        let mut store = fresh_store(0, bg);
        let mut model = BTreeMap::new();
        for op in &plan[..prefix] {
            apply(&mut store, &mut model, op);
        }
        if let Some(wal) = store.wal_mut() {
            wal.arm_torn_write(torn);
        }
        // The torn write must fail (stay unacknowledged).
        let r = store.try_put("torn".into(), "victim".into(), Bytes::from_static(b"lost"));
        if r.is_ok() {
            report.failures.push(format!("torn write of {torn} B was acknowledged"));
        }
        let without_victim = model_state(&model);
        let mut with_victim = model.clone();
        with_victim.insert(("torn".into(), "victim".into()), "lost".into());
        let with_victim = model_state(&with_victim);
        let what = format!("torn write at byte {torn}");
        if recover_and_check(store, &[&without_victim, &with_victim], &what, report).is_some() {
            report.torn_points += 1;
        }
    }
}

/// Leg 3: with group commit (batched sync), a crash may lose the staged
/// tail — but the recovered state must equal the model over exactly the
/// durable prefix (append j durable iff j ≤ `durable_seq` at crash).
fn group_commit_prefixes(plan: &[CrashOp], bg: bool, report: &mut CrashReport) {
    for k in 0..=plan.len() {
        let mut store = fresh_store(256, bg);
        // Mirror of every *acknowledged* op, in append order, so the
        // durable prefix can be replayed afterwards.
        let mut acked: Vec<&CrashOp> = Vec::new();
        let mut model = BTreeMap::new();
        for op in &plan[..k] {
            if apply(&mut store, &mut model, op) {
                acked.push(op);
            }
        }
        let durable = store.wal().map(|w| w.durable_seq()).unwrap_or(0) as usize;
        if durable > acked.len() {
            report.failures.push(format!(
                "group crash at op {k}: durable_seq {durable} exceeds {} appends",
                acked.len()
            ));
            continue;
        }
        let mut durable_model = BTreeMap::new();
        for op in &acked[..durable] {
            match op {
                CrashOp::Put { row, qual, val } => {
                    durable_model.insert((row.clone(), qual.clone()), val.clone());
                }
                CrashOp::Delete { row, qual } => {
                    durable_model.remove(&(row.clone(), qual.clone()));
                }
                CrashOp::Flush => unreachable!("flushes do not append"),
            }
        }
        let want = model_state(&durable_model);
        let what = format!("group-commit crash at op {k} (durable prefix {durable})");
        if recover_and_check(store, &[&want], &what, report).is_some() {
            report.group_points += 1;
        }
    }
}

/// Leg 4: bit-rot in a store file block and in a sealed WAL segment must
/// each fail recovery with a typed corruption naming the damaged file.
fn bit_rot_is_typed(plan: &[CrashOp], bg: bool, report: &mut CrashReport) {
    // File-block rot: run enough of the schedule to have flushed a file.
    let mut store = fresh_store(0, bg);
    let mut model = BTreeMap::new();
    for op in plan {
        apply(&mut store, &mut model, op);
    }
    if store.file_count() == 0 {
        store.flush();
    }
    let manifest = store.file_manifest();
    let mut state = store.crash();
    let rotted = manifest.first().map(|(fid, _)| *fid);
    match rotted {
        Some(fid) if state.corrupt_file_block(fid, 0) => {
            match CfStore::recover(state, SharedBlockCache::new(1 << 20), FileIdAllocator::new()) {
                Err(HStoreError::Corruption { file, .. }) if file == fid => {}
                Err(e) => {
                    report.corruption_typed = false;
                    report.failures.push(format!("file rot surfaced as the wrong error: {e}"));
                }
                Ok(_) => {
                    report.corruption_typed = false;
                    report.failures.push("file rot was silently accepted by recovery".into());
                }
            }
        }
        _ => {
            report.corruption_typed = false;
            report.failures.push("bit-rot leg could not find a file block to damage".into());
        }
    }

    // Sealed-segment WAL rot: rotate so damage lands mid-log, not in the
    // replayable tail. This sub-leg stays inline even under `bg`: the tiny
    // three-put store must keep its segment-0 bytes un-truncated for the
    // damage to land mid-log.
    let mut store = fresh_store(0, false);
    store.put("a".into(), "q".into(), Bytes::from_static(b"one"));
    store.put("b".into(), "q".into(), Bytes::from_static(b"two"));
    store.wal_mut().expect("wal enabled").rotate().expect("rotation syncs");
    store.put("c".into(), "q".into(), Bytes::from_static(b"three"));
    let mut state = store.crash();
    state.corrupt_wal_byte(0, 9);
    match CfStore::recover(state, SharedBlockCache::new(1 << 20), FileIdAllocator::new()) {
        Err(HStoreError::Corruption { file, .. }) if file.0 & WAL_FILE_ID_BASE != 0 => {}
        Err(e) => {
            report.corruption_typed = false;
            report.failures.push(format!("WAL rot surfaced as the wrong error: {e}"));
        }
        Ok(_) => {
            report.corruption_typed = false;
            report.failures.push("mid-log WAL rot was silently accepted".into());
        }
    }
}

/// Leg 5: a failed fsync must reject the write (nothing applied), leave
/// the store serving, and survive a subsequent crash/recover cycle.
fn fsync_failure_is_clean(plan: &[CrashOp], bg: bool, report: &mut CrashReport) {
    let prefix = plan.len().min(25);
    let mut store = fresh_store(0, bg);
    let mut model = BTreeMap::new();
    for op in &plan[..prefix] {
        apply(&mut store, &mut model, op);
    }
    store.wal_mut().expect("wal enabled").arm_fsync_fail();
    match store.try_put("fsync".into(), "victim".into(), Bytes::from_static(b"gone")) {
        Err(HStoreError::WalSyncFailed { .. }) => {}
        other => {
            report.fsync_clean = false;
            report.failures.push(format!("fsync failure returned {other:?}"));
            return;
        }
    }
    // The store still serves and still accepts writes after the failure.
    if apply(
        &mut store,
        &mut model,
        &CrashOp::Put { row: "fsync".into(), qual: "retry".into(), val: "ok".into() },
    ) {
        // acknowledged — mirrored into the model by `apply`.
    } else {
        report.fsync_clean = false;
        report.failures.push("store refused writes after a failed fsync".into());
        return;
    }
    let want = model_state(&model);
    if recover_and_check(store, &[&want], "crash after fsync failure", report).is_none() {
        report.fsync_clean = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_mixed() {
        let a = schedule(7, 100);
        assert_eq!(a, schedule(7, 100));
        assert!(a.iter().any(|o| matches!(o, CrashOp::Put { .. })));
        assert!(a.iter().any(|o| matches!(o, CrashOp::Delete { .. })));
        assert!(a.iter().any(|o| matches!(o, CrashOp::Flush)));
        assert_ne!(a, schedule(8, 100), "seed changes the schedule");
    }

    #[test]
    fn the_audit_passes_on_a_small_schedule() {
        let r = run(42, 60, false);
        assert!(r.passed(), "failures: {:?}", r.failures);
        assert_eq!(r.crash_points, 61);
        assert_eq!(r.group_points, 61);
        assert_eq!(r.torn_points, 48);
        assert!(r.replayed_records > 0, "some recoveries replayed records");
        assert!(r.max_recovery_ms < 10_000, "recovery time is bounded");
    }

    #[test]
    fn the_audit_passes_with_the_background_pipeline_on() {
        let r = run(42, 60, true);
        assert!(r.passed(), "failures: {:?}", r.failures);
        // Crash-point coverage is schedule-shaped, so it must not depend
        // on who runs the flushes.
        assert_eq!(r.crash_points, 61);
        assert_eq!(r.group_points, 61);
        assert_eq!(r.torn_points, 48);
    }

    #[test]
    fn torn_tails_are_actually_exercised() {
        let r = run(42, 60, false);
        assert!(
            r.torn_tails_seen > 0,
            "the torn-write sweep must produce at least one truncated tail"
        );
    }
}
