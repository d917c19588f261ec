//! A single column-family LSM store: memstore + immutable files + cache.
//!
//! Invariant: `files` is ordered oldest → newest and, because flushes and
//! compactions preserve it, for any cell coordinate every version in a later
//! file is newer than every version in an earlier file. Point reads may
//! therefore stop at the first file (newest-first) holding any version of
//! the coordinate, exactly as HBase does.
//!
//! # Concurrency model
//!
//! The engine is split into a shared read side and a single-writer mutable
//! side. All read state lives in [`StoreShared`]: the active memstore behind
//! a `RwLock`, and an `Arc`-swapped [`StoreView`] holding the frozen
//! memstores and the immutable file set. Readers ([`StoreReader`] handles,
//! or `&self` methods on [`CfStore`]) capture a consistent view by taking
//! the active-memstore read lock and cloning the view `Arc` *while holding
//! it*; from then on they work off their own `Arc` and never block the
//! writer. The writer (whoever owns `&mut CfStore`) is the only party that
//! mutates: `flush` freezes the active memstore behind an `Arc` under both
//! locks (so no reader can observe the edits in neither place), builds the
//! HFile off the frozen copy with **no locks held**, then swaps the view —
//! the immutable-memstore handoff. Compactions likewise build off a captured
//! view and swap atomically, so a reader holding an old view keeps reading
//! the pre-compaction files. Lock order is always active-before-view.

use crate::block_cache::{AccessCounter, FileId, SharedBlockCache};
use crate::bloom::row_hash;
use crate::error::{CorruptionKind, HStoreError, Result};
use crate::hfile::{HFile, HFileBuilder, HFileScanIter};
use crate::maintenance::{MaintenanceConfig, MaintenanceHandle, MaintenanceSnapshot};
use crate::types::{CellVersion, InternalKey, KeyRange, KeyRef, Qualifier, RowKey, Timestamp};
use crate::wal::{ReplayStop, Wal, WalConfig};
use bytes::Bytes;
use parking_lot::RwLock;
use simcore::SimDuration;
use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::memstore::{MemRangeIter, MemStore};

/// Marks [`FileId`]s that actually name a WAL segment in
/// [`HStoreError::Corruption`] reports (`WAL_FILE_ID_BASE | segment`).
/// HFile ids are allocated sequentially from 1 and can never reach it.
pub const WAL_FILE_ID_BASE: u64 = 1 << 63;

/// Allocates unique [`FileId`]s across every store of a process.
#[derive(Debug, Default)]
pub struct FileIdAllocator(AtomicU64);

impl FileIdAllocator {
    /// Creates an allocator starting at id 1.
    pub fn new() -> Arc<Self> {
        Arc::new(FileIdAllocator(AtomicU64::new(1)))
    }

    /// Returns the next unused id.
    pub fn next(&self) -> FileId {
        FileId(self.0.fetch_add(1, Ordering::Relaxed))
    }
}

/// Counters describing read-path work, for the performance model and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadPathStats {
    /// Files consulted by point reads (after Bloom filtering).
    pub files_probed: u64,
    /// Point reads answered entirely by the memstore.
    pub memstore_hits: u64,
    /// Files skipped by their Bloom filter.
    pub bloom_skips: u64,
}

/// Rows returned by a scan: each live row's cells in column order.
pub type ScanRows = Vec<(RowKey, Vec<(Qualifier, Bytes)>)>;

/// The work one operation actually performed on the storage engine.
///
/// Reported by the canonical fallible read paths so service-time costing can
/// charge each operation for *its own* cache hits and disk block reads.
/// The shared block cache's global [`crate::CacheStats`] cannot provide
/// this: with two scans interleaved on one server, a before/after delta
/// attributes the other scan's blocks to whichever op reads the counters,
/// so per-op work must be counted on the op's own path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Blocks this operation found resident in the cache.
    pub cache_hits: u64,
    /// Blocks this operation read from disk (cache misses).
    pub blocks_read: u64,
    /// Whether the memstore answered (point reads) or absorbed (writes)
    /// the operation without touching any file.
    pub memstore: bool,
}

impl OpStats {
    /// An op fully absorbed by the memstore (insert, or a read it answered).
    pub fn memstore_only() -> Self {
        OpStats { memstore: true, ..OpStats::default() }
    }

    /// Folds another op's work into this one (multi-region scans).
    pub fn absorb(&mut self, other: OpStats) {
        self.cache_hits += other.cache_hits;
        self.blocks_read += other.blocks_read;
        self.memstore |= other.memstore;
    }

    /// Total blocks touched, resident or not.
    pub fn blocks_touched(&self) -> u64 {
        self.cache_hits + self.blocks_read
    }
}

/// Outcome of a flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushOutcome {
    /// The id of the newly written file.
    pub file: FileId,
    /// Bytes written.
    pub bytes: u64,
}

/// Outcome of a compaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Files that were replaced (their cache blocks are invalidated).
    pub replaced: Vec<FileId>,
    /// The merged output file.
    pub output: FileId,
    /// Bytes read plus written — drives the modelled compaction duration
    /// (the paper observes ≈ 1 minute/GB for major compactions, §6.2).
    pub bytes_rewritten: u64,
}

/// Everything of a [`CfStore`] that survives process death: the immutable
/// files plus the synced portion of the WAL. Produced by
/// [`CfStore::crash`], consumed by [`CfStore::recover`]. The crash nemesis
/// damages state through the `corrupt_*` hooks before recovering.
#[derive(Debug)]
pub struct DurableState {
    files: Vec<Arc<HFile>>,
    wal: Option<Wal>,
    block_size: u64,
}

impl DurableState {
    /// Surviving immutable files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Durable WAL bytes that recovery will have to scan.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::durable_bytes)
    }

    /// Injects bit-rot into block `block` of file `file` (if both exist).
    pub fn corrupt_file_block(&mut self, file: FileId, block: usize) -> bool {
        for f in &mut self.files {
            if f.id() == file {
                return Arc::make_mut(f).corrupt_block(block);
            }
        }
        false
    }

    /// Flips one durable WAL byte (see [`Wal::corrupt_byte`]).
    pub fn corrupt_wal_byte(&mut self, segment: usize, offset: u64) {
        if let Some(wal) = &mut self.wal {
            wal.corrupt_byte(segment, offset);
        }
    }
}

/// What [`CfStore::recover`] did to bring the store back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL records replayed into the memstore.
    pub replayed_records: u64,
    /// Durable WAL bytes scanned.
    pub replayed_bytes: u64,
    /// Torn tail truncated during replay: `(segment, byte offset)`.
    pub torn_tail: Option<(u64, u64)>,
    /// HFiles whose blocks were checksum-scrubbed.
    pub files_verified: usize,
    /// Modeled recovery time (WAL scan at the configured replay rate).
    pub cost: SimDuration,
}

/// The immutable portion of the read path, swapped atomically behind an
/// `Arc`: frozen (mid-flush) memstores newest → oldest, then the file set
/// oldest → newest. A reader cloning the `Arc` keeps this exact state for
/// as long as it likes — compactions and flushes publish *new* views, they
/// never mutate a published one.
#[derive(Debug)]
pub(crate) struct StoreView {
    /// Memstores frozen by an in-flight flush, newest → oldest. Empty
    /// whenever no flush is running, so single-threaded behaviour is
    /// byte-identical to the pre-concurrency engine.
    pub(crate) frozen: Vec<Arc<MemStore>>,
    /// Immutable files, oldest → newest.
    pub(crate) files: Vec<Arc<HFile>>,
}

/// The shared read side of a store: everything a concurrent reader needs.
/// Readers take `active`'s read lock *first*, clone `view` while holding
/// it, then drop locks as early as the operation allows (point reads drop
/// `active` before touching files; scans hold it for the merge). The writer
/// takes both write locks only for the brief freeze/swap windows.
#[derive(Debug)]
pub(crate) struct StoreShared {
    pub(crate) active: RwLock<MemStore>,
    pub(crate) view: RwLock<Arc<StoreView>>,
    pub(crate) cache: SharedBlockCache,
    memstore_hits: AtomicU64,
    files_probed: AtomicU64,
    bloom_skips: AtomicU64,
    /// Live immutable-file count, maintained at every view swap that
    /// changes the file list. The write path polls this once per put for
    /// file-count backpressure; reading it here instead of taking the
    /// `view` read lock keeps the poll off the lock readers contend on.
    files_live: AtomicUsize,
}

impl StoreShared {
    fn new(cache: SharedBlockCache) -> Self {
        StoreShared {
            active: RwLock::new(MemStore::new()),
            view: RwLock::new(Arc::new(StoreView { frozen: Vec::new(), files: Vec::new() })),
            cache,
            memstore_hits: AtomicU64::new(0),
            files_probed: AtomicU64::new(0),
            bloom_skips: AtomicU64::new(0),
            files_live: AtomicUsize::new(0),
        }
    }

    /// The point-read path. Checks the active memstore under its read lock,
    /// drops the lock, then walks the captured view (frozen memstores
    /// newest-first, files newest-first) without holding any lock.
    fn try_get(&self, row: &RowKey, qualifier: &Qualifier) -> Result<(Option<Bytes>, OpStats)> {
        let mut stats = OpStats::default();
        // Hashed once: every memstore row filter and file Bloom filter
        // probed below takes its bits from this one hash.
        let hash = row_hash(row.as_bytes());
        let view = {
            let active = self.active.read();
            let view = self.view.read().clone();
            if let Some(v) = active.get_newest_hashed(row, qualifier, hash) {
                self.memstore_hits.fetch_add(1, Ordering::Relaxed);
                stats.memstore = true;
                return Ok((v, stats)); // tombstone → None
            }
            view
        };
        for mem in &view.frozen {
            if let Some(v) = mem.get_newest_hashed(row, qualifier, hash) {
                self.memstore_hits.fetch_add(1, Ordering::Relaxed);
                stats.memstore = true;
                return Ok((v, stats));
            }
        }
        for file in view.files.iter().rev() {
            let (result, bloom_rejected, access) =
                file.get_hashed(row, qualifier, hash, &self.cache)?;
            match access {
                Some(crate::Access::Hit) => stats.cache_hits += 1,
                Some(crate::Access::Miss) => stats.blocks_read += 1,
                None => {}
            }
            if bloom_rejected {
                self.bloom_skips.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.files_probed.fetch_add(1, Ordering::Relaxed);
            if let Some(v) = result {
                return Ok((v, stats));
            }
        }
        Ok((None, stats))
    }

    /// The merged scan underlying every range read: captures the view,
    /// loser-tree merges active + frozen + files, and reports whether any
    /// memstore held data (for [`OpStats::memstore`]).
    fn scan_with(
        &self,
        range: &KeyRange,
        row_limit: usize,
        counter: Option<&AccessCounter>,
    ) -> (ScanRows, bool) {
        let active = self.active.read();
        let view = self.view.read().clone();
        let memstore = !active.is_empty() || view.frozen.iter().any(|m| !m.is_empty());
        let tree = build_cursors(
            std::iter::once(&*active).chain(view.frozen.iter().map(|m| &**m)),
            &view.files,
            &self.cache,
            range,
            counter,
        );
        (collect_rows(tree, row_limit), memstore)
    }

    fn scan_range_with_stats(&self, range: &KeyRange, row_limit: usize) -> (ScanRows, OpStats) {
        let counter = AccessCounter::new();
        let (rows, memstore) = self.scan_with(range, row_limit, Some(&counter));
        let stats = OpStats { cache_hits: counter.hits(), blocks_read: counter.misses(), memstore };
        (rows, stats)
    }

    /// Every cell version in `range`, newest-first per coordinate.
    fn export_range(&self, range: &KeyRange) -> Vec<CellVersion> {
        let active = self.active.read();
        let view = self.view.read().clone();
        let tree = build_cursors(
            std::iter::once(&*active).chain(view.frozen.iter().map(|m| &**m)),
            &view.files,
            &self.cache,
            range,
            None,
        );
        export_cells(tree)
    }

    /// A stable [`StoreSnapshot`]: clones the active memstore (O(its size);
    /// values are `Bytes` refcount bumps) and shares the frozen/file `Arc`s.
    fn snapshot(&self) -> StoreSnapshot {
        let active = self.active.read();
        let view = self.view.read().clone();
        let mut mems = Vec::with_capacity(1 + view.frozen.len());
        mems.push(Arc::new(active.clone()));
        mems.extend(view.frozen.iter().cloned());
        StoreSnapshot { mems, files: view.files.clone(), cache: self.cache.clone() }
    }

    /// Freezes the active memstore into the view's frozen list (front =
    /// newest) under both write locks, so no reader can catch the edits in
    /// neither place. Returns `None` when the active memstore is empty.
    /// This is the first half of every flush — inline or background.
    pub(crate) fn freeze_active(&self) -> Option<Arc<MemStore>> {
        let mut active = self.active.write();
        if active.is_empty() {
            return None;
        }
        let mut view = self.view.write();
        let frozen = Arc::new(std::mem::take(&mut *active));
        let mut next_frozen = Vec::with_capacity(view.frozen.len() + 1);
        next_frozen.push(frozen.clone());
        next_frozen.extend(view.frozen.iter().cloned());
        *view = Arc::new(StoreView { frozen: next_frozen, files: view.files.clone() });
        Some(frozen)
    }

    /// Publishes a finished flush: the frozen memstore leaves the view as
    /// its file enters it, in one atomic swap. The read-modify-write runs
    /// entirely inside the view write lock, so concurrent freezes and
    /// compaction swaps serialize against it.
    pub(crate) fn publish_flush(&self, frozen: &Arc<MemStore>, file: Arc<HFile>) {
        self.publish_flush_batch(&[frozen], file);
    }

    /// [`StoreShared::publish_flush`] for a batched build: every memstore
    /// in `frozen` leaves the view as their single merged file enters it,
    /// in one atomic swap.
    pub(crate) fn publish_flush_batch(&self, frozen: &[&Arc<MemStore>], file: Arc<HFile>) {
        let mut view = self.view.write();
        let next_frozen: Vec<Arc<MemStore>> = view
            .frozen
            .iter()
            .filter(|m| !frozen.iter().any(|f| Arc::ptr_eq(m, f)))
            .cloned()
            .collect();
        let mut next_files = view.files.clone();
        next_files.push(file);
        self.files_live.store(next_files.len(), Ordering::Release);
        *view = Arc::new(StoreView { frozen: next_frozen, files: next_files });
    }

    /// Publishes a compaction: removes `replaced` from the file list and
    /// inserts `output` at the position of the first replaced file, so a
    /// merged contiguous run keeps the oldest→newest ordering invariant
    /// even when flushes appended new files after the inputs were chosen.
    /// Returns `false` (without swapping) if none of `replaced` is present.
    pub(crate) fn replace_files(&self, replaced: &[FileId], output: Arc<HFile>) -> bool {
        {
            let mut view = self.view.write();
            let mut next_files = Vec::with_capacity(view.files.len() + 1 - replaced.len().min(1));
            let mut placed = false;
            for f in view.files.iter() {
                if replaced.contains(&f.id()) {
                    if !placed {
                        next_files.push(output.clone());
                        placed = true;
                    }
                } else {
                    next_files.push(f.clone());
                }
            }
            if !placed {
                return false;
            }
            self.files_live.store(next_files.len(), Ordering::Release);
            *view = Arc::new(StoreView { frozen: view.frozen.clone(), files: next_files });
        }
        for id in replaced {
            self.cache.invalidate_file(*id);
        }
        true
    }

    /// Heap footprint of the active memstore.
    pub(crate) fn active_heap_bytes(&self) -> usize {
        self.active.read().heap_bytes()
    }

    /// Frozen memstores currently awaiting a background flush, plus their
    /// total heap bytes (the flush debt).
    pub(crate) fn frozen_debt(&self) -> (usize, u64) {
        let view = self.view.read().clone();
        let bytes = view.frozen.iter().map(|m| m.heap_bytes() as u64).sum();
        (view.frozen.len(), bytes)
    }

    /// Current immutable file count, from the maintained tally — no view
    /// lock taken (this is on the per-put backpressure poll path).
    pub(crate) fn file_count(&self) -> usize {
        self.files_live.load(Ordering::Acquire)
    }

    /// The current immutable file set, oldest → newest.
    pub(crate) fn files_snapshot(&self) -> Vec<Arc<HFile>> {
        self.view.read().files.clone()
    }

    fn read_stats(&self) -> ReadPathStats {
        ReadPathStats {
            files_probed: self.files_probed.load(Ordering::Relaxed),
            memstore_hits: self.memstore_hits.load(Ordering::Relaxed),
            bloom_skips: self.bloom_skips.load(Ordering::Relaxed),
        }
    }
}

/// One column family's storage.
///
/// Reads take `&self` and are safe from any number of threads via
/// [`CfStore::reader`] handles; writes (`put`, `delete`, `flush`,
/// compaction) take `&mut self` — one writer, many readers, enforced by the
/// type system rather than a lock.
#[derive(Debug)]
pub struct CfStore {
    shared: Arc<StoreShared>,
    ids: Arc<FileIdAllocator>,
    block_size: u64,
    next_ts: u64,
    /// Write-ahead log; `None` (the default) keeps the legacy volatile
    /// write path byte for byte.
    wal: Option<Wal>,
    /// Background maintenance pipeline; `None` (the default) keeps flushes
    /// and compactions inline on the writer, byte for byte.
    maintenance: Option<MaintenanceHandle>,
    /// Writer-local mirror of the active memstore's heap bytes, updated
    /// from each insert's returned delta. The per-put flush-threshold
    /// check reads this instead of re-taking the `active` read lock that
    /// every concurrent reader contends on.
    active_bytes: usize,
}

impl CfStore {
    /// Creates an empty store writing blocks of `block_size` bytes.
    pub fn new(cache: SharedBlockCache, ids: Arc<FileIdAllocator>, block_size: u64) -> Self {
        assert!(block_size > 0);
        CfStore {
            shared: Arc::new(StoreShared::new(cache)),
            ids,
            block_size,
            next_ts: 1,
            wal: None,
            maintenance: None,
            active_bytes: 0,
        }
    }

    /// Starts the background maintenance pipeline: from here on the write
    /// path only appends to the WAL and active memstore; crossing the
    /// flush threshold freezes the memstore (the cheap `Arc` handoff) and
    /// hands it to a background flusher, and file-count triggers feed a
    /// background compactor pool. Backpressure (a bounded frozen queue and
    /// a blocking-store-files limit) first throttles, then stalls the
    /// writer — see [`crate::maintenance::MaintenanceConfig`]. No-op if
    /// already started. The pipeline runs until the store is dropped,
    /// which closes and joins its workers, or [`CfStore::crash`]ed.
    pub fn start_maintenance(&mut self, cfg: MaintenanceConfig) {
        if self.maintenance.is_none() {
            self.maintenance = Some(MaintenanceHandle::start(
                self.shared.clone(),
                self.ids.clone(),
                self.block_size,
                cfg,
            ));
        }
    }

    /// Whether the background maintenance pipeline is running.
    pub fn maintenance_enabled(&self) -> bool {
        self.maintenance.is_some()
    }

    /// Counters of the background pipeline (queue depths, stall time,
    /// debt), if it is running.
    pub fn maintenance_snapshot(&self) -> Option<MaintenanceSnapshot> {
        self.maintenance.as_ref().map(|m| m.snapshot(&self.shared))
    }

    /// Blocks until every queued background flush and compaction has
    /// completed and published, then applies any WAL truncation the
    /// background flushes earned. A quiesce point: afterwards the frozen
    /// queue is empty and no compaction is in flight.
    pub fn drain_maintenance(&mut self) {
        if let Some(m) = &self.maintenance {
            m.drain();
            if let (Some(wal), Some(through)) = (&mut self.wal, m.take_pending_truncation()) {
                wal.truncate_sealed_through(through);
            }
        }
    }

    /// The write-path maintenance hook: applies deferred WAL truncations,
    /// freezes + enqueues the memstore when it crosses the flush
    /// threshold, and applies backpressure (throttle, then stall) when the
    /// frozen queue or the store-file count runs too far ahead of the
    /// background workers.
    fn maintenance_tick(&mut self) {
        let Some(m) = &self.maintenance else {
            return;
        };
        if let (Some(wal), Some(through)) = (&mut self.wal, m.take_pending_truncation()) {
            wal.truncate_sealed_through(through);
        }
        if self.active_bytes >= m.config().memstore_flush_bytes {
            // Bounded frozen queue: stall until the flusher catches up.
            m.stall_for_frozen_capacity(&self.shared);
            // Seal the WAL segments covering the about-to-freeze edits;
            // the flusher reports the seal index back for truncation once
            // the HFile is published. A failed rotation sync (armed disk
            // fault) skips the freeze — nothing is lost, the next write
            // retries.
            let sealed_through = match &mut self.wal {
                Some(wal) => match wal.rotate() {
                    Ok(idx) => Some(idx),
                    Err(_) => return,
                },
                None => None,
            };
            if let Some(frozen) = self.shared.freeze_active() {
                self.active_bytes = 0;
                m.enqueue_flush(frozen, sealed_through);
            }
        }
        m.backpressure_on_files(&self.shared);
    }

    /// A cheap cloneable read handle sharing this store's live state.
    /// Readers holding one proceed while the owner of `&mut CfStore`
    /// flushes or compacts.
    pub fn reader(&self) -> StoreReader {
        StoreReader { shared: self.shared.clone() }
    }

    /// A stable point-in-time view (see [`StoreSnapshot`]). Costs a clone
    /// of the active memstore, so prefer [`CfStore::reader`] for hot reads.
    pub fn snapshot(&self) -> StoreSnapshot {
        self.shared.snapshot()
    }

    /// Attaches a write-ahead log. From here on every put/delete is
    /// appended (and, per the group-commit policy, synced) before the
    /// memstore sees it, so [`CfStore::crash`] + [`CfStore::recover`]
    /// restore all acknowledged writes.
    pub fn enable_wal(&mut self, cfg: WalConfig) {
        self.wal = Some(Wal::new(cfg));
    }

    /// The attached WAL, if any.
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Mutable access to the WAL — group-commit `sync()` calls and fault
    /// arming go through here.
    pub fn wal_mut(&mut self) -> Option<&mut Wal> {
        self.wal.as_mut()
    }

    /// Writes a value; returns the assigned timestamp.
    ///
    /// # Panics
    ///
    /// With a WAL attached and a disk fault armed the append can fail;
    /// this infallible wrapper panics then. Fault-injecting callers use
    /// [`CfStore::try_put`].
    #[inline]
    pub fn put(&mut self, row: RowKey, qualifier: Qualifier, value: Bytes) -> Timestamp {
        self.try_put(row, qualifier, value).expect("WAL append failed").0
    }

    /// The canonical write: WAL-first (the record must be durable — or at
    /// least staged, under group commit — before the memstore accepts it),
    /// reporting the assigned timestamp and the op's work. On `Err`
    /// nothing was applied and the write is unacknowledged.
    pub fn try_put(
        &mut self,
        row: RowKey,
        qualifier: Qualifier,
        value: Bytes,
    ) -> Result<(Timestamp, OpStats)> {
        let ts = Timestamp(self.next_ts);
        let key = InternalKey::new(row, qualifier, ts);
        if let Some(wal) = &mut self.wal {
            wal.append(&key, Some(&value))?;
        }
        self.next_ts += 1;
        let delta = self.shared.active.write().insert(key, Some(value));
        self.active_bytes = self.active_bytes.saturating_add_signed(delta);
        self.maintenance_tick();
        Ok((ts, OpStats::memstore_only()))
    }

    /// Deletes a cell by writing a tombstone; returns the tombstone's
    /// timestamp.
    ///
    /// # Panics
    ///
    /// Like [`CfStore::put`], panics if an armed disk fault fails the WAL
    /// append; fault-injecting callers use [`CfStore::try_delete`].
    #[inline]
    pub fn delete(&mut self, row: RowKey, qualifier: Qualifier) -> Timestamp {
        self.try_delete(row, qualifier).expect("WAL append failed").0
    }

    /// The canonical delete: writes a tombstone WAL-first (see
    /// [`CfStore::try_put`]).
    pub fn try_delete(
        &mut self,
        row: RowKey,
        qualifier: Qualifier,
    ) -> Result<(Timestamp, OpStats)> {
        let ts = Timestamp(self.next_ts);
        let key = InternalKey::new(row, qualifier, ts);
        if let Some(wal) = &mut self.wal {
            wal.append(&key, None)?;
        }
        self.next_ts += 1;
        let delta = self.shared.active.write().insert(key, None);
        self.active_bytes = self.active_bytes.saturating_add_signed(delta);
        self.maintenance_tick();
        Ok((ts, OpStats::memstore_only()))
    }

    /// Atomically compares the current value and writes `new` if it
    /// matches `expected` (`None` = expects absence). Returns whether the
    /// write happened — HBase's `checkAndPut`, the primitive behind its
    /// "write operations are atomic" guarantee (§2.1).
    #[inline]
    pub fn check_and_put(
        &mut self,
        row: RowKey,
        qualifier: Qualifier,
        expected: Option<&Bytes>,
        new: Bytes,
    ) -> Result<bool> {
        self.try_check_and_put(row, qualifier, expected, new).map(|(done, _)| done)
    }

    /// The canonical compare-and-set, reporting the read-modify-write's
    /// work. Atomicity comes from the single-writer rule: this takes
    /// `&mut self`, so no other write can interleave with the read.
    pub fn try_check_and_put(
        &mut self,
        row: RowKey,
        qualifier: Qualifier,
        expected: Option<&Bytes>,
        new: Bytes,
    ) -> Result<(bool, OpStats)> {
        let (current, stats) = self.try_get(&row, &qualifier)?;
        if current.as_ref() == expected {
            self.try_put(row, qualifier, new)?;
            Ok((true, stats))
        } else {
            Ok((false, stats))
        }
    }

    /// Atomically adds `delta` to a cell holding a decimal integer
    /// (absent cells count as 0) and returns the new value — HBase's
    /// `incrementColumnValue`.
    #[inline]
    pub fn increment(&mut self, row: RowKey, qualifier: Qualifier, delta: i64) -> Result<i64> {
        self.try_increment(row, qualifier, delta).map(|(v, _)| v)
    }

    /// The canonical increment, reporting the read-modify-write's work.
    pub fn try_increment(
        &mut self,
        row: RowKey,
        qualifier: Qualifier,
        delta: i64,
    ) -> Result<(i64, OpStats)> {
        let (current, stats) = self.try_get(&row, &qualifier)?;
        let current = current
            .and_then(|v| std::str::from_utf8(&v).ok().and_then(|s| s.parse::<i64>().ok()))
            .unwrap_or(0);
        let next = current + delta;
        self.try_put(row, qualifier, Bytes::from(next.to_string().into_bytes()))?;
        Ok((next, stats))
    }

    /// Reads the newest live value at `(row, qualifier)`.
    ///
    /// # Panics
    ///
    /// Panics on detected block corruption; corruption-aware callers use
    /// [`CfStore::try_get`].
    #[inline]
    pub fn get(&self, row: &RowKey, qualifier: &Qualifier) -> Option<Bytes> {
        self.get_with_stats(row, qualifier).0
    }

    /// [`CfStore::get`] reporting which blocks the read touched and whether
    /// the memstore answered it. Panics on detected block corruption (see
    /// [`CfStore::try_get`]).
    #[inline]
    pub fn get_with_stats(&self, row: &RowKey, qualifier: &Qualifier) -> (Option<Bytes>, OpStats) {
        self.try_get(row, qualifier).expect("corrupted HFile block on read path")
    }

    /// The canonical point read. Cold block reads verify checksums, so
    /// bit-rot surfaces here as [`HStoreError::Corruption`] instead of a
    /// silently wrong answer.
    pub fn try_get(&self, row: &RowKey, qualifier: &Qualifier) -> Result<(Option<Bytes>, OpStats)> {
        self.shared.try_get(row, qualifier)
    }

    /// Scans up to `row_limit` rows starting at `start` (inclusive),
    /// returning each live row's cells in column order.
    pub fn scan(&self, start: &RowKey, row_limit: usize) -> ScanRows {
        self.scan_range(&KeyRange::new(Some(start.clone()), None), row_limit)
    }

    /// Scans up to `row_limit` rows within `range`.
    pub fn scan_range(&self, range: &KeyRange, row_limit: usize) -> ScanRows {
        self.shared.scan_with(range, row_limit, None).0
    }

    /// [`CfStore::scan_range`] reporting the blocks this scan (and only
    /// this scan) entered across every file it merged.
    pub fn scan_range_with_stats(&self, range: &KeyRange, row_limit: usize) -> (ScanRows, OpStats) {
        self.shared.scan_range_with_stats(range, row_limit)
    }

    /// Flushes the memstore into a new file. Returns `None` when there was
    /// nothing to flush.
    ///
    /// This is the immutable-memstore handoff: the active memstore is
    /// frozen behind an `Arc` and published in the view (readers keep
    /// seeing every edit throughout), the HFile is built off the frozen
    /// copy with no locks held, and the finished file replaces the frozen
    /// memstore in one atomic view swap.
    ///
    /// With a WAL attached the flush first rotates the log (sealing the
    /// segments that cover the flushed edits behind a final sync) and,
    /// once the file is built, truncates those sealed segments — the edits
    /// are durable in the HFile now. If the rotation's sync fails (an
    /// armed disk fault) the flush aborts with nothing lost: memstore and
    /// log are untouched and `None` is returned.
    pub fn flush(&mut self) -> Option<FlushOutcome> {
        // With the background pipeline running, quiesce it first: an
        // inline flush truncates every sealed WAL segment, which is only
        // sound once no frozen memstore still depends on one.
        self.drain_maintenance();
        if self.shared.active.read().is_empty() {
            return None;
        }
        if let Some(wal) = &mut self.wal {
            if wal.rotate().is_err() {
                return None;
            }
        }
        // Freeze: move the active memstore into the view's frozen list
        // under both write locks, so no reader can catch the edits in
        // neither place (readers lock active before cloning the view).
        let frozen = self.shared.freeze_active().expect("non-empty memstore freezes");
        self.active_bytes = 0;
        // Build the file off the frozen copy — no locks held, readers
        // proceed against the published view.
        let file = Arc::new(write_merged(&[&frozen], &[], self.ids.next(), self.block_size, false));
        let outcome = FlushOutcome { file: file.id(), bytes: file.total_bytes() };
        // Swap: the frozen memstore leaves the view as the file enters it.
        self.shared.publish_flush(&frozen, file);
        if let Some(wal) = &mut self.wal {
            wal.truncate_sealed();
        }
        Some(outcome)
    }

    /// Simulates process death: the memstore (active and frozen) and any
    /// staged-but-unsynced WAL bytes vanish; immutable files and synced WAL
    /// segments survive as the [`DurableState`] a replacement process
    /// reopens.
    pub fn crash(self) -> DurableState {
        // Process death takes the background workers with it: queued jobs
        // are abandoned (their frozen memstores vanish — the WAL segments
        // covering them were never truncated, so recovery replays them)
        // and any truncation earned by already-published flushes is simply
        // lost, which only means recovery replays a little extra.
        if let Some(m) = self.maintenance {
            m.abandon();
        }
        let files = self.shared.view.read().files.clone();
        DurableState { files, wal: self.wal.map(Wal::into_durable), block_size: self.block_size }
    }

    /// Reopens a store from its durable state: every HFile is
    /// checksum-scrubbed, then the WAL is replayed into a fresh memstore.
    ///
    /// A torn tail (incomplete or checksum-failing frame at the end of the
    /// last segment) is truncated and reported — the normal aftermath of a
    /// crash, never a panic. Damage anywhere else (a rotted HFile block or
    /// a mid-log WAL frame) fails recovery with a typed
    /// [`HStoreError::Corruption`] naming the file and offset; for WAL
    /// damage the file id is `WAL_FILE_ID_BASE | segment`.
    ///
    /// Pass the same `ids` allocator that numbered the original store's
    /// files so post-recovery flushes cannot collide with surviving ids.
    pub fn recover(
        state: DurableState,
        cache: SharedBlockCache,
        ids: Arc<FileIdAllocator>,
    ) -> Result<(CfStore, RecoveryReport)> {
        let mut max_ts = 0u64;
        for file in &state.files {
            file.verify_checksums()?;
            max_ts = max_ts.max(file.max_ts());
        }
        let mut store = CfStore::new(cache, ids, state.block_size);
        store.shared.files_live.store(state.files.len(), Ordering::Release);
        *store.shared.view.write() = Arc::new(StoreView { frozen: Vec::new(), files: state.files });
        let mut report = RecoveryReport {
            replayed_records: 0,
            replayed_bytes: 0,
            torn_tail: None,
            files_verified: store.file_count(),
            cost: SimDuration(0),
        };
        if let Some(wal) = state.wal {
            let replay = wal.replay();
            match replay.stop {
                Some(ReplayStop::Corrupt { segment, offset }) => {
                    return Err(HStoreError::Corruption {
                        file: FileId(WAL_FILE_ID_BASE | segment),
                        offset,
                        cause: CorruptionKind::WalRecord,
                    });
                }
                Some(ReplayStop::TornTail { segment, offset }) => {
                    report.torn_tail = Some((segment, offset));
                }
                None => {}
            }
            {
                let mut active = store.shared.active.write();
                for record in &replay.records {
                    max_ts = max_ts.max(record.key.ts.0);
                    active.insert(record.key.clone(), record.value.clone());
                }
            }
            report.replayed_records = replay.records.len() as u64;
            report.replayed_bytes = replay.scanned_bytes;
            report.cost = replay.cost;
            store.wal = Some(wal);
        }
        store.next_ts = max_ts + 1;
        store.active_bytes = store.shared.active_heap_bytes();
        Ok((store, report))
    }

    /// Injects bit-rot into block `block` of live file `file` (nemesis
    /// hook for read-path corruption tests). Returns whether both exist.
    pub fn corrupt_file_block(&mut self, file: FileId, block: usize) -> bool {
        let mut view = self.shared.view.write();
        let mut files = view.files.clone();
        let mut hit = false;
        for f in &mut files {
            if f.id() == file {
                hit = Arc::make_mut(f).corrupt_block(block);
                break;
            }
        }
        if hit {
            *view = Arc::new(StoreView { frozen: view.frozen.clone(), files });
        }
        hit
    }

    /// Merges the oldest `k` files into one (minor compaction), keeping each
    /// coordinate's newest version, tombstones included: only a major
    /// compaction may drop them.
    pub fn compact_minor(&mut self, k: usize) -> Option<CompactionOutcome> {
        self.drain_maintenance();
        let files = self.shared.view.read().files.clone();
        if files.len() < 2 || k < 2 {
            return None;
        }
        let k = k.min(files.len());
        self.merge_files(&files[..k], false)
    }

    /// Merges *all* files into one, keeping each coordinate's newest version
    /// and dropping tombstones, which have nothing older left to mask —
    /// HBase's major compact, which also restores DFS locality (§2.1).
    pub fn compact_major(&mut self) -> Option<CompactionOutcome> {
        self.drain_maintenance();
        let files = self.shared.view.read().files.clone();
        if files.is_empty() {
            return None;
        }
        self.merge_files(&files, true)
    }

    /// Merges `inputs` (a contiguous run of the current file list) into one
    /// file and swaps the view. Readers holding the pre-compaction view
    /// keep reading the replaced files — their `Arc`s stay alive until the
    /// last snapshot drops.
    fn merge_files(&mut self, inputs: &[Arc<HFile>], major: bool) -> Option<CompactionOutcome> {
        let file = write_merged(&[], inputs, self.ids.next(), self.block_size, major);
        let replaced: Vec<FileId> = inputs.iter().map(|f| f.id()).collect();
        let bytes_read: u64 = inputs.iter().map(|f| f.total_bytes()).sum();
        let bytes_written = file.total_bytes();
        let output = file.id();
        if !self.shared.replace_files(&replaced, Arc::new(file)) {
            return None;
        }
        Some(CompactionOutcome { replaced, output, bytes_rewritten: bytes_read + bytes_written })
    }

    /// Current (active) memstore footprint in bytes.
    pub fn memstore_bytes(&self) -> usize {
        self.shared.active.read().heap_bytes()
    }

    /// Total bytes across immutable files.
    pub fn file_bytes(&self) -> u64 {
        self.shared.view.read().files.iter().map(|f| f.total_bytes()).sum()
    }

    /// Number of immutable files (read amplification indicator).
    pub fn file_count(&self) -> usize {
        self.shared.file_count()
    }

    /// Ids and sizes of the current files (DFS registration).
    pub fn file_manifest(&self) -> Vec<(FileId, u64)> {
        self.shared.view.read().files.iter().map(|f| (f.id(), f.total_bytes())).collect()
    }

    /// Read-path statistics.
    pub fn read_stats(&self) -> ReadPathStats {
        self.shared.read_stats()
    }

    /// A row at roughly the byte-midpoint of the stored data — HBase's
    /// split-point heuristic (the middle block of the largest store file).
    pub fn midpoint_row(&self) -> Option<RowKey> {
        let view = self.shared.view.read().clone();
        let largest = view.files.iter().max_by_key(|f| f.total_bytes());
        if let Some(f) = largest {
            if f.block_count() > 1 {
                // First row of the middle block, off the block index.
                return f.block_first_row(f.block_count() / 2).map(RowKey::from);
            }
        }
        // Fall back to the median memstore row.
        self.shared.active.read().median_row().cloned()
    }

    /// Every cell version in `range`, newest-first per coordinate — used to
    /// physically split a region.
    pub fn export_range(&self, range: &KeyRange) -> Vec<CellVersion> {
        self.shared.export_range(range)
    }

    /// Rebuilds a store from exported cells (post-split daughter region).
    /// The data lands as a single flushed file, mirroring HBase's post-split
    /// reference-file compaction.
    pub fn from_cells(
        cache: SharedBlockCache,
        ids: Arc<FileIdAllocator>,
        block_size: u64,
        cells: Vec<CellVersion>,
        next_ts: u64,
    ) -> Self {
        let mut store = CfStore::new(cache, ids, block_size);
        store.next_ts = next_ts;
        if !cells.is_empty() {
            let mut sorted = cells;
            sorted.sort_by(|a, b| a.key.cmp(&b.key));
            let file = HFile::build(store.ids.next(), sorted, block_size);
            store.shared.files_live.store(1, Ordering::Release);
            *store.shared.view.write() =
                Arc::new(StoreView { frozen: Vec::new(), files: vec![Arc::new(file)] });
        }
        store
    }

    /// The timestamp the next write would receive (split bookkeeping).
    pub fn next_ts(&self) -> u64 {
        self.next_ts
    }
}

/// The heavy half of every flush and compaction, inline or background:
/// loser-tree merges `mems` (a flush: one frozen memstore, or a backlog
/// batch whose key ranges may overlap) or `files` (a compaction: a
/// contiguous run, oldest → newest) into one file, by reference and with
/// **no store locks held**.
///
/// Retention is HBase at `VERSIONS = 1`: only the newest version of each
/// coordinate is written. A tombstone is kept — in a flush or minor
/// compaction it may mask a value in an older file outside the inputs —
/// unless `drop_tombstones` is set, which only a major compaction (whose
/// inputs are every file) may do.
pub(crate) fn write_merged(
    mems: &[&Arc<MemStore>],
    files: &[Arc<HFile>],
    out_id: FileId,
    block_size: u64,
    drop_tombstones: bool,
) -> HFile {
    // Compaction reads bypass the block cache (HBase does not pollute
    // the cache with compaction IO): scan through a zero-capacity
    // scratch cache that admits nothing, merging by reference so only
    // surviving keys are copied, once, into the output's arenas.
    let scratch = SharedBlockCache::new(0);
    let all = KeyRange::all();
    let cursors = mems
        .iter()
        .map(|m| Cursor::mem(m.range_iter(&all)))
        .chain(files.iter().map(|f| Cursor::file(f.range_scan(&all, &scratch))))
        .collect();
    // The input cell count bounds the output's; `finish` re-sizes the
    // Bloom filter only if what survived needs fewer bits.
    let expected = mems.iter().map(|m| m.len()).sum::<usize>()
        + files.iter().map(|f| f.entry_count() as usize).sum::<usize>();
    let mut out = HFileBuilder::new(out_id, block_size, expected);
    let mut last_coord = None;
    for (key, value) in LoserTree::new(cursors) {
        if last_coord == Some(key.coord()) {
            continue; // shadowed older version
        }
        last_coord = Some(key.coord());
        if drop_tombstones && value.is_none() {
            continue; // tombstone dropped once it has shadowed
        }
        out.push(key, value.clone());
    }
    out.finish()
}

/// A cloneable, `Send + Sync` read handle onto a live [`CfStore`].
///
/// Readers holding one see every acknowledged write immediately (they read
/// the same active memstore and view the writer publishes into) and never
/// block the writer beyond the brief freeze/swap windows of a flush.
#[derive(Debug, Clone)]
pub struct StoreReader {
    shared: Arc<StoreShared>,
}

impl StoreReader {
    /// The canonical point read (see [`CfStore::try_get`]).
    pub fn try_get(&self, row: &RowKey, qualifier: &Qualifier) -> Result<(Option<Bytes>, OpStats)> {
        self.shared.try_get(row, qualifier)
    }

    /// Reads the newest live value, panicking on detected corruption.
    #[inline]
    pub fn get(&self, row: &RowKey, qualifier: &Qualifier) -> Option<Bytes> {
        self.try_get(row, qualifier).expect("corrupted HFile block on read path").0
    }

    /// Scans up to `row_limit` rows starting at `start` (inclusive).
    pub fn scan(&self, start: &RowKey, row_limit: usize) -> ScanRows {
        self.scan_range(&KeyRange::new(Some(start.clone()), None), row_limit)
    }

    /// Scans up to `row_limit` rows within `range`.
    pub fn scan_range(&self, range: &KeyRange, row_limit: usize) -> ScanRows {
        self.shared.scan_with(range, row_limit, None).0
    }

    /// [`StoreReader::scan_range`] reporting this scan's block traffic.
    pub fn scan_range_with_stats(&self, range: &KeyRange, row_limit: usize) -> (ScanRows, OpStats) {
        self.shared.scan_range_with_stats(range, row_limit)
    }

    /// A stable point-in-time view (see [`StoreSnapshot`]).
    pub fn snapshot(&self) -> StoreSnapshot {
        self.shared.snapshot()
    }
}

/// A stable point-in-time view of a store: the memstore contents at capture
/// time plus the then-current file set. Unlike a [`StoreReader`] — which
/// tracks the live store — a snapshot never changes: writes, flushes, and
/// even major compactions after [`CfStore::snapshot`] are invisible to it
/// (the replaced files stay alive through the snapshot's `Arc`s).
///
/// Snapshot reads still go through the shared block cache and therefore
/// count toward its global hit/miss statistics, but they do **not** bump
/// the store's [`ReadPathStats`] — a snapshot may outlive the store, and
/// its traffic (region rebuilds, read replicas) is not serving-path load.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    /// Memstore states newest → oldest: the captured active memstore, then
    /// any memstores that were frozen mid-flush at capture time.
    mems: Vec<Arc<MemStore>>,
    /// Immutable files, oldest → newest.
    files: Vec<Arc<HFile>>,
    cache: SharedBlockCache,
}

impl StoreSnapshot {
    /// The canonical point read against the captured state.
    pub fn try_get(&self, row: &RowKey, qualifier: &Qualifier) -> Result<(Option<Bytes>, OpStats)> {
        let mut stats = OpStats::default();
        let hash = row_hash(row.as_bytes());
        for mem in &self.mems {
            if let Some(v) = mem.get_newest_hashed(row, qualifier, hash) {
                stats.memstore = true;
                return Ok((v, stats));
            }
        }
        for file in self.files.iter().rev() {
            let (result, bloom_rejected, access) =
                file.get_hashed(row, qualifier, hash, &self.cache)?;
            match access {
                Some(crate::Access::Hit) => stats.cache_hits += 1,
                Some(crate::Access::Miss) => stats.blocks_read += 1,
                None => {}
            }
            if bloom_rejected {
                continue;
            }
            if let Some(v) = result {
                return Ok((v, stats));
            }
        }
        Ok((None, stats))
    }

    /// Reads the newest live value, panicking on detected corruption.
    #[inline]
    pub fn get(&self, row: &RowKey, qualifier: &Qualifier) -> Option<Bytes> {
        self.try_get(row, qualifier).expect("corrupted HFile block on read path").0
    }

    /// Scans up to `row_limit` rows starting at `start` (inclusive).
    pub fn scan(&self, start: &RowKey, row_limit: usize) -> ScanRows {
        self.scan_range(&KeyRange::new(Some(start.clone()), None), row_limit)
    }

    /// Scans up to `row_limit` rows within `range`.
    pub fn scan_range(&self, range: &KeyRange, row_limit: usize) -> ScanRows {
        self.scan_impl(range, row_limit, None)
    }

    /// [`StoreSnapshot::scan_range`] reporting this scan's block traffic.
    pub fn scan_range_with_stats(&self, range: &KeyRange, row_limit: usize) -> (ScanRows, OpStats) {
        let counter = AccessCounter::new();
        let rows = self.scan_impl(range, row_limit, Some(&counter));
        let stats = OpStats {
            cache_hits: counter.hits(),
            blocks_read: counter.misses(),
            memstore: self.mems.iter().any(|m| !m.is_empty()),
        };
        (rows, stats)
    }

    fn scan_impl(
        &self,
        range: &KeyRange,
        row_limit: usize,
        counter: Option<&AccessCounter>,
    ) -> ScanRows {
        let tree =
            build_cursors(self.mems.iter().map(|m| &**m), &self.files, &self.cache, range, counter);
        collect_rows(tree, row_limit)
    }

    /// Every cell version in `range`, newest-first per coordinate.
    pub fn export_range(&self, range: &KeyRange) -> Vec<CellVersion> {
        let tree =
            build_cursors(self.mems.iter().map(|m| &**m), &self.files, &self.cache, range, None);
        export_cells(tree)
    }

    /// Number of immutable files in the captured view.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }
}

/// Builds the read-path merge: a loser tree with one cursor per source, in
/// priority order — memstores newest → oldest first, then files oldest →
/// newest (ties on equal keys go to the lower cursor index). File cursors
/// record cache accesses into `counter` when one is supplied.
fn build_cursors<'a, M>(
    mems: M,
    files: &'a [Arc<HFile>],
    cache: &'a SharedBlockCache,
    range: &'a KeyRange,
    counter: Option<&'a AccessCounter>,
) -> LoserTree<'a>
where
    M: Iterator<Item = &'a MemStore>,
{
    let mut cursors = Vec::with_capacity(mems.size_hint().0 + files.len());
    for mem in mems {
        cursors.push(Cursor::mem(mem.range_iter(range)));
    }
    for file in files {
        cursors.push(Cursor::file(file.range_scan_counted(range, cache, counter)));
    }
    LoserTree::new(cursors)
}

/// Most result rows a scan reserves room for before it knows how many it
/// will return (YCSB scans ask for at most 100).
const SCAN_ROWS_PRESIZE: usize = 128;

/// Folds a merged cell stream into live rows: the first version seen for a
/// coordinate is the newest (merge order), later versions are shadowed, and
/// tombstoned cells vanish. The merge runs on borrowed keys; an owned row
/// or qualifier is built only for what lands in the result.
fn collect_rows(merge: LoserTree<'_>, row_limit: usize) -> ScanRows {
    let mut out: ScanRows = Vec::with_capacity(row_limit.min(SCAN_ROWS_PRESIZE));
    let mut current_cells: Vec<(Qualifier, Bytes)> = Vec::new();
    // Coordinate of the previous cell, whatever became of it.
    let mut last_coord: Option<(&[u8], &[u8])> = None;
    // Rows of a table mostly repeat one qualifier set: clone the previous
    // qualifier when the bytes match (a short one is a 24-byte copy, cheaper
    // than building it again; a long one shares its buffer), and size each
    // row's cell list like the row before it.
    let mut last_qualifier: Option<Qualifier> = None;

    for (key, value) in merge {
        if let Some((row, qualifier)) = last_coord {
            if row != key.row {
                // The previous row is complete.
                if !current_cells.is_empty() {
                    let next_cells = Vec::with_capacity(current_cells.len());
                    out.push((
                        RowKey::from(row),
                        std::mem::replace(&mut current_cells, next_cells),
                    ));
                    if out.len() >= row_limit {
                        return out;
                    }
                }
            } else if qualifier == key.qualifier {
                continue; // shadowed older version
            }
        }
        last_coord = Some(key.coord());
        if let Some(v) = value {
            let qualifier = match &last_qualifier {
                Some(q) if q.as_bytes() == key.qualifier => q.clone(),
                _ => last_qualifier.insert(Qualifier::from(key.qualifier)).clone(),
            };
            current_cells.push((qualifier, v.clone()));
        }
    }
    if let Some((row, _)) = last_coord {
        if !current_cells.is_empty() && out.len() < row_limit {
            out.push((RowKey::from(row), current_cells));
        }
    }
    out
}

/// Every merged cell version as an owned [`CellVersion`] (region splits and
/// rebuilds). Consecutive cells of one row, or with one qualifier, clone
/// the key built for the first.
fn export_cells(merge: LoserTree<'_>) -> Vec<CellVersion> {
    let mut out: Vec<CellVersion> = Vec::new();
    for (key, value) in merge {
        let prev = out.last().map(|c| &c.key.coord);
        let row = match prev {
            Some(p) if p.row.as_bytes() == key.row => p.row.clone(),
            _ => RowKey::from(key.row),
        };
        let qualifier = match prev {
            Some(p) if p.qualifier.as_bytes() == key.qualifier => p.qualifier.clone(),
            _ => Qualifier::from(key.qualifier),
        };
        out.push(CellVersion {
            key: InternalKey::new(row, qualifier, key.ts),
            value: value.clone(),
        });
    }
    out
}

/// One merged entry: a borrowed key and the stored value handle.
type Entry<'a> = (KeyRef<'a>, &'a Option<Bytes>);

/// Where a [`Cursor`] reads from.
enum Source<'a> {
    Mem(MemRangeIter<'a>),
    File(HFileScanIter<'a>),
}

/// One sorted input to the merge: a memstore range or a file scan, both
/// presenting their keys as [`KeyRef`]s — a view of the map key or of the
/// block's key arena — so nothing is cloned or allocated per advance.
/// Concrete (no `Box<dyn Iterator>`): the loser tree advances it with a
/// direct match instead of a vtable call.
struct Cursor<'a> {
    source: Source<'a>,
    head: Option<Entry<'a>>,
}

impl<'a> Cursor<'a> {
    fn mem(iter: MemRangeIter<'a>) -> Self {
        Cursor::primed(Source::Mem(iter))
    }

    fn file(iter: HFileScanIter<'a>) -> Self {
        Cursor::primed(Source::File(iter))
    }

    fn primed(source: Source<'a>) -> Self {
        let mut cursor = Cursor { source, head: None };
        cursor.advance();
        cursor
    }

    fn advance(&mut self) {
        self.head = match &mut self.source {
            Source::Mem(iter) => iter.next().map(|(k, v)| (k.as_key_ref(), v)),
            Source::File(iter) => iter.next(),
        };
    }

    fn pop(&mut self) -> Option<Entry<'a>> {
        let head = self.head.take();
        if head.is_some() {
            self.advance();
        }
        head
    }
}

/// Loser-tree (tournament) k-way merge over [`Cursor`]s, yielding borrowed
/// keys. Reads, compactions and flushes all merge through it.
///
/// `tree[0]` holds the overall winner; `tree[1..k]` hold the loser at each
/// internal node of a complete binary tree whose leaves are the cursors.
/// Advancing costs one cursor step plus a replay of the leaf-to-root path
/// (⌈log₂ k⌉ comparisons by reference) and allocates nothing. Ties on equal
/// keys go to the lower cursor index, which — with cursors ordered memstores
/// first, then files oldest→newest — reproduces the exact output order of
/// the previous `BinaryHeap<Reverse<(InternalKey, usize)>>` merge.
struct LoserTree<'a> {
    cursors: Vec<Cursor<'a>>,
    tree: Vec<usize>,
}

impl<'a> LoserTree<'a> {
    fn new(cursors: Vec<Cursor<'a>>) -> Self {
        let k = cursors.len();
        let mut tree = vec![0usize; k.max(1)];
        if k > 1 {
            // winner[n] for internal nodes 1..k, winner[k + i] = leaf i.
            let mut winner = vec![0usize; 2 * k];
            for (i, slot) in winner[k..].iter_mut().enumerate() {
                *slot = i;
            }
            for n in (1..k).rev() {
                let (a, b) = (winner[2 * n], winner[2 * n + 1]);
                let a_wins = Self::beats(&cursors, a, b);
                winner[n] = if a_wins { a } else { b };
                tree[n] = if a_wins { b } else { a };
            }
            tree[0] = winner[1];
        }
        LoserTree { cursors, tree }
    }

    /// True when cursor `a`'s head should be emitted before cursor `b`'s:
    /// smaller key first, exhausted cursors last, index breaks ties.
    fn beats(cursors: &[Cursor<'a>], a: usize, b: usize) -> bool {
        match (&cursors[a].head, &cursors[b].head) {
            (Some((ka, _)), Some((kb, _))) => match ka.cmp(kb) {
                CmpOrdering::Less => true,
                CmpOrdering::Greater => false,
                CmpOrdering::Equal => a < b,
            },
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }
}

impl<'a> Iterator for LoserTree<'a> {
    type Item = Entry<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        let k = self.cursors.len();
        if k == 0 {
            return None;
        }
        let w = self.tree[0];
        let item = self.cursors[w].pop()?;
        // Replay the path from w's leaf up to the root: at each node, if the
        // stored loser beats the current candidate, they swap roles.
        let mut cur = w;
        let mut node = (k + w) / 2;
        while node > 0 {
            if Self::beats(&self.cursors, self.tree[node], cur) {
                std::mem::swap(&mut self.tree[node], &mut cur);
            }
            node /= 2;
        }
        self.tree[0] = cur;
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> CfStore {
        CfStore::new(SharedBlockCache::new(1 << 20), FileIdAllocator::new(), 512)
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_get_round_trip() {
        let mut s = store();
        s.put("row1".into(), "c".into(), b("hello"));
        assert_eq!(s.get(&"row1".into(), &"c".into()), Some(b("hello")));
        assert_eq!(s.get(&"row2".into(), &"c".into()), None);
    }

    #[test]
    fn overwrite_returns_latest() {
        let mut s = store();
        s.put("r".into(), "c".into(), b("v1"));
        s.put("r".into(), "c".into(), b("v2"));
        assert_eq!(s.get(&"r".into(), &"c".into()), Some(b("v2")));
    }

    #[test]
    fn delete_hides_value_across_flush() {
        let mut s = store();
        s.put("r".into(), "c".into(), b("v1"));
        s.flush().unwrap();
        s.delete("r".into(), "c".into());
        assert_eq!(s.get(&"r".into(), &"c".into()), None);
        s.flush().unwrap();
        // Tombstone now lives in a newer file than the value.
        assert_eq!(s.get(&"r".into(), &"c".into()), None);
    }

    #[test]
    fn reads_span_memstore_and_files() {
        let mut s = store();
        s.put("a".into(), "c".into(), b("file"));
        s.flush().unwrap();
        s.put("b".into(), "c".into(), b("mem"));
        assert_eq!(s.get(&"a".into(), &"c".into()), Some(b("file")));
        assert_eq!(s.get(&"b".into(), &"c".into()), Some(b("mem")));
        let stats = s.read_stats();
        assert_eq!(stats.memstore_hits, 1);
        assert!(stats.files_probed >= 1);
    }

    #[test]
    fn newest_file_wins_over_older() {
        let mut s = store();
        s.put("r".into(), "c".into(), b("old"));
        s.flush().unwrap();
        s.put("r".into(), "c".into(), b("new"));
        s.flush().unwrap();
        assert_eq!(s.get(&"r".into(), &"c".into()), Some(b("new")));
    }

    #[test]
    fn scan_merges_all_sources_newest_versions() {
        let mut s = store();
        for i in 0..10 {
            s.put(format!("row{i}").into(), "c".into(), b("old"));
        }
        s.flush().unwrap();
        s.put("row3".into(), "c".into(), b("new3"));
        s.delete("row5".into(), "c".into());
        let rows = s.scan(&"row0".into(), 100);
        assert_eq!(rows.len(), 9, "deleted row must vanish");
        let row3 = rows.iter().find(|(r, _)| r.to_string() == "row3").unwrap();
        assert_eq!(row3.1[0].1, b("new3"));
        assert!(!rows.iter().any(|(r, _)| r.to_string() == "row5"));
    }

    #[test]
    fn scan_respects_limit_and_start() {
        let mut s = store();
        for i in 0..20 {
            s.put(format!("row{i:02}").into(), "c".into(), b("v"));
        }
        let rows = s.scan(&"row05".into(), 3);
        let names: Vec<String> = rows.iter().map(|(r, _)| r.to_string()).collect();
        assert_eq!(names, vec!["row05", "row06", "row07"]);
    }

    #[test]
    fn scan_collects_multiple_qualifiers_per_row() {
        let mut s = store();
        s.put("r".into(), "q1".into(), b("a"));
        s.put("r".into(), "q2".into(), b("b"));
        s.flush().unwrap();
        s.put("r".into(), "q3".into(), b("c"));
        let rows = s.scan(&"r".into(), 10);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.len(), 3);
    }

    #[test]
    fn minor_compaction_reduces_file_count_preserving_data() {
        let mut s = store();
        for round in 0..4 {
            for i in 0..5 {
                s.put(format!("row{i}").into(), "c".into(), b(&format!("v{round}")));
            }
            s.flush().unwrap();
        }
        assert_eq!(s.file_count(), 4);
        let out = s.compact_minor(3).unwrap();
        assert_eq!(out.replaced.len(), 3);
        assert_eq!(s.file_count(), 2);
        for i in 0..5 {
            assert_eq!(s.get(&format!("row{i}").as_str().into(), &"c".into()), Some(b("v3")));
        }
    }

    #[test]
    fn major_compaction_drops_tombstones_and_old_versions() {
        let mut s = store();
        s.put("keep".into(), "c".into(), b("v1"));
        s.put("kill".into(), "c".into(), b("x"));
        s.flush().unwrap();
        s.put("keep".into(), "c".into(), b("v2"));
        s.delete("kill".into(), "c".into());
        s.flush().unwrap();
        let before = s.file_bytes();
        let out = s.compact_major().unwrap();
        assert_eq!(s.file_count(), 1);
        assert!(s.file_bytes() < before, "garbage must be reclaimed");
        assert!(out.bytes_rewritten > 0);
        assert_eq!(s.get(&"keep".into(), &"c".into()), Some(b("v2")));
        assert_eq!(s.get(&"kill".into(), &"c".into()), None);
    }

    #[test]
    fn a_tombstone_merged_in_a_middle_run_keeps_masking_an_older_file() {
        // f1 holds `r`; f2 overwrites `other`; f3 deletes `r`. Merging the
        // run [f2, f3] — as a compactor does while f1 is claimed — must
        // keep the tombstone, or f1's value comes back.
        let mut s = wal_store();
        s.put("r".into(), "c".into(), b("f1"));
        s.put("other".into(), "c".into(), b("f1"));
        s.flush().unwrap();
        s.put("other".into(), "c".into(), b("f2"));
        s.flush().unwrap();
        s.delete("r".into(), "c".into());
        s.put("other".into(), "c".into(), b("f3"));
        s.flush().unwrap();
        let files = s.shared.files_snapshot();
        let merged = write_merged(&[], &files[1..], s.ids.next(), s.block_size, false);
        assert_eq!(merged.entry_count(), 2, "one version of `other`, plus the tombstone");
        assert!(s.shared.replace_files(&[files[1].id(), files[2].id()], Arc::new(merged)));
        assert_eq!(s.file_count(), 2);
        let check = |s: &CfStore| {
            assert_eq!(s.get(&"r".into(), &"c".into()), None, "f1's value stays masked");
            assert_eq!(s.get(&"other".into(), &"c".into()), Some(b("f3")));
        };
        check(&s);
        let (s, _) =
            CfStore::recover(s.crash(), SharedBlockCache::new(1 << 20), FileIdAllocator::new())
                .unwrap();
        check(&s);
    }

    #[test]
    fn compaction_preserves_newest_file_wins_invariant() {
        let mut s = store();
        s.put("r".into(), "c".into(), b("v1"));
        s.flush().unwrap();
        s.put("r".into(), "c".into(), b("v2"));
        s.flush().unwrap();
        s.compact_minor(2).unwrap();
        s.put("r".into(), "c".into(), b("v3"));
        s.flush().unwrap();
        assert_eq!(s.get(&"r".into(), &"c".into()), Some(b("v3")));
        s.compact_major().unwrap();
        assert_eq!(s.get(&"r".into(), &"c".into()), Some(b("v3")));
    }

    #[test]
    fn a_frozen_memstore_answers_gets_through_its_row_filter() {
        // Rows a word-at-a-time hash could confuse: empty, prefixes of one
        // another, equal first words, zero padding.
        let rows: [&[u8]; 6] =
            [b"", b"user0000", b"user0000\0", b"user00001", b"user0000000001", b"user0000000002"];
        let mut s = store();
        for (i, row) in rows.iter().enumerate() {
            s.put(RowKey::from(*row), "c".into(), b(&i.to_string()));
        }
        s.delete(RowKey::from(rows[3]), "c".into());
        s.shared.freeze_active().unwrap();
        assert_eq!(s.shared.view.read().frozen.len(), 1);
        for (i, row) in rows.iter().enumerate() {
            let (got, stats) = s.get_with_stats(&RowKey::from(*row), &"c".into());
            assert!(stats.memstore, "{row:?} answered by the frozen memstore");
            assert_eq!(got, (i != 3).then(|| b(&i.to_string())), "{row:?}");
        }
        assert_eq!(s.get(&"user00002".into(), &"c".into()), None);
    }

    #[test]
    fn memstore_accounting_resets_on_flush() {
        let mut s = store();
        s.put("r".into(), "c".into(), b("0123456789"));
        assert!(s.memstore_bytes() > 0);
        s.flush().unwrap();
        assert_eq!(s.memstore_bytes(), 0);
        assert!(s.file_bytes() > 0);
    }

    #[test]
    fn flush_empty_memstore_is_noop() {
        let mut s = store();
        assert!(s.flush().is_none());
        assert_eq!(s.file_count(), 0);
    }

    #[test]
    fn export_and_rebuild_split_halves() {
        let mut s = store();
        for i in 0..20 {
            s.put(format!("row{i:02}").into(), "c".into(), b("v"));
        }
        s.flush().unwrap();
        let next_ts = s.next_ts();
        let lo = s.export_range(&KeyRange::new(None, Some("row10".into())));
        let hi = s.export_range(&KeyRange::new(Some("row10".into()), None));
        assert_eq!(lo.len() + hi.len(), 20);
        let rebuilt = CfStore::from_cells(
            SharedBlockCache::new(1 << 20),
            FileIdAllocator::new(),
            512,
            hi,
            next_ts,
        );
        assert_eq!(rebuilt.get(&"row15".into(), &"c".into()), Some(b("v")));
        assert_eq!(rebuilt.get(&"row05".into(), &"c".into()), None);
    }

    #[test]
    fn check_and_put_is_conditional() {
        let mut s = store();
        // Expecting absence on an absent cell succeeds.
        assert!(s.check_and_put("r".into(), "c".into(), None, b("v1")).unwrap());
        // Expecting absence now fails.
        assert!(!s.check_and_put("r".into(), "c".into(), None, b("v2")).unwrap());
        assert_eq!(s.get(&"r".into(), &"c".into()), Some(b("v1")));
        // Expecting the right value succeeds.
        let v1 = b("v1");
        assert!(s.check_and_put("r".into(), "c".into(), Some(&v1), b("v2")).unwrap());
        assert_eq!(s.get(&"r".into(), &"c".into()), Some(b("v2")));
        // Works across a flush boundary too.
        s.flush();
        let v2 = b("v2");
        assert!(s.check_and_put("r".into(), "c".into(), Some(&v2), b("v3")).unwrap());
        assert_eq!(s.get(&"r".into(), &"c".into()), Some(b("v3")));
    }

    #[test]
    fn increment_counts_from_zero_and_persists() {
        let mut s = store();
        assert_eq!(s.increment("ctr".into(), "n".into(), 5).unwrap(), 5);
        assert_eq!(s.increment("ctr".into(), "n".into(), -2).unwrap(), 3);
        s.flush();
        assert_eq!(s.increment("ctr".into(), "n".into(), 7).unwrap(), 10);
        assert_eq!(s.get(&"ctr".into(), &"n".into()), Some(b("10")));
    }

    #[test]
    fn get_with_stats_distinguishes_memstore_cache_and_disk() {
        let mut s = store();
        s.put("r".into(), "c".into(), b("mem"));
        let (v, st) = s.get_with_stats(&"r".into(), &"c".into());
        assert_eq!(v, Some(b("mem")));
        assert!(st.memstore, "memstore answered the read");
        assert_eq!(st.blocks_touched(), 0);
        s.flush().unwrap();
        let (_, st) = s.get_with_stats(&"r".into(), &"c".into());
        assert!(!st.memstore);
        assert_eq!(st.blocks_read, 1, "cold read loads the block from disk");
        let (_, st) = s.get_with_stats(&"r".into(), &"c".into());
        assert_eq!((st.cache_hits, st.blocks_read), (1, 0), "warm read hits the cache");
    }

    #[test]
    fn interleaved_scans_on_a_shared_cache_attribute_their_own_blocks() {
        // Two stores (regions) sharing one server-wide cache: a global
        // before/after CacheStats delta would charge each scan with the
        // other's traffic, but the per-op counters must not.
        let cache = SharedBlockCache::new(1 << 20);
        let ids = FileIdAllocator::new();
        let mut a = CfStore::new(cache.clone(), ids.clone(), 256);
        let mut b = CfStore::new(cache.clone(), ids, 256);
        for i in 0..40 {
            a.put(format!("a{i:02}").into(), "c".into(), b_bytes("0123456789"));
            b.put(format!("b{i:02}").into(), "c".into(), b_bytes("0123456789"));
        }
        a.flush().unwrap();
        b.flush().unwrap();
        let (rows_a, sa) = a.scan_range_with_stats(&KeyRange::all(), 100);
        let (rows_b, sb) = b.scan_range_with_stats(&KeyRange::all(), 100);
        assert_eq!((rows_a.len(), rows_b.len()), (40, 40));
        assert!(sa.blocks_touched() > 0 && sb.blocks_touched() > 0);
        // Together the two ops account for exactly the cache's global
        // traffic — nothing double-counted, nothing mis-attributed.
        assert_eq!(sa.blocks_touched() + sb.blocks_touched(), cache.stats().accesses());
        assert_eq!(sa.blocks_read, sa.blocks_touched(), "first scan of a is all cold");
        assert_eq!(sb.blocks_read, sb.blocks_touched(), "first scan of b is all cold");
        // A rescan of `a` is warm and still only charged for its own blocks.
        let (_, sa2) = a.scan_range_with_stats(&KeyRange::all(), 100);
        assert_eq!(sa2.cache_hits, sa.blocks_touched());
        assert_eq!(sa2.blocks_read, 0);
    }

    fn b_bytes(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn wal_store() -> CfStore {
        let mut s = store();
        s.enable_wal(WalConfig::default());
        s
    }

    /// Scans a store into comparable (row, cells) tuples.
    fn state_of(s: &CfStore) -> Vec<(String, Vec<(String, Bytes)>)> {
        s.scan_range(&KeyRange::all(), usize::MAX)
            .into_iter()
            .map(|(r, cells)| {
                (r.to_string(), cells.into_iter().map(|(q, v)| (q.to_string(), v)).collect())
            })
            .collect()
    }

    #[test]
    fn crash_and_recover_restores_acknowledged_writes() {
        let mut s = wal_store();
        s.put("a".into(), "c".into(), b("file"));
        s.flush().unwrap();
        s.put("b".into(), "c".into(), b("mem"));
        s.delete("a".into(), "c".into());
        let before = state_of(&s);
        let next_ts = s.next_ts();

        let (recovered, report) =
            CfStore::recover(s.crash(), SharedBlockCache::new(1 << 20), FileIdAllocator::new())
                .unwrap();
        assert_eq!(state_of(&recovered), before, "every acked write survives the crash");
        assert_eq!(report.replayed_records, 2, "post-flush put + delete replayed");
        assert!(report.torn_tail.is_none());
        assert_eq!(report.files_verified, 1);
        assert_eq!(recovered.next_ts(), next_ts, "timestamp clock restored");
    }

    #[test]
    fn recovered_store_keeps_working_and_survives_a_second_crash() {
        let mut s = wal_store();
        s.put("r1".into(), "c".into(), b("v1"));
        let (mut s, _) =
            CfStore::recover(s.crash(), SharedBlockCache::new(1 << 20), FileIdAllocator::new())
                .unwrap();
        s.put("r2".into(), "c".into(), b("v2"));
        s.flush().unwrap();
        s.put("r3".into(), "c".into(), b("v3"));
        let before = state_of(&s);
        let (s, report) =
            CfStore::recover(s.crash(), SharedBlockCache::new(1 << 20), FileIdAllocator::new())
                .unwrap();
        assert_eq!(state_of(&s), before);
        assert_eq!(report.replayed_records, 1, "flush truncated the earlier records");
    }

    #[test]
    fn flush_rotates_and_truncates_the_wal() {
        let mut s = wal_store();
        for i in 0..10 {
            s.put(format!("row{i}").into(), "c".into(), b("0123456789"));
        }
        let wal_before = s.wal().unwrap().durable_bytes();
        assert!(wal_before > 0);
        s.flush().unwrap();
        let wal = s.wal().unwrap();
        assert_eq!(wal.sealed_segments(), 0, "sealed segments truncated after the flush");
        assert_eq!(wal.durable_bytes(), 0, "flushed edits no longer need the log");
        assert_eq!(wal.stats().rotations, 1);
        assert_eq!(wal.stats().truncated_bytes, wal_before);
    }

    #[test]
    fn unsynced_group_commit_writes_die_with_the_process() {
        let mut s = store();
        s.enable_wal(WalConfig { group_commit_bytes: 1 << 20, ..Default::default() });
        s.put("durable".into(), "c".into(), b("v1"));
        s.wal_mut().unwrap().sync().unwrap();
        s.put("volatile".into(), "c".into(), b("v2"));
        let durable_seq = s.wal().unwrap().durable_seq();
        let (s, report) =
            CfStore::recover(s.crash(), SharedBlockCache::new(1 << 20), FileIdAllocator::new())
                .unwrap();
        let state = state_of(&s);
        assert_eq!(state.len(), 1, "only the synced write survives: {state:?}");
        assert_eq!(state[0].0, "durable");
        assert_eq!(report.replayed_records, durable_seq, "recovered ≡ durable prefix");
    }

    #[test]
    fn torn_write_loses_only_the_unacknowledged_write() {
        for torn in 0..32u64 {
            let mut s = wal_store();
            s.put("a".into(), "c".into(), b("v1"));
            s.put("b".into(), "c".into(), b("v2"));
            let before = state_of(&s);
            s.wal_mut().unwrap().arm_torn_write(torn);
            let err = s.try_put("c".into(), "c".into(), b("never-acked")).unwrap_err();
            assert!(matches!(err, HStoreError::WalSyncFailed { .. }));
            let (s, report) =
                CfStore::recover(s.crash(), SharedBlockCache::new(1 << 20), FileIdAllocator::new())
                    .unwrap();
            assert_eq!(state_of(&s), before, "torn@{torn}: acked prefix must survive");
            if torn > 0 {
                assert!(report.torn_tail.is_some(), "torn@{torn}: tail should be reported");
            }
        }
    }

    #[test]
    fn fsync_failure_surfaces_and_nothing_is_applied() {
        let mut s = wal_store();
        s.put("a".into(), "c".into(), b("v1"));
        s.wal_mut().unwrap().arm_fsync_fail();
        let err = s.try_put("b".into(), "c".into(), b("v2")).unwrap_err();
        assert!(matches!(err, HStoreError::WalSyncFailed { .. }));
        assert_eq!(s.get(&"b".into(), &"c".into()), None, "failed write must not be visible");
        // The store recovers its composure: the next write goes through.
        s.put("c".into(), "c".into(), b("v3"));
        assert_eq!(s.get(&"c".into(), &"c".into()), Some(b("v3")));
    }

    #[test]
    fn flush_aborts_cleanly_when_the_rotation_sync_fails() {
        let mut s = store();
        s.enable_wal(WalConfig { group_commit_bytes: 1 << 20, ..Default::default() });
        s.put("a".into(), "c".into(), b("v1"));
        s.wal_mut().unwrap().arm_fsync_fail();
        assert!(s.flush().is_none(), "flush must refuse, not lose data");
        assert!(s.memstore_bytes() > 0, "memstore untouched");
        assert_eq!(s.file_count(), 0);
        // Retry succeeds and the data is all there.
        s.flush().unwrap();
        assert_eq!(s.get(&"a".into(), &"c".into()), Some(b("v1")));
    }

    #[test]
    fn rotted_hfile_block_fails_recovery_with_a_typed_error() {
        let mut s = wal_store();
        s.put("a".into(), "c".into(), b("v1"));
        let flushed = s.flush().unwrap();
        let mut state = s.crash();
        assert!(state.corrupt_file_block(flushed.file, 0));
        let err = CfStore::recover(state, SharedBlockCache::new(1 << 20), FileIdAllocator::new())
            .unwrap_err();
        assert!(matches!(
            err,
            HStoreError::Corruption { cause: CorruptionKind::BlockChecksum, offset: 0, .. }
        ));
    }

    #[test]
    fn mid_log_wal_damage_fails_recovery_with_the_wal_pseudo_file() {
        let mut s = wal_store();
        s.put("a".into(), "c".into(), b("v1"));
        s.put("b".into(), "c".into(), b("v2"));
        // Seal a segment (as a flush would) so there is durable log
        // *before* the tail; damage there cannot be a torn tail.
        s.wal_mut().unwrap().rotate().unwrap();
        s.put("c".into(), "c".into(), b("v3"));
        let mut state = s.crash();
        state.corrupt_wal_byte(0, crate::wal::FRAME_HEADER_BYTES + 2);
        let err = CfStore::recover(state, SharedBlockCache::new(1 << 20), FileIdAllocator::new())
            .unwrap_err();
        match err {
            HStoreError::Corruption { file, offset, cause: CorruptionKind::WalRecord } => {
                assert_eq!(file.0 & WAL_FILE_ID_BASE, WAL_FILE_ID_BASE);
                assert_eq!(offset, 0, "damage detected at the first frame");
            }
            other => panic!("expected WAL corruption, got {other}"),
        }
    }

    #[test]
    fn stores_without_wal_recover_files_only() {
        let mut s = store();
        s.put("a".into(), "c".into(), b("file"));
        s.flush().unwrap();
        s.put("b".into(), "c".into(), b("lost"));
        let (s, report) =
            CfStore::recover(s.crash(), SharedBlockCache::new(1 << 20), FileIdAllocator::new())
                .unwrap();
        let state = state_of(&s);
        assert_eq!(state.len(), 1, "without a WAL the memstore is simply gone");
        assert_eq!(report.replayed_records, 0);
        assert_eq!(report.cost, simcore::SimDuration(0));
    }

    #[test]
    fn corrupt_read_path_block_surfaces_on_cold_gets() {
        let mut s = store();
        for i in 0..40 {
            s.put(format!("row{i:02}").into(), "c".into(), b("0123456789"));
        }
        let flushed = s.flush().unwrap();
        assert!(s.corrupt_file_block(flushed.file, 0));
        let err = s.try_get(&"row00".into(), &"c".into()).unwrap_err();
        assert!(matches!(
            err,
            HStoreError::Corruption { cause: CorruptionKind::BlockChecksum, .. }
        ));
    }

    #[test]
    fn midpoint_row_is_interior() {
        let mut s = store();
        for i in 0..100 {
            s.put(format!("row{i:03}").into(), "c".into(), b("0123456789012345"));
        }
        s.flush().unwrap();
        let mid = s.midpoint_row().unwrap();
        assert!(mid > "row010".into() && mid < "row090".into(), "mid = {mid}");
        // The split point *is* the middle block's first row: a cell accounts
        // 6 + 1 + 8 + 16 + 16 = 47 bytes, so a 512-byte block holds ten and
        // block 5 of the ten starts at row050.
        let file = s.shared.files_snapshot().pop().unwrap();
        assert_eq!(file.block_count(), 10);
        assert_eq!(file.block_first_row(5), Some(mid.as_bytes()));
        assert_eq!(mid, "row050".into());
    }

    #[test]
    fn reader_tracks_live_writes_and_flushes() {
        let mut s = store();
        let r = s.reader();
        assert_eq!(r.get(&"r".into(), &"c".into()), None);
        s.put("r".into(), "c".into(), b("v1"));
        assert_eq!(r.get(&"r".into(), &"c".into()), Some(b("v1")), "reader sees acked write");
        s.flush().unwrap();
        assert_eq!(r.get(&"r".into(), &"c".into()), Some(b("v1")), "reader sees flushed data");
        s.delete("r".into(), "c".into());
        assert_eq!(r.get(&"r".into(), &"c".into()), None, "reader sees the tombstone");
        let rows = r.scan(&"r".into(), 10);
        assert!(rows.is_empty());
    }

    #[test]
    fn reader_and_snapshot_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StoreReader>();
        assert_send_sync::<StoreSnapshot>();
    }

    #[test]
    fn snapshot_ignores_later_writes_and_flushes() {
        let mut s = store();
        s.put("a".into(), "c".into(), b("v1"));
        s.flush().unwrap();
        s.put("b".into(), "c".into(), b("v2"));
        let snap = s.snapshot();
        // Mutate the live store every way we can.
        s.put("a".into(), "c".into(), b("changed"));
        s.delete("b".into(), "c".into());
        s.put("c".into(), "c".into(), b("new"));
        s.flush().unwrap();
        s.compact_major().unwrap();
        // The snapshot still answers from the captured state.
        assert_eq!(snap.get(&"a".into(), &"c".into()), Some(b("v1")));
        assert_eq!(snap.get(&"b".into(), &"c".into()), Some(b("v2")));
        assert_eq!(snap.get(&"c".into(), &"c".into()), None);
        let rows = snap.scan_range(&KeyRange::all(), 100);
        assert_eq!(rows.len(), 2);
        // The live store sees the new world.
        assert_eq!(s.get(&"a".into(), &"c".into()), Some(b("changed")));
        assert_eq!(s.get(&"b".into(), &"c".into()), None);
    }

    #[test]
    fn snapshot_export_matches_store_export() {
        let mut s = store();
        for i in 0..30 {
            s.put(format!("row{i:02}").into(), "c".into(), b("v"));
        }
        s.flush().unwrap();
        s.put("row05".into(), "c".into(), b("newer"));
        let snap = s.snapshot();
        assert_eq!(snap.export_range(&KeyRange::all()), s.export_range(&KeyRange::all()));
        assert_eq!(snap.file_count(), s.file_count());
    }
}
