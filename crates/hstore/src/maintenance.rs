//! The background maintenance pipeline: async memstore flush and parallel
//! compaction off the write path.
//!
//! MeT treats flush/compaction tuning as a first-class actuator because LSM
//! maintenance is what caps HBase write throughput under elastic load
//! (§4 of the paper). With the pipeline running, the writer's `put` only
//! appends to the WAL and the active memstore; crossing the flush threshold
//! freezes the memstore (the cheap `Arc` handoff of the concurrent read
//! path) and enqueues it to a dedicated background **flusher** thread, and
//! file-count triggers enqueue non-overlapping contiguous file runs to a
//! background **compactor pool**. Both publish their results through the
//! same atomic `StoreView` swap readers already consume, so no reader ever
//! blocks on maintenance.
//!
//! Backpressure is HBase-shaped and explicit:
//!
//! * a **bounded frozen-memstore queue** ([`MaintenanceConfig::max_frozen_memstores`]):
//!   a writer about to freeze past the bound stalls until the flusher
//!   catches up (HBase's `hbase.hstore.memstore.block.multiplier` wall);
//! * a **blocking-store-files limit** ([`MaintenanceConfig::blocking_files`]):
//!   writers stall outright while the file count is at or above it
//!   (`hbase.hstore.blockingStoreFiles`), and merely *throttle* — a fixed
//!   micro-sleep per write — from [`MaintenanceConfig::throttle_files`] up.
//!
//! Stall time, queue depths and maintenance debt are all counted in
//! [`MaintenanceStats`] and surfaced via [`MaintenanceSnapshot`], which the
//! region layer converts into telemetry events, counters and gauges so the
//! decision maker can see maintenance pressure per region.
//!
//! Correctness contract with the WAL: the writer rotates the log *before*
//! freezing, hands the sealed-segment index to the flusher with the frozen
//! memstore, and the flusher reports it back (via
//! [`MaintenanceHandle::take_pending_truncation`]) only once the HFile is
//! published — so the durable log always covers every acknowledged write
//! that is not yet in a published file, no matter where a crash lands.

use crate::block_cache::FileId;
use crate::hfile::HFile;
use crate::memstore::MemStore;
use crate::store::{write_merged, FileIdAllocator, StoreShared};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for the background maintenance pipeline. All thresholds mirror
/// their HBase counterparts; see the README knob table for the `MET_*`
/// environment routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceConfig {
    /// Freeze + enqueue the active memstore once it holds this many heap
    /// bytes (`hbase.hregion.memstore.flush.size`).
    pub memstore_flush_bytes: usize,
    /// Bounded frozen queue: a writer about to exceed this many frozen
    /// memstores stalls until the flusher drains one.
    pub max_frozen_memstores: usize,
    /// Enqueue a compaction once this many files are live
    /// (`hbase.hstore.compactionThreshold`).
    pub compact_min_files: usize,
    /// Largest contiguous file run a single compaction job merges.
    pub compact_max_files: usize,
    /// Soft limit: from this file count up, each write pays
    /// [`MaintenanceConfig::throttle_micros`] of delay.
    pub throttle_files: usize,
    /// Hard limit: writers stall while the file count is at or above this
    /// (`hbase.hstore.blockingStoreFiles`).
    pub blocking_files: usize,
    /// Per-write throttle delay once past `throttle_files`, in µs.
    pub throttle_micros: u64,
    /// Upper bound on any single stall — after this the writer proceeds
    /// anyway (HBase's `hbase.hstore.blockingWaitTime`), so a wedged
    /// worker degrades throughput instead of deadlocking the writer.
    pub max_stall_ms: u64,
    /// Compactor pool size.
    pub compactors: usize,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig {
            memstore_flush_bytes: 4 << 20,
            max_frozen_memstores: 4,
            compact_min_files: 4,
            compact_max_files: 10,
            throttle_files: 12,
            blocking_files: 24,
            throttle_micros: 100,
            max_stall_ms: 10_000,
            compactors: 2,
        }
    }
}

impl MaintenanceConfig {
    /// The defaults with every `MET_FLUSH_*` / `MET_COMPACT_*` /
    /// `MET_STORE_*` knob from the environment applied on top.
    pub fn from_env(env: &simcore::config::EnvConfig) -> Self {
        let d = MaintenanceConfig::default();
        MaintenanceConfig {
            memstore_flush_bytes: env.flush_memstore_bytes.unwrap_or(d.memstore_flush_bytes),
            max_frozen_memstores: env.flush_max_frozen.unwrap_or(d.max_frozen_memstores),
            compact_min_files: env.compact_min_files.unwrap_or(d.compact_min_files),
            compact_max_files: d.compact_max_files.max(env.compact_min_files.unwrap_or(0) * 2),
            throttle_files: env.store_throttle_files.unwrap_or(d.throttle_files),
            blocking_files: env.store_blocking_files.unwrap_or(d.blocking_files),
            throttle_micros: d.throttle_micros,
            max_stall_ms: d.max_stall_ms,
            compactors: env.compact_workers.unwrap_or(d.compactors),
        }
    }
}

/// Monotonic counters the pipeline keeps about itself. All atomics —
/// written by the writer thread and the background workers, read by
/// whoever snapshots.
#[derive(Debug, Default)]
pub struct MaintenanceStats {
    flushes_queued: AtomicU64,
    flushes_completed: AtomicU64,
    flush_bytes: AtomicU64,
    compactions_queued: AtomicU64,
    compactions_completed: AtomicU64,
    compaction_bytes_rewritten: AtomicU64,
    writer_stalls: AtomicU64,
    stall_micros_total: AtomicU64,
    throttled_writes: AtomicU64,
}

/// A point-in-time copy of the pipeline's counters plus the store's
/// current maintenance debt, for telemetry and the monitor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceSnapshot {
    /// Memstores handed to the background flusher.
    pub flushes_queued: u64,
    /// Background flushes whose HFile has been published.
    pub flushes_completed: u64,
    /// Bytes written by completed background flushes.
    pub flush_bytes: u64,
    /// Compaction jobs handed to the pool.
    pub compactions_queued: u64,
    /// Compaction jobs finished (published or skipped).
    pub compactions_completed: u64,
    /// Bytes read + written by published background compactions.
    pub compaction_bytes_rewritten: u64,
    /// Times a writer stalled (frozen queue full or blocking-files wall).
    pub writer_stalls: u64,
    /// Total stalled wall-clock, µs.
    pub stall_micros_total: u64,
    /// Writes that paid the soft throttle delay.
    pub throttled_writes: u64,
    /// Frozen memstores currently awaiting flush (queue depth gauge).
    pub frozen_memstores: u64,
    /// Heap bytes across those frozen memstores (maintenance debt gauge).
    pub debt_bytes: u64,
    /// Current immutable file count (compaction debt indicator).
    pub file_count: u64,
}

impl MaintenanceSnapshot {
    /// Total stalled wall-clock in whole milliseconds.
    pub fn stall_ms_total(&self) -> u64 {
        self.stall_micros_total / 1_000
    }

    /// Accumulates `other` into `self` — used to aggregate per-family
    /// pipelines into one per-region (or per-server) pressure figure.
    pub fn merge(&mut self, other: &MaintenanceSnapshot) {
        self.flushes_queued += other.flushes_queued;
        self.flushes_completed += other.flushes_completed;
        self.flush_bytes += other.flush_bytes;
        self.compactions_queued += other.compactions_queued;
        self.compactions_completed += other.compactions_completed;
        self.compaction_bytes_rewritten += other.compaction_bytes_rewritten;
        self.writer_stalls += other.writer_stalls;
        self.stall_micros_total += other.stall_micros_total;
        self.throttled_writes += other.throttled_writes;
        self.frozen_memstores += other.frozen_memstores;
        self.debt_bytes += other.debt_bytes;
        self.file_count += other.file_count;
    }

    /// Flush jobs enqueued but not yet published.
    pub fn pending_flushes(&self) -> u64 {
        self.flushes_queued.saturating_sub(self.flushes_completed)
    }

    /// Compaction jobs enqueued but not yet finished.
    pub fn pending_compactions(&self) -> u64 {
        self.compactions_queued.saturating_sub(self.compactions_completed)
    }
}

struct FlushJob {
    frozen: Arc<MemStore>,
    /// Sealed WAL segment index covering the frozen edits, reported back
    /// for truncation once the HFile is published.
    sealed_through: Option<u64>,
}

struct CompactJob {
    ids: Vec<FileId>,
}

/// State shared between the writer-facing handle and the workers.
struct Inner {
    cfg: MaintenanceConfig,
    shared: Arc<StoreShared>,
    ids: Arc<FileIdAllocator>,
    block_size: u64,
    stats: MaintenanceStats,
    /// Progress signal: workers notify after every publish so stalled
    /// writers and drainers re-check their predicates. (`std` primitives:
    /// the vendored `parking_lot` shim has no condvar.)
    progress: StdMutex<()>,
    cv: Condvar,
    /// Process-death flag: workers stop picking up queued jobs.
    abandoned: AtomicBool,
    /// Files currently claimed by an in-flight compaction job, so
    /// concurrent compactors always merge non-overlapping runs.
    under_compaction: Mutex<HashSet<FileId>>,
    /// Highest sealed WAL segment index whose covering flush has been
    /// published, stored as `index + 1` (0 = none). The writer drains it
    /// into `Wal::truncate_sealed_through` — only the writer owns the WAL.
    pending_truncate: AtomicU64,
    /// Compaction job feed; dropped on shutdown to stop the pool.
    compact_tx: Mutex<Option<mpsc::Sender<CompactJob>>>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("maintenance::Inner").field("cfg", &self.cfg).finish_non_exhaustive()
    }
}

impl Inner {
    fn notify(&self) {
        let _guard = self.progress.lock().unwrap_or_else(PoisonError::into_inner);
        self.cv.notify_all();
    }

    /// Waits on the progress condvar until `ready()` holds or `max`
    /// elapses. Returns the time spent waiting.
    fn wait_for_progress(&self, ready: impl Fn() -> bool, max: Duration) -> Duration {
        let start = Instant::now();
        let mut guard = self.progress.lock().unwrap_or_else(PoisonError::into_inner);
        while !ready() && start.elapsed() < max {
            let (g, _) = self
                .cv
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
        start.elapsed()
    }

    /// Picks the first contiguous run of unclaimed files long enough to
    /// compact, claims it and enqueues the job. Runs are chosen oldest
    /// first and never overlap a claimed file, so concurrent compactions
    /// merge disjoint contiguous runs and the oldest→newest file ordering
    /// invariant survives every replace-by-id swap.
    fn maybe_enqueue_compaction(&self) {
        if self.cfg.compact_min_files < 2 {
            return;
        }
        let files = self.shared.files_snapshot();
        if files.len() < self.cfg.compact_min_files {
            return;
        }
        let mut under = self.under_compaction.lock();
        let mut run: Vec<FileId> = Vec::new();
        for f in &files {
            if under.contains(&f.id()) {
                if run.len() >= self.cfg.compact_min_files {
                    break;
                }
                run.clear();
            } else {
                run.push(f.id());
                if run.len() == self.cfg.compact_max_files {
                    break;
                }
            }
        }
        if run.len() < self.cfg.compact_min_files {
            return;
        }
        let tx = self.compact_tx.lock();
        if let Some(tx) = tx.as_ref() {
            under.extend(run.iter().copied());
            if tx.send(CompactJob { ids: run.clone() }).is_ok() {
                self.stats.compactions_queued.fetch_add(1, Ordering::Relaxed);
            } else {
                for id in &run {
                    under.remove(id);
                }
            }
        }
    }

    fn run_flusher(&self, rx: mpsc::Receiver<FlushJob>) {
        while let Ok(job) = rx.recv() {
            if self.abandoned.load(Ordering::Acquire) {
                break;
            }
            // Batch: a flusher that fell behind wakes to a backlog. Build
            // ONE file from every queued frozen memstore instead of one
            // per job — a single merge+build, one view swap emptying the
            // whole frozen list (which every get probes until then), and
            // fewer, larger files downstream. With no backlog the merge
            // has one input.
            let mut jobs = vec![job];
            while let Ok(next) = rx.try_recv() {
                jobs.push(next);
            }
            let _span = telemetry::span::span("hstore.flush");
            let frozen: Vec<&Arc<MemStore>> = jobs.iter().map(|j| &j.frozen).collect();
            let file = write_merged(&frozen, &[], self.ids.next(), self.block_size, false);
            let bytes = file.total_bytes();
            self.shared.publish_flush_batch(&frozen, Arc::new(file));
            // Truncation covers the newest sealed segment of the batch:
            // every job's edits are in the published file, so the max over
            // the batch is exactly the prefix that no longer needs the log.
            if let Some(idx) = jobs.iter().filter_map(|j| j.sealed_through).max() {
                self.pending_truncate.fetch_max(idx + 1, Ordering::AcqRel);
            }
            self.stats.flushes_completed.fetch_add(jobs.len() as u64, Ordering::Relaxed);
            self.stats.flush_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.maybe_enqueue_compaction();
            self.notify();
        }
    }

    fn run_compactor(&self, rx: Arc<Mutex<mpsc::Receiver<CompactJob>>>) {
        loop {
            let job = {
                let rx = rx.lock();
                rx.recv()
            };
            let Ok(job) = job else {
                break;
            };
            if self.abandoned.load(Ordering::Acquire) {
                break;
            }
            let files = self.shared.files_snapshot();
            let inputs: Vec<Arc<HFile>> = job
                .ids
                .iter()
                .filter_map(|id| files.iter().find(|f| f.id() == *id).cloned())
                .collect();
            if inputs.len() == job.ids.len() && inputs.len() >= 2 {
                let bytes_read: u64 = inputs.iter().map(|f| f.total_bytes()).sum();
                let out = write_merged(&[], &inputs, self.ids.next(), self.block_size, false);
                let rewritten = bytes_read + out.total_bytes();
                if self.shared.replace_files(&job.ids, Arc::new(out)) {
                    self.stats.compaction_bytes_rewritten.fetch_add(rewritten, Ordering::Relaxed);
                }
            }
            {
                let mut under = self.under_compaction.lock();
                for id in &job.ids {
                    under.remove(id);
                }
            }
            self.stats.compactions_completed.fetch_add(1, Ordering::Relaxed);
            self.maybe_enqueue_compaction();
            self.notify();
        }
    }
}

/// The writer-side handle onto a running pipeline, owned by the store.
#[derive(Debug)]
pub(crate) struct MaintenanceHandle {
    inner: Arc<Inner>,
    flush_tx: Option<mpsc::Sender<FlushJob>>,
    flusher: Option<JoinHandle<()>>,
    compactors: Vec<JoinHandle<()>>,
}

impl MaintenanceHandle {
    pub(crate) fn start(
        shared: Arc<StoreShared>,
        ids: Arc<FileIdAllocator>,
        block_size: u64,
        cfg: MaintenanceConfig,
    ) -> Self {
        let (flush_tx, flush_rx) = mpsc::channel::<FlushJob>();
        let (compact_tx, compact_rx) = mpsc::channel::<CompactJob>();
        let inner = Arc::new(Inner {
            cfg,
            shared,
            ids,
            block_size,
            stats: MaintenanceStats::default(),
            progress: StdMutex::new(()),
            cv: Condvar::new(),
            abandoned: AtomicBool::new(false),
            under_compaction: Mutex::new(HashSet::new()),
            pending_truncate: AtomicU64::new(0),
            compact_tx: Mutex::new(Some(compact_tx)),
        });
        let flusher = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("hstore-flusher".into())
                .spawn(move || inner.run_flusher(flush_rx))
                .expect("spawn flusher")
        };
        let compact_rx = Arc::new(Mutex::new(compact_rx));
        let compactors = (0..cfg.compactors.max(1))
            .map(|i| {
                let inner = inner.clone();
                let rx = compact_rx.clone();
                std::thread::Builder::new()
                    .name(format!("hstore-compact-{i}"))
                    .spawn(move || inner.run_compactor(rx))
                    .expect("spawn compactor")
            })
            .collect();
        MaintenanceHandle { inner, flush_tx: Some(flush_tx), flusher: Some(flusher), compactors }
    }

    pub(crate) fn config(&self) -> &MaintenanceConfig {
        &self.inner.cfg
    }

    pub(crate) fn snapshot(&self, shared: &StoreShared) -> MaintenanceSnapshot {
        let s = &self.inner.stats;
        let (frozen, debt) = shared.frozen_debt();
        MaintenanceSnapshot {
            flushes_queued: s.flushes_queued.load(Ordering::Relaxed),
            flushes_completed: s.flushes_completed.load(Ordering::Relaxed),
            flush_bytes: s.flush_bytes.load(Ordering::Relaxed),
            compactions_queued: s.compactions_queued.load(Ordering::Relaxed),
            compactions_completed: s.compactions_completed.load(Ordering::Relaxed),
            compaction_bytes_rewritten: s.compaction_bytes_rewritten.load(Ordering::Relaxed),
            writer_stalls: s.writer_stalls.load(Ordering::Relaxed),
            stall_micros_total: s.stall_micros_total.load(Ordering::Relaxed),
            throttled_writes: s.throttled_writes.load(Ordering::Relaxed),
            frozen_memstores: frozen as u64,
            debt_bytes: debt,
            file_count: shared.file_count() as u64,
        }
    }

    /// Takes (and clears) the highest sealed WAL segment index safe to
    /// truncate. Only the writer calls this — it owns the WAL.
    pub(crate) fn take_pending_truncation(&self) -> Option<u64> {
        // Polled once per put: check with a plain load first so the common
        // nothing-pending case reads a shared cacheline instead of taking
        // it exclusive with an unconditional swap.
        if self.inner.pending_truncate.load(Ordering::Acquire) == 0 {
            return None;
        }
        match self.inner.pending_truncate.swap(0, Ordering::AcqRel) {
            0 => None,
            plus_one => Some(plus_one - 1),
        }
    }

    pub(crate) fn enqueue_flush(&self, frozen: Arc<MemStore>, sealed_through: Option<u64>) {
        let job = FlushJob { frozen, sealed_through };
        self.inner.stats.flushes_queued.fetch_add(1, Ordering::Relaxed);
        let sent = self.flush_tx.as_ref().is_some_and(|tx| tx.send(job).is_ok());
        if !sent {
            // Worker gone — count the job as finished so drains and
            // queue-depth math stay consistent (the frozen memstore
            // stays readable in the view either way).
            self.inner.stats.flushes_completed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Stalls the writer until the frozen queue has room (bounded queue
    /// backpressure).
    pub(crate) fn stall_for_frozen_capacity(&self, shared: &StoreShared) {
        let max = self.inner.cfg.max_frozen_memstores.max(1);
        self.stall_until(|| shared.frozen_debt().0 < max);
    }

    /// File-count backpressure: stall at the blocking wall, throttle past
    /// the soft limit.
    pub(crate) fn backpressure_on_files(&self, shared: &StoreShared) {
        let cfg = &self.inner.cfg;
        let files = shared.file_count();
        if files >= cfg.blocking_files {
            self.stall_until(|| shared.file_count() < cfg.blocking_files);
        } else if files >= cfg.throttle_files && cfg.throttle_micros > 0 {
            self.inner.stats.throttled_writes.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(cfg.throttle_micros));
        }
    }

    fn stall_until(&self, ready: impl Fn() -> bool) {
        if ready() {
            return;
        }
        let max = Duration::from_millis(self.inner.cfg.max_stall_ms.max(1));
        self.inner.stats.writer_stalls.fetch_add(1, Ordering::Relaxed);
        let stalled = self.inner.wait_for_progress(ready, max);
        self.inner
            .stats
            .stall_micros_total
            .fetch_add(stalled.as_micros() as u64, Ordering::Relaxed);
    }

    /// Blocks until every queued flush and compaction has finished (or the
    /// per-wait stall bound expires — a wedged worker must not hang the
    /// caller forever).
    pub(crate) fn drain(&self) {
        let done = || {
            let s = &self.inner.stats;
            s.flushes_queued.load(Ordering::Relaxed) == s.flushes_completed.load(Ordering::Relaxed)
                && self.inner.shared.frozen_debt().0 == 0
                && s.compactions_queued.load(Ordering::Relaxed)
                    == s.compactions_completed.load(Ordering::Relaxed)
        };
        self.inner.wait_for_progress(done, Duration::from_secs(60));
    }

    /// Clean stop: closes both channels and joins every worker. Call
    /// [`MaintenanceHandle::drain`] first if queued work must publish.
    pub(crate) fn shutdown(mut self) {
        self.close_and_join();
    }

    /// Process death: workers stop picking up queued jobs; whatever is
    /// mid-publish finishes (a real crash would land on one side of the
    /// atomic swap anyway), then every thread is joined.
    pub(crate) fn abandon(mut self) {
        self.inner.abandoned.store(true, Ordering::Release);
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        self.flush_tx.take();
        self.inner.compact_tx.lock().take();
        self.inner.notify();
        if let Some(f) = self.flusher.take() {
            let _ = f.join();
        }
        for c in self.compactors.drain(..) {
            let _ = c.join();
        }
    }
}

impl Drop for MaintenanceHandle {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_cache::SharedBlockCache;
    use crate::store::CfStore;
    use crate::types::KeyRange;
    use bytes::Bytes;

    fn small_cfg() -> MaintenanceConfig {
        MaintenanceConfig {
            memstore_flush_bytes: 2_000,
            max_frozen_memstores: 2,
            compact_min_files: 3,
            compact_max_files: 6,
            throttle_files: 6,
            blocking_files: 10,
            throttle_micros: 0,
            max_stall_ms: 5_000,
            compactors: 2,
        }
    }

    fn bg_store(cfg: MaintenanceConfig) -> CfStore {
        let mut s = CfStore::new(SharedBlockCache::new(1 << 20), FileIdAllocator::new(), 512);
        s.start_maintenance(cfg);
        s
    }

    #[test]
    fn writes_flow_through_background_flush_and_compaction() {
        let mut s = bg_store(small_cfg());
        for i in 0..2_000 {
            s.put(format!("row{i:05}").into(), "c".into(), Bytes::from(vec![b'x'; 40]));
        }
        s.drain_maintenance();
        let snap = s.maintenance_snapshot().unwrap();
        assert!(snap.flushes_completed > 0, "background flusher published files: {snap:?}");
        assert_eq!(snap.pending_flushes(), 0, "drain leaves no queued flush");
        assert_eq!(snap.pending_compactions(), 0, "drain leaves no queued compaction");
        assert!(
            snap.compactions_completed > 0,
            "file-count trigger fed the compactor pool: {snap:?}"
        );
        // Every row is still there, exactly once.
        let rows = s.scan_range(&KeyRange::all(), usize::MAX);
        assert_eq!(rows.len(), 2_000);
        // Compaction kept the file count at sane levels.
        assert!(s.file_count() < 10, "compactions bounded the file count: {}", s.file_count());
    }

    #[test]
    fn bounded_frozen_queue_stalls_the_writer() {
        // One permitted frozen memstore and a tiny flush threshold force
        // the writer to outrun the flusher and hit the stall path.
        let cfg = MaintenanceConfig {
            memstore_flush_bytes: 500,
            max_frozen_memstores: 1,
            // No compactions in this test — lift the file-count walls too,
            // or every write past ten files pays the full stall bound.
            compact_min_files: 1_000,
            throttle_files: usize::MAX,
            blocking_files: usize::MAX,
            ..small_cfg()
        };
        let mut s = bg_store(cfg);
        for i in 0..800 {
            s.put(format!("row{i:04}").into(), "c".into(), Bytes::from(vec![b'x'; 50]));
        }
        s.drain_maintenance();
        let snap = s.maintenance_snapshot().unwrap();
        assert!(snap.flushes_completed >= 2);
        assert_eq!(s.scan_range(&KeyRange::all(), usize::MAX).len(), 800, "no write lost");
        // The queue bound held at every freeze: depth never exceeds the
        // bound because the writer stalls first (observable post-hoc via
        // the stall counters whenever the flusher actually lagged).
        assert!(snap.frozen_memstores == 0, "drained");
    }

    #[test]
    fn wal_truncation_follows_published_background_flushes() {
        let mut s = CfStore::new(SharedBlockCache::new(1 << 20), FileIdAllocator::new(), 512);
        s.enable_wal(crate::wal::WalConfig::default());
        s.start_maintenance(MaintenanceConfig { memstore_flush_bytes: 1_000, ..small_cfg() });
        for i in 0..500 {
            s.put(format!("row{i:04}").into(), "c".into(), Bytes::from(vec![b'x'; 30]));
        }
        s.drain_maintenance();
        // One more write applies any truncation the drain earned; after
        // that the only live WAL bytes cover the still-unflushed tail.
        s.put("tail".into(), "c".into(), Bytes::from_static(b"v"));
        let wal = s.wal().unwrap();
        assert!(wal.stats().truncated_bytes > 0, "published flushes reclaimed their segments");
        assert_eq!(wal.sealed_segments(), 0, "no sealed segment outlives its flush");
    }

    #[test]
    fn stop_maintenance_reverts_to_inline_flushes() {
        let mut s = bg_store(small_cfg());
        for i in 0..200 {
            s.put(format!("row{i:04}").into(), "c".into(), Bytes::from(vec![b'x'; 30]));
        }
        s.stop_maintenance();
        assert!(!s.maintenance_enabled());
        assert!(s.maintenance_snapshot().is_none());
        // Inline flush still works.
        s.put("r".into(), "c".into(), Bytes::from_static(b"v"));
        assert!(s.flush().is_some());
        assert_eq!(s.scan_range(&KeyRange::all(), usize::MAX).len(), 201);
    }

    #[test]
    fn from_env_routes_the_knobs() {
        let env = simcore::config::EnvConfig::from_lookup(|k| match k {
            "MET_FLUSH_MEMSTORE_BYTES" => Some("8192".into()),
            "MET_FLUSH_MAX_FROZEN" => Some("7".into()),
            "MET_COMPACT_MIN_FILES" => Some("5".into()),
            "MET_COMPACT_WORKERS" => Some("3".into()),
            "MET_STORE_THROTTLE_FILES" => Some("9".into()),
            "MET_STORE_BLOCKING_FILES" => Some("33".into()),
            _ => None,
        });
        let cfg = MaintenanceConfig::from_env(&env);
        assert_eq!(cfg.memstore_flush_bytes, 8192);
        assert_eq!(cfg.max_frozen_memstores, 7);
        assert_eq!(cfg.compact_min_files, 5);
        assert_eq!(cfg.compactors, 3);
        assert_eq!(cfg.throttle_files, 9);
        assert_eq!(cfg.blocking_files, 33);
        assert_eq!(cfg.compact_max_files, 10, "derived cap stays at the default floor");
    }
}
