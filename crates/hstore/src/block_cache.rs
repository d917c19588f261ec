//! The RegionServer block cache.
//!
//! HBase keeps one LRU block cache per RegionServer, shared by every region
//! it serves, sized as a fraction of the heap — the single most important
//! read-path knob MeT tunes (§2.1, Table 1). The cache here is an exact LRU
//! over `(file, block)` identifiers with byte-capacity accounting and
//! hit/miss statistics; the cached payloads themselves stay in the in-memory
//! [`HFile`](crate::hfile::HFile), so the cache models *admission and
//! eviction*, which is what the performance model consumes.
//!
//! So that a hit and a miss cost what the mechanism costs and not what its
//! bookkeeping does, the cache keeps no tree and no per-block hash: recency
//! is an intrusive list through a slab, and a block is found through one
//! map from its file — hashed with one multiply — to a dense vector of that
//! file's slab slots, indexed by block number. A hit is one map probe, one
//! vector read and a relink; a miss adds the slab and map updates of the
//! blocks it admits and evicts. Invalidating a file walks its vector.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies an immutable store file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// Identifies one block within a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId {
    /// Owning file.
    pub file: FileId,
    /// Block index within the file.
    pub index: u32,
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The block was resident.
    Hit,
    /// The block was loaded (disk read) and admitted.
    Miss,
}

/// A per-operation cache-access accumulator.
///
/// The block cache is shared by every region on a server, so its global
/// [`CacheStats`] cannot attribute work to individual operations: two
/// interleaved scans each see the *other's* blocks in a before/after
/// delta. A read path makes one of these on its stack and lends it to the
/// file cursors it opens, recording only the accesses the operation itself
/// performed.
#[derive(Debug, Default)]
pub struct AccessCounter {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AccessCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one cache access.
    pub fn record(&self, access: Access) {
        match access {
            Access::Hit => self.hits.fetch_add(1, Ordering::Relaxed),
            Access::Miss => self.misses.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Accesses that found the block resident.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Accesses that read the block from disk.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Cumulative cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that found the block resident.
    pub hits: u64,
    /// Accesses that had to load the block.
    pub misses: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Total number of accesses recorded.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`; `0.0` for an untouched cache.
    ///
    /// A cold or idle cache has served nothing, so it must not report a
    /// 100 % hit rate — that would inflate fleet-wide cache summaries with
    /// phantom-perfect idle servers. Consumers that want to distinguish
    /// "no traffic" from "all misses" should check [`CacheStats::accesses`].
    pub fn hit_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Publishes these cumulative counters as gauges labelled with the
    /// owning server, so the report layer can compute fleet-wide hit rates
    /// from a registry snapshot. The hit-ratio gauge is withheld until the
    /// cache has served at least one access, so idle servers never
    /// contribute a ratio sample at all.
    pub fn publish(&self, telemetry: &telemetry::Telemetry, server: &str) {
        let labels = [("server", server)];
        telemetry.gauge_set("hstore_block_cache_hits", &labels, self.hits as f64);
        telemetry.gauge_set("hstore_block_cache_misses", &labels, self.misses as f64);
        telemetry.gauge_set("hstore_block_cache_evictions", &labels, self.evictions as f64);
        if self.accesses() > 0 {
            telemetry.gauge_set("hstore_block_cache_hit_ratio", &labels, self.hit_ratio());
        }
    }
}

/// Sentinel for "no node" in the intrusive LRU list and in a file's slots.
const NIL: usize = usize::MAX;

/// One resident block's slab slot: payload plus intrusive list links.
#[derive(Debug, Clone, Copy)]
struct LruNode {
    block: BlockId,
    size: u64,
    prev: usize,
    next: usize,
}

/// One file's resident blocks: slot `i` holds block `i`'s slab index, or
/// [`NIL`]. Block indices are dense from 0, so a file's vector is at most
/// its block count long.
#[derive(Debug, Default)]
struct FileSlots {
    slots: Vec<usize>,
    /// Non-[`NIL`] slots; the file's entry goes when this reaches zero.
    resident: usize,
}

/// Hashes a [`FileId`] with one multiply. File ids are allocated by the
/// store, never taken from outside the program, so the map needs no
/// protection against crafted collisions, and a miss, which probes it once
/// per block admitted or evicted, need not pay `SipHash` for each probe.
#[derive(Debug, Default)]
struct FileIdHasher(u64);

impl Hasher for FileIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        // Fibonacci hashing: the high bits, which pick a bucket's tag, mix
        // every input bit; the low bits, which pick the bucket, stay
        // distinct for sequential ids.
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A byte-bounded LRU cache of block identifiers.
///
/// Recency is an intrusive doubly-linked list threaded through a slab
/// (`nodes` + free list): a hit unlinks the node and re-links it at the
/// head with six pointer writes, an eviction pops the tail — both O(1),
/// where the previous stamp-keyed `BTreeMap` paid O(log n) tree rebalances
/// on *every* access under the shared per-server mutex. Eviction order is
/// byte-identical to the stamp scheme: the list tail is exactly the
/// smallest-stamp entry. Blocks are found through `files` (module docs).
#[derive(Debug)]
pub struct BlockCache {
    capacity_bytes: u64,
    used_bytes: u64,
    files: HashMap<FileId, FileSlots, BuildHasherDefault<FileIdHasher>>,
    nodes: Vec<LruNode>,
    free: Vec<usize>,
    /// Most recently used node (NIL when empty).
    head: usize,
    /// Least recently used node — the eviction victim (NIL when empty).
    tail: usize,
    stats: CacheStats,
}

impl BlockCache {
    /// Creates a cache with the given byte capacity.
    pub fn new(capacity_bytes: u64) -> Self {
        BlockCache {
            capacity_bytes,
            used_bytes: 0,
            files: HashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    /// Slab index of `block`, if resident.
    fn slot(&self, block: &BlockId) -> Option<usize> {
        let file = self.files.get(&block.file)?;
        file.slots.get(block.index as usize).copied().filter(|&idx| idx != NIL)
    }

    /// Detaches node `idx` from the list without freeing its slot.
    fn unlink(&mut self, idx: usize) {
        let LruNode { prev, next, .. } = self.nodes[idx];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    /// Links node `idx` at the head (most recently used).
    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.nodes[h].prev = idx,
        }
        self.head = idx;
    }

    /// Allocates a slab slot for a new node.
    fn alloc(&mut self, node: LruNode) -> usize {
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx] = node;
                idx
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    /// Records an access to `block` of `size` bytes, admitting it on a miss
    /// and evicting LRU blocks as needed.
    pub fn touch(&mut self, block: BlockId, size: u64) -> Access {
        self.touch_counted(block, size).0
    }

    /// [`BlockCache::touch`] also reporting how many blocks were evicted to
    /// admit this one, so a sharded front-end can maintain lock-free global
    /// counters without re-reading per-shard stats.
    pub fn touch_counted(&mut self, block: BlockId, size: u64) -> (Access, u64) {
        if let Some(idx) = self.slot(&block) {
            if idx != self.head {
                self.unlink(idx);
                self.push_front(idx);
            }
            self.stats.hits += 1;
            return (Access::Hit, 0);
        }
        self.stats.misses += 1;
        // Blocks larger than the whole cache are read but never admitted.
        if size > self.capacity_bytes {
            return (Access::Miss, 0);
        }
        let mut evicted = 0u64;
        while self.used_bytes + size > self.capacity_bytes {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "cache accounting corrupt");
            let LruNode { block: vb, size: vsz, .. } = self.nodes[victim];
            self.unlink(victim);
            self.free.push(victim);
            self.unindex(vb);
            debug_assert!(self.used_bytes >= vsz, "cache byte accounting corrupt");
            self.used_bytes = self.used_bytes.saturating_sub(vsz);
            self.stats.evictions += 1;
            evicted += 1;
        }
        let idx = self.alloc(LruNode { block, size, prev: NIL, next: NIL });
        self.push_front(idx);
        let file = self.files.entry(block.file).or_default();
        let index = block.index as usize;
        if file.slots.len() <= index {
            file.slots.resize(index + 1, NIL);
        }
        file.slots[index] = idx;
        file.resident += 1;
        self.used_bytes += size;
        (Access::Miss, evicted)
    }

    /// Clears `block`'s slot, dropping the file's entry when its last
    /// resident block goes.
    fn unindex(&mut self, block: BlockId) {
        let file = self.files.get_mut(&block.file).expect("lru/slots out of sync");
        file.slots[block.index as usize] = NIL;
        file.resident -= 1;
        if file.resident == 0 {
            self.files.remove(&block.file);
        }
    }

    /// Drops every block belonging to `file` (file deleted by compaction).
    ///
    /// O(that file's slot vector), walked in ascending block order — a
    /// compaction that deletes a file no longer scans the whole cache while
    /// holding the shared mutex, and the freed slab slots are pushed in the
    /// same order as ever, so later admissions reuse the same slots.
    pub fn invalidate_file(&mut self, file: FileId) {
        let Some(FileSlots { slots, .. }) = self.files.remove(&file) else { return };
        for idx in slots.into_iter().filter(|&idx| idx != NIL) {
            let sz = self.nodes[idx].size;
            self.unlink(idx);
            self.free.push(idx);
            debug_assert!(self.used_bytes >= sz, "cache byte accounting corrupt");
            self.used_bytes = self.used_bytes.saturating_sub(sz);
        }
    }

    /// Drops everything (server restart: the cache starts cold — part of
    /// the reconfiguration cost the paper measures in §6.2).
    ///
    /// Statistics reset along with residency: the published hit ratio after
    /// a profile-change restart must describe the cold-cache window, not
    /// blend in warm pre-restart hits (that would hide exactly the
    /// reconfiguration cost §6.2 measures).
    pub fn clear(&mut self) {
        self.files.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.used_bytes = 0;
        self.stats = CacheStats::default();
    }

    /// True when the block is resident (no LRU side effect).
    pub fn contains(&self, block: &BlockId) -> bool {
        self.slot(block).is_some()
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics (kept orthogonal to residency).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[derive(Debug)]
struct CacheInner {
    /// Power-of-two shard array; a block's shard is a hash of its id.
    shards: Vec<Mutex<BlockCache>>,
    /// Global counters maintained outside the shard locks so `stats()`
    /// never has to stop concurrent readers mid-touch.
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    capacity_bytes: u64,
}

/// A cache handle shared by every store on one RegionServer.
///
/// Concurrency model: the intrusive-LRU slab is partitioned into
/// power-of-two shards, each behind its own mutex, with a block's shard
/// chosen by a hash of its `(file, block)` id; hit/miss/eviction counters
/// are process-global atomics updated outside the shard locks. The default
/// [`SharedBlockCache::new`] uses **one** shard, which is byte-identical to
/// the previous single-mutex cache (same eviction order, same stats), so
/// every deterministic trace is unchanged. Multi-shard caches
/// ([`SharedBlockCache::new_sharded`]) split the byte budget evenly across
/// shards and approximate global LRU with per-shard LRU — the standard
/// concurrency/recency trade (HBase's `LruBlockCache` does the same via
/// segmented locking); they exist for genuinely concurrent readers, not
/// for the deterministic simulation paths.
#[derive(Debug, Clone)]
pub struct SharedBlockCache(Arc<CacheInner>);

impl SharedBlockCache {
    /// Creates a shared cache with the given capacity and a single shard —
    /// exact global LRU, byte-identical to the pre-sharding cache.
    pub fn new(capacity_bytes: u64) -> Self {
        Self::new_sharded(capacity_bytes, 1)
    }

    /// Creates a shared cache whose byte budget is split across `shards`
    /// independently locked LRU shards (rounded up to a power of two).
    /// Eviction decisions become per-shard, so only use this where
    /// concurrent throughput matters more than exact LRU order.
    pub fn new_sharded(capacity_bytes: u64, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let per = capacity_bytes / n as u64;
        let rem = capacity_bytes % n as u64;
        let shards = (0..n)
            .map(|i| Mutex::new(BlockCache::new(per + if i == 0 { rem } else { 0 })))
            .collect();
        SharedBlockCache(Arc::new(CacheInner {
            shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            capacity_bytes,
        }))
    }

    /// Number of shards (1 for the deterministic default).
    pub fn shard_count(&self) -> usize {
        self.0.shards.len()
    }

    fn shard(&self, block: &BlockId) -> &Mutex<BlockCache> {
        // Fibonacci-mix the block id; the high bits index the shard array.
        let h = block
            .file
            .0
            .wrapping_add((block.index as u64) << 32)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mask = self.0.shards.len() - 1;
        &self.0.shards[(h >> 48) as usize & mask]
    }

    /// Records an access (see [`BlockCache::touch`]).
    pub fn touch(&self, block: BlockId, size: u64) -> Access {
        let (access, evicted) = self.shard(&block).lock().touch_counted(block, size);
        match access {
            Access::Hit => self.0.hits.fetch_add(1, Ordering::Relaxed),
            Access::Miss => self.0.misses.fetch_add(1, Ordering::Relaxed),
        };
        if evicted > 0 {
            self.0.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        access
    }

    /// Drops blocks of a deleted file (its blocks may sit in any shard).
    pub fn invalidate_file(&self, file: FileId) {
        for shard in &self.0.shards {
            shard.lock().invalidate_file(file);
        }
    }

    /// Clears all residency (restart).
    pub fn clear(&self) {
        for shard in &self.0.shards {
            shard.lock().clear();
        }
        self.0.hits.store(0, Ordering::Relaxed);
        self.0.misses.store(0, Ordering::Relaxed);
        self.0.evictions.store(0, Ordering::Relaxed);
    }

    /// Cumulative statistics snapshot — a lock-free read of the global
    /// atomic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.0.hits.load(Ordering::Relaxed),
            misses: self.0.misses.load(Ordering::Relaxed),
            evictions: self.0.evictions.load(Ordering::Relaxed),
        }
    }

    /// Resets statistics (global counters and every shard's local view).
    pub fn reset_stats(&self) {
        for shard in &self.0.shards {
            shard.lock().reset_stats();
        }
        self.0.hits.store(0, Ordering::Relaxed);
        self.0.misses.store(0, Ordering::Relaxed);
        self.0.evictions.store(0, Ordering::Relaxed);
    }

    /// Bytes currently cached across all shards.
    pub fn used_bytes(&self) -> u64 {
        self.0.shards.iter().map(|s| s.lock().used_bytes()).sum()
    }

    /// Configured total capacity.
    pub fn capacity_bytes(&self) -> u64 {
        self.0.capacity_bytes
    }

    /// Publishes the current statistics (see [`CacheStats::publish`]).
    pub fn publish(&self, telemetry: &telemetry::Telemetry, server: &str) {
        self.stats().publish(telemetry, server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bid(f: u64, i: u32) -> BlockId {
        BlockId { file: FileId(f), index: i }
    }

    #[test]
    fn hit_after_miss() {
        let mut c = BlockCache::new(1_000);
        assert_eq!(c.touch(bid(1, 0), 100), Access::Miss);
        assert_eq!(c.touch(bid(1, 0), 100), Access::Hit);
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
        assert_eq!(c.used_bytes(), 100);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = BlockCache::new(300);
        c.touch(bid(1, 0), 100);
        c.touch(bid(1, 1), 100);
        c.touch(bid(1, 2), 100);
        // Refresh block 0 so block 1 is now LRU.
        c.touch(bid(1, 0), 100);
        // Admitting a new block evicts block 1, not block 0.
        c.touch(bid(2, 0), 100);
        assert!(c.contains(&bid(1, 0)));
        assert!(!c.contains(&bid(1, 1)));
        assert!(c.contains(&bid(1, 2)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = BlockCache::new(250);
        for i in 0..100 {
            c.touch(bid(1, i), 100);
            assert!(c.used_bytes() <= 250, "over capacity: {}", c.used_bytes());
        }
        assert_eq!(c.used_bytes(), 200); // two 100-byte blocks fit
    }

    #[test]
    fn oversized_block_is_never_admitted() {
        let mut c = BlockCache::new(100);
        assert_eq!(c.touch(bid(1, 0), 500), Access::Miss);
        assert_eq!(c.touch(bid(1, 0), 500), Access::Miss);
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn invalidate_file_frees_bytes() {
        let mut c = BlockCache::new(1_000);
        c.touch(bid(1, 0), 100);
        c.touch(bid(1, 1), 100);
        c.touch(bid(2, 0), 100);
        c.invalidate_file(FileId(1));
        assert_eq!(c.used_bytes(), 100);
        assert!(!c.contains(&bid(1, 0)));
        assert!(c.contains(&bid(2, 0)));
    }

    #[test]
    fn clear_is_cold_restart() {
        let mut c = BlockCache::new(1_000);
        c.touch(bid(1, 0), 100);
        c.clear();
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.touch(bid(1, 0), 100), Access::Miss);
    }

    #[test]
    fn clear_resets_stats_with_residency() {
        let mut c = BlockCache::new(1_000);
        // Warm the cache: 1 miss + 3 hits = 75 % pre-restart hit rate.
        c.touch(bid(1, 0), 100);
        c.touch(bid(1, 0), 100);
        c.touch(bid(1, 0), 100);
        c.touch(bid(1, 0), 100);
        assert_eq!(c.stats().hit_ratio(), 0.75);
        c.clear();
        // Post-restart stats must describe only the cold window.
        assert_eq!(c.stats(), CacheStats::default());
        c.touch(bid(1, 0), 100); // miss
        c.touch(bid(1, 0), 100); // hit
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
        assert_eq!(c.stats().hit_ratio(), 0.5);
    }

    #[test]
    fn hit_ratio_of_untouched_cache_is_zero() {
        let stats = CacheStats::default();
        assert_eq!(stats.hit_ratio(), 0.0);
        assert_eq!(stats.accesses(), 0);
        // And an untouched cache publishes no ratio gauge at all.
        let t = telemetry::Telemetry::new(telemetry::Verbosity::Off);
        stats.publish(&t, "7");
        assert_eq!(t.gauge_value("hstore_block_cache_hit_ratio", &[("server", "7")]), None);
        assert_eq!(t.gauge_value("hstore_block_cache_hits", &[("server", "7")]), Some(0.0));
        // One access later the gauge appears.
        let touched = CacheStats { hits: 1, misses: 0, evictions: 0 };
        touched.publish(&t, "7");
        assert_eq!(t.gauge_value("hstore_block_cache_hit_ratio", &[("server", "7")]), Some(1.0));
    }

    #[test]
    fn invalidate_file_keeps_used_bytes_and_lru_consistent() {
        let mut c = BlockCache::new(10_000);
        // Interleave three files so stamps and per-file sets cross-cut.
        for i in 0..10u32 {
            c.touch(bid(1, i), 100);
            c.touch(bid(2, i), 50);
            c.touch(bid(3, i), 25);
        }
        assert_eq!(c.used_bytes(), 1_750);
        c.invalidate_file(FileId(2));
        assert_eq!(c.used_bytes(), 1_250);
        for i in 0..10u32 {
            assert!(c.contains(&bid(1, i)));
            assert!(!c.contains(&bid(2, i)));
            assert!(c.contains(&bid(3, i)));
        }
        // Invalidating an absent file is a no-op.
        c.invalidate_file(FileId(2));
        c.invalidate_file(FileId(99));
        assert_eq!(c.used_bytes(), 1_250);
        // LRU order must have survived: filling the cache evicts the
        // remaining blocks strictly oldest-first (file 1 before file 3).
        let mut c2 = c;
        while c2.contains(&bid(1, 0)) {
            c2.touch(bid(4, c2.stats().misses as u32), 1_000);
            assert!(c2.used_bytes() <= c2.capacity_bytes());
        }
        assert!(c2.contains(&bid(3, 9)), "newest survivor must outlive oldest");
        // A re-admitted block of an invalidated file works normally.
        let mut c3 = BlockCache::new(1_000);
        c3.touch(bid(5, 0), 100);
        c3.invalidate_file(FileId(5));
        assert_eq!(c3.touch(bid(5, 0), 100), Access::Miss);
        assert_eq!(c3.touch(bid(5, 0), 100), Access::Hit);
        assert_eq!(c3.used_bytes(), 100);
    }

    #[test]
    fn eviction_keeps_per_file_index_in_sync() {
        let mut c = BlockCache::new(300);
        c.touch(bid(1, 0), 100);
        c.touch(bid(1, 1), 100);
        c.touch(bid(2, 0), 100);
        // Admit one more: evicts bid(1, 0).
        c.touch(bid(3, 0), 100);
        assert!(!c.contains(&bid(1, 0)));
        // Invalidate file 1: only bid(1, 1) should be dropped.
        c.invalidate_file(FileId(1));
        assert_eq!(c.used_bytes(), 200);
        assert!(c.contains(&bid(2, 0)));
        assert!(c.contains(&bid(3, 0)));
    }

    #[test]
    fn a_file_entry_goes_with_its_last_resident_block() {
        let mut c = BlockCache::new(300);
        c.touch(bid(1, 5), 100);
        c.touch(bid(1, 0), 100);
        c.touch(bid(2, 3), 100);
        assert_eq!(c.files[&FileId(1)].slots.len(), 6);
        assert_eq!(c.files[&FileId(1)].resident, 2);
        // Two admissions evict file 1's two blocks, oldest first.
        c.touch(bid(3, 0), 100);
        assert!(c.files.contains_key(&FileId(1)));
        c.touch(bid(3, 1), 100);
        assert!(!c.files.contains_key(&FileId(1)), "evicting the last block drops the entry");
        assert!(!c.contains(&bid(1, 0)) && !c.contains(&bid(1, 5)));
        // Eviction can empty the very file it admits into.
        let mut c = BlockCache::new(100);
        c.touch(bid(7, 0), 100);
        assert_eq!(c.touch(bid(7, 1), 100), Access::Miss);
        assert!(c.contains(&bid(7, 1)) && !c.contains(&bid(7, 0)));
        assert_eq!(c.files[&FileId(7)].resident, 1);
        assert_eq!(c.files.len(), 1);
    }

    #[test]
    fn an_invalidated_block_can_be_readmitted() {
        let mut c = BlockCache::new(1_000);
        for i in [2, 0, 1] {
            c.touch(bid(4, i), 100);
        }
        c.touch(bid(5, 0), 100);
        c.invalidate_file(FileId(4));
        assert!(!c.files.contains_key(&FileId(4)));
        // Slab slots by admission: block 2 → 0, block 0 → 1, block 1 → 2.
        // They are freed in ascending block order, so the next admission
        // reuses block 2's slot.
        assert_eq!(c.free, [1, 2, 0]);
        assert_eq!(c.touch(bid(4, 1), 100), Access::Miss);
        assert_eq!(c.slot(&bid(4, 1)), Some(0));
        assert_eq!(c.touch(bid(4, 1), 100), Access::Hit);
        assert_eq!(c.files[&FileId(4)].resident, 1);
        assert_eq!(c.used_bytes(), 200);
        // Recency survived: filling the cache evicts file 5's block, the
        // older one, and keeps the re-admitted one.
        for i in 0..9 {
            c.touch(bid(6, i), 100);
        }
        assert!(!c.contains(&bid(5, 0)));
        assert!(c.contains(&bid(4, 1)));
    }

    #[test]
    fn shared_handle_is_really_shared() {
        let a = SharedBlockCache::new(1_000);
        let b = a.clone();
        a.touch(bid(1, 0), 100);
        assert_eq!(b.touch(bid(1, 0), 100), Access::Hit);
    }

    #[test]
    fn shared_cache_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedBlockCache>();
        assert_send_sync::<telemetry::Telemetry>();
    }
}
