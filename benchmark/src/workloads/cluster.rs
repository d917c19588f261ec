//! `read-fit`, `read-spill` and `scan-insert`: a YCSB client driving a
//! `FunctionalCluster` of three servers, one table, four regions.
//!
//! All three load the same rows in the same layout — three overlapping
//! files per region (row `i` lives in the file of pass `i % 3`) plus a
//! memstore overlay re-writing every 100th row — so a point get probes the
//! memstore, is turned away by two bloom filters on average and reads one
//! block. They differ in cache size and operation mix only, so a change
//! that moves one of them and not the others names its mechanism.

use super::{cache_delta, Outcome, RunConfig, SETUP_REPS, SPANS_KEPT_PER_NAME};
use crate::gen::{self, qualifier, row_key, value_with_seq, Op, OpGen, VALUE_BYTES};
use crate::harness::{
    closed_loop, closed_loop_paired, run_batch, timed_setups, Class, Driver, LatBufs, SpanKind,
    SpanRecorder, Tracing,
};
use crate::stats::{median, ratio};
use cluster::functional::FunctionalCluster;
use cluster::ServerId;
use hstore::bloom::BloomFilter;
use hstore::hfile::HFile;
use hstore::memstore::MemStore;
use hstore::types::{CellVersion, InternalKey};
use hstore::{
    Access, BlockId, CacheStats, CfStore, Family, FileId, FileIdAllocator, KeyRange,
    MaintenanceConfig, MaintenanceSnapshot, Qualifier, Region, RegionId, RowKey, SharedBlockCache,
    StoreConfig, Timestamp,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use ycsb::WorkloadSpec;

/// Which of the three cluster workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// YCSB C, data fits the block cache.
    ReadFit,
    /// YCSB C, cache holds an eighth of the data.
    ReadSpill,
    /// YCSB E, fit-size cache, background maintenance on.
    ScanInsert,
}

/// Rows loaded: 1 000 000 × 144 stored bytes = 144 MB.
const ROWS: u64 = 1_000_000;
const SERVERS: usize = 3;
const BLOCK_BYTES: u64 = 16 << 10;
/// Flushed passes per region (one file each).
const PASSES: u64 = 3;
/// Every this-many-th row is re-written after the last flush and stays in
/// the memstore.
const OVERLAY_EVERY: u64 = 100;
/// Per-server cache that holds a server's whole share of the data.
const FIT_CACHE_BYTES: u64 = 128 << 20;
/// `scan-insert` freezes a region's memstore at this size.
const BG_FREEZE_BYTES: usize = 1 << 20;
/// Seed of the cluster's own placement shuffle: fixed, because `--seed`
/// drives the generated operations only.
const CLUSTER_SEED: u64 = 1;
/// Every this-many-th scan has its full row order verified (the cheap
/// checks run on every scan).
const SCAN_ORDER_CHECK_EVERY: u64 = 16;

/// Distinct keys of the cache-resident stream that isolates the wrappers
/// above the store, and the rounds it is replayed for.
const HOT_KEYS: usize = 256;
const HOT_ROUNDS: u64 = 15;

const TABLE: &str = "usertable";

struct Sizes {
    rows: u64,
    cache_bytes: u64,
    batch: usize,
    replay_ops: usize,
    replay_chunk: usize,
    hot_rounds: usize,
}

impl Kind {
    fn mix(self) -> &'static str {
        match self {
            Kind::ReadFit | Kind::ReadSpill => "C",
            Kind::ScanInsert => "E",
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::ReadFit => "read-fit",
            Kind::ReadSpill => "read-spill",
            Kind::ScanInsert => "scan-insert",
        }
    }

    fn primary(self) -> Class {
        match self {
            Kind::ReadFit | Kind::ReadSpill => Class::Read,
            Kind::ScanInsert => Class::Scan,
        }
    }

    fn sizes(self, cfg: &RunConfig) -> Sizes {
        let rows = cfg.scaled(ROWS, 4_000);
        let stored = rows * gen::cell_bytes();
        let cache_bytes = match self {
            Kind::ReadFit | Kind::ScanInsert => FIT_CACHE_BYTES,
            // An eighth of the data, split over the servers.
            Kind::ReadSpill => (stored / 8 / SERVERS as u64).max(4 * BLOCK_BYTES),
        };
        let (batch, replay_ops, replay_chunk) = match self {
            Kind::ReadFit => (50_000, 200_000, 10_000),
            Kind::ReadSpill => (10_000, 40_000, 4_000),
            // No replay: the scan path has no mirrored levels.
            Kind::ScanInsert => (10_000, 0, 0),
        };
        Sizes {
            rows,
            cache_bytes,
            batch: cfg.scaled(batch, 200) as usize,
            replay_ops: cfg.scaled(replay_ops, 400) as usize,
            replay_chunk: cfg.scaled(replay_chunk, 200) as usize,
            hot_rounds: cfg.scaled(HOT_ROUNDS, 2) as usize,
        }
    }
}

fn family() -> Family {
    ycsb::client::family()
}

/// A server whose block cache is `cache_bytes`, which never flushes,
/// compacts or splits on its own: `maintenance()` flushes whatever the
/// memstore holds (threshold 1 byte) and nothing else, so the loader
/// decides the file layout.
fn store_config(cache_bytes: u64) -> StoreConfig {
    StoreConfig {
        heap_bytes: cache_bytes * 5 / 2,
        block_cache_fraction: 0.4,
        memstore_fraction: 0.25,
        block_size: BLOCK_BYTES,
        handler_count: 10,
        memstore_flush_bytes: 1,
        region_split_bytes: u64::MAX,
        compaction_threshold: usize::MAX,
    }
}

enum LoadStep {
    Put(u64),
    Flush,
}

/// The load every level replays: `PASSES` strided passes, a flush after
/// each, then the memstore overlay.
fn load_plan(rows: u64) -> impl Iterator<Item = LoadStep> {
    let passes = (0..PASSES).flat_map(move |p| {
        (p..rows)
            .step_by(PASSES as usize)
            .map(LoadStep::Put)
            .chain(std::iter::once(LoadStep::Flush))
    });
    passes.chain((0..rows).step_by(OVERLAY_EVERY as usize).map(LoadStep::Put))
}

/// The cluster under test with the counters the driver keeps beside it.
struct ClusterDriver {
    cluster: FunctionalCluster,
    fam: Family,
    q: Qualifier,
    regions: Vec<RegionId>,
    scans: u64,
    scan_rows: u64,
    scan_blocks: u64,
    put_bytes: u64,
    frozen_peak: u64,
}

impl ClusterDriver {
    fn build(spec: &WorkloadSpec, sizes: &Sizes) -> Result<Self, String> {
        let err = |e: cluster::functional::FunctionalError| e.to_string();
        let mut cluster = FunctionalCluster::new(CLUSTER_SEED);
        for _ in 0..SERVERS {
            cluster.add_server(store_config(sizes.cache_bytes)).map_err(err)?;
        }
        let splits: Vec<RowKey> = spec.split_keys().into_iter().map(RowKey::from).collect();
        let fam = family();
        let q = qualifier();
        let regions =
            cluster.create_table(TABLE, std::slice::from_ref(&fam), &splits).map_err(err)?;
        let value = value_with_seq(0);
        for step in load_plan(sizes.rows) {
            match step {
                LoadStep::Put(idx) => cluster
                    .put(TABLE, &fam, row_key(spec, idx), q.clone(), value.clone())
                    .map_err(err)?,
                LoadStep::Flush => {
                    cluster.maintenance();
                }
            }
        }
        Ok(ClusterDriver {
            cluster,
            fam,
            q,
            regions,
            scans: 0,
            scan_rows: 0,
            scan_blocks: 0,
            put_bytes: 0,
            frozen_peak: 0,
        })
    }

    fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for sid in self.cluster.server_ids() {
            if let Some(s) = self.cluster.server_cache_stats(sid) {
                total.hits += s.hits;
                total.misses += s.misses;
                total.evictions += s.evictions;
            }
        }
        total
    }

    fn maintenance(&self) -> MaintenanceSnapshot {
        let mut total = MaintenanceSnapshot::default();
        for rid in &self.regions {
            if let Some(s) = self.cluster.region_maintenance_pressure(*rid) {
                total.merge(&s);
            }
        }
        total
    }

    fn stored_bytes(&self) -> u64 {
        self.regions.iter().filter_map(|r| self.cluster.region_size(*r)).sum()
    }
}

impl Driver for ClusterDriver {
    fn exec(&mut self, op: &Op) -> bool {
        match op {
            Op::Get { row, .. } => matches!(
                self.cluster.get_with_stats(TABLE, &self.fam, row, &self.q),
                Ok((Some(v), _)) if v.len() == VALUE_BYTES
            ),
            Op::Scan { start, len, .. } => {
                let Ok((rows, stats)) = self.cluster.scan_with_stats(TABLE, &self.fam, start, *len)
                else {
                    return false;
                };
                self.scans += 1;
                self.scan_rows += rows.len() as u64;
                self.scan_blocks += stats.blocks_touched();
                // The start key is a loaded or inserted row, so it comes
                // back first; rows never exceed the limit and ascend.
                let cheap = rows.first().is_some_and(|(r, cells)| {
                    r == start && cells.len() == 1 && cells[0].1.len() == VALUE_BYTES
                }) && rows.len() <= *len;
                if self.scans.is_multiple_of(SCAN_ORDER_CHECK_EVERY) {
                    cheap && rows.windows(2).all(|w| w[0].0 < w[1].0)
                } else {
                    cheap
                }
            }
            Op::Put { row, value, .. } => {
                self.put_bytes += gen::cell_bytes();
                self.cluster
                    .put_with_stats(TABLE, &self.fam, row.clone(), self.q.clone(), value.clone())
                    .is_ok()
            }
        }
    }

    fn after_batch(&mut self) {
        self.frozen_peak = self.frozen_peak.max(self.maintenance().frozen_memstores);
    }
}

/// Runs one of the cluster workloads.
pub fn run(kind: Kind, cfg: &RunConfig) -> Result<Outcome, String> {
    let sizes = kind.sizes(cfg);
    let spec = gen::spec(kind.mix(), sizes.rows);
    let mut out = Outcome::new(cfg.trace);

    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let (built, setup_s) = timed_setups(reps, || ClusterDriver::build(&spec, &sizes));
    let mut driver = built?;
    let loaded_bytes = driver.stored_bytes();
    if kind == Kind::ScanInsert {
        driver.cluster.enable_background_maintenance(MaintenanceConfig {
            memstore_flush_bytes: BG_FREEZE_BYTES,
            ..MaintenanceConfig::default()
        });
    }
    out.note(format!(
        "{}: {} rows, {} B stored, {} servers x {} B cache, {} regions, {} B blocks, batch {}",
        kind.name(),
        sizes.rows,
        loaded_bytes,
        SERVERS,
        sizes.cache_bytes,
        driver.regions.len(),
        BLOCK_BYTES,
        sizes.batch,
    ));

    let mut gen = OpGen::new(spec.clone(), cfg.seed, "window");
    let warm = closed_loop(cfg.warmup(), sizes.batch, &mut gen, &mut driver);
    out.count(&warm);

    if !cfg.trace {
        let w = closed_loop(cfg.window(), sizes.batch, &mut gen, &mut driver);
        finish_maintenance(&mut driver);
        out.set_end_to_end(setup_s, &w, kind.primary());
        return Ok(out);
    }

    // Traced run: a window whose batches alternate untraced and traced,
    // then the layers one by one on mirrors fed the same operations.
    let mut rec = SpanRecorder::new(SPANS_KEPT_PER_NAME);
    let kinds = [
        rec.register("cluster.functional.get", ""),
        rec.register("cluster.functional.scan", ""),
        rec.register("cluster.functional.put", ""),
    ];
    let cache_before = driver.cache_stats();
    let (plain, traced) =
        closed_loop_paired(cfg.share(0.6), sizes.batch, &mut gen, &mut rec, kinds, &mut driver);
    out.set_traced_window(&plain, &traced, cache_delta(driver.cache_stats(), cache_before));

    let m = &mut out.metrics;
    if kind == Kind::ScanInsert {
        let scan = plain.class(Class::Scan).total_ns + traced.class(Class::Scan).total_ns;
        m.set("hstore.store.scan_ns_per_row", ratio(scan as f64, driver.scan_rows as f64));
        m.set("hstore.store.scan_rows_per_op", ratio(driver.scan_rows as f64, driver.scans as f64));
        m.set(
            "hstore.hfile.blocks_per_scan",
            ratio(driver.scan_blocks as f64, driver.scans as f64),
        );
    } else {
        let mut replay = OpGen::new(spec.clone(), cfg.seed, "replay");
        let warm_ops = replay.batch(sizes.replay_ops / 2);
        let ops = replay.batch(sizes.replay_ops);
        out.attempted += (warm_ops.len() + ops.len()) as u64;
        let mirrors = Mirrors::build(&spec, &sizes, &driver)?;
        let (costs, failed) = mirrors.replay(&mut driver, &warm_ops, &ops, &sizes, &mut rec);
        out.failed += failed;
        costs.report(&mut out);
    }

    let overhead = client_overhead(&mut driver, &spec, cfg.seed, sizes.batch.min(20_000));
    out.metrics.set("ycsb.client.overhead_ns", overhead);

    if kind == Kind::ScanInsert {
        finish_maintenance(&mut driver);
        let snap = driver.maintenance();
        let user = driver.put_bytes as f64;
        let inserted = driver.put_bytes / gen::cell_bytes();
        let live = (sizes.rows + inserted) * gen::cell_bytes();
        out.metrics.set(
            "write_amp",
            ratio((snap.flush_bytes + snap.compaction_bytes_rewritten) as f64, user),
        );
        out.metrics.set("space_amp", ratio(driver.stored_bytes() as f64, live as f64));
        out.set_maintenance(&snap, driver.frozen_peak, user);
    }

    out.write_spans(&rec, kind.name(), cfg.seed)?;
    Ok(out)
}

/// Lets queued background work publish, so the flusher and compactor
/// threads are idle (and joined on drop) when the run ends.
fn finish_maintenance(driver: &mut ClusterDriver) {
    if driver.cluster.background_maintenance_enabled() {
        driver.cluster.drain_background_maintenance();
    }
}

/// `ycsb::FunctionalClient::run_ops` against driving the cluster directly
/// (generation included on both sides), interleaved; ns per operation the
/// client adds. Guards the harness: nothing gated should follow it.
fn client_overhead(driver: &mut ClusterDriver, spec: &WorkloadSpec, seed: u64, n: usize) -> f64 {
    const PAIRS: usize = 9;
    let mut gen = OpGen::new(spec.clone(), seed, "client-direct");
    let mut client = ycsb::FunctionalClient::new(spec.clone(), seed);
    let mut diffs = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS {
        let t = Instant::now();
        for op in &gen.batch(n) {
            black_box(driver.exec(op));
        }
        let direct = t.elapsed().as_nanos() as f64 / n as f64;
        let t = Instant::now();
        let ran = client.run_ops(&mut driver.cluster, n as u64).is_ok();
        let through_client = t.elapsed().as_nanos() as f64 / n as f64;
        if ran {
            diffs.push(through_client - direct);
        }
    }
    median(&mut diffs)
}

/// The layers below the cluster, each built from the same rows in the same
/// layout with caches of the same size and the same region-to-server
/// sharing, so the same operation stream can be replayed one level down.
struct Mirrors {
    fam: Family,
    q: Qualifier,
    /// First record index of each region.
    bounds: Vec<u64>,
    regions: Vec<Region>,
    stores: Vec<CfStore>,
    /// `[region][pass]`.
    files: Vec<Vec<HFile>>,
    file_caches: Vec<SharedBlockCache>,
    touch_caches: Vec<SharedBlockCache>,
    blooms: Vec<Vec<BloomFilter>>,
    overlays: Vec<MemStore>,
}

/// What the replays measured, ns unless named otherwise.
#[derive(Debug, Default)]
struct ReadCosts {
    route: f64,
    region_self: f64,
    store_get: f64,
    /// Store get on the cache-resident stream (diagnostic).
    hot_store_get: f64,
    files_probed_per_get: f64,
    memstore_hit_ratio: f64,
    bloom_skips_per_get: f64,
    memstore_get: f64,
    bloom_probe: f64,
    file_hit: f64,
    file_miss: f64,
    file_hit_ratio: f64,
    touch_hit: f64,
    touch_miss: f64,
    verify_per_kib: f64,
}

/// Hit and miss timings of one replayed layer.
#[derive(Debug, Default)]
struct HitMiss {
    hit_ns: u64,
    hits: u64,
    miss_ns: u64,
    misses: u64,
}

impl HitMiss {
    fn add(&mut self, access: Access, ns: u64) {
        match access {
            Access::Hit => {
                self.hit_ns += ns;
                self.hits += 1;
            }
            Access::Miss => {
                self.miss_ns += ns;
                self.misses += 1;
            }
        }
    }
}

impl Mirrors {
    fn build(spec: &WorkloadSpec, sizes: &Sizes, driver: &ClusterDriver) -> Result<Self, String> {
        let n = driver.regions.len();
        let bounds: Vec<u64> = (0..n as u64).map(|i| i * sizes.rows / n as u64).collect();
        let servers: Vec<ServerId> = driver
            .regions
            .iter()
            .map(|r| driver.cluster.region_server(*r).ok_or("region without a server"))
            .collect::<Result<_, _>>()?;
        // One cache per server and level; regions on one server share it,
        // exactly as in the cluster.
        let caches_for = |servers: &[ServerId]| -> Vec<SharedBlockCache> {
            let mut by_server: BTreeMap<ServerId, SharedBlockCache> = BTreeMap::new();
            servers
                .iter()
                .map(|s| {
                    by_server
                        .entry(*s)
                        .or_insert_with(|| {
                            SharedBlockCache::new(
                                store_config(sizes.cache_bytes).block_cache_bytes(),
                            )
                        })
                        .clone()
                })
                .collect()
        };
        let fam = family();
        let q = qualifier();
        let ids = FileIdAllocator::new();
        let starts: Vec<Option<RowKey>> =
            bounds.iter().map(|b| (*b > 0).then(|| row_key(spec, *b))).collect();
        // Each level is loaded in a pass of its own, as the cluster was:
        // interleaving the levels would scatter every level's cells over
        // the heap and make the mirrors slower than what they mirror.
        let region_of = |idx: u64| bounds.partition_point(|b| *b <= idx) - 1;
        let value = value_with_seq(0);
        let region_caches = caches_for(&servers);
        let mut regions: Vec<Region> = (0..n)
            .map(|i| {
                Region::new(
                    RegionId(i as u64 + 1),
                    TABLE,
                    KeyRange::new(starts[i].clone(), starts.get(i + 1).cloned().flatten()),
                    std::slice::from_ref(&fam),
                    region_caches[i].clone(),
                    ids.clone(),
                    BLOCK_BYTES,
                    u64::MAX,
                )
            })
            .collect();
        for step in load_plan(sizes.rows) {
            match step {
                LoadStep::Put(idx) => regions[region_of(idx)]
                    .put(&fam, row_key(spec, idx), q.clone(), value.clone())
                    .map_err(|e| e.to_string())?,
                LoadStep::Flush => regions.iter_mut().for_each(|r| {
                    r.flush_all();
                }),
            }
        }
        let mut stores: Vec<CfStore> = caches_for(&servers)
            .iter()
            .map(|c| CfStore::new(c.clone(), ids.clone(), BLOCK_BYTES))
            .collect();
        for step in load_plan(sizes.rows) {
            match step {
                LoadStep::Put(idx) => {
                    stores[region_of(idx)].put(row_key(spec, idx), q.clone(), value.clone());
                }
                LoadStep::Flush => stores.iter_mut().for_each(|s| {
                    s.flush();
                }),
            }
        }
        let mut files: Vec<Vec<HFile>> = vec![Vec::new(); n];
        let mut blooms: Vec<Vec<BloomFilter>> = vec![Vec::new(); n];
        let mut pending: Vec<Vec<CellVersion>> = vec![Vec::new(); n];
        let mut ts = 0u64;
        for step in load_plan(sizes.rows) {
            match step {
                LoadStep::Put(idx) => {
                    ts += 1;
                    pending[region_of(idx)].push(CellVersion {
                        key: InternalKey::new(row_key(spec, idx), q.clone(), Timestamp(ts)),
                        value: Some(value.clone()),
                    });
                }
                LoadStep::Flush => {
                    for r in 0..n {
                        let cells = std::mem::take(&mut pending[r]);
                        let mut bloom = BloomFilter::with_capacity(cells.len());
                        for c in &cells {
                            bloom.insert(c.key.coord.row.as_bytes());
                        }
                        blooms[r].push(bloom);
                        files[r].push(HFile::build(ids.next(), cells, BLOCK_BYTES));
                    }
                }
            }
        }
        let overlays = pending
            .into_iter()
            .map(|cells| {
                let mut mem = MemStore::new();
                for c in cells {
                    mem.insert(c.key, c.value);
                }
                mem
            })
            .collect();
        Ok(Mirrors {
            fam,
            q,
            bounds,
            regions,
            stores,
            files,
            file_caches: caches_for(&servers),
            touch_caches: caches_for(&servers),
            blooms,
            overlays,
        })
    }

    fn region_of(&self, idx: u64) -> usize {
        self.bounds.partition_point(|b| *b <= idx) - 1
    }

    /// The synthetic block a record lands in at the bare-cache level:
    /// same file, same position, same size as the real block.
    fn block_of(&self, idx: u64, region: usize) -> (BlockId, u64) {
        let cells_per_block = (BLOCK_BYTES / gen::cell_bytes()).max(1);
        let pos = (idx - self.bounds[region]) / PASSES;
        let file = FileId(1_000_000 + region as u64 * PASSES + idx % PASSES);
        let id = BlockId { file, index: (pos / cells_per_block) as u32 };
        (id, cells_per_block * gen::cell_bytes())
    }

    /// One get at the file level: the file that holds the row, through
    /// the region's cache. `None` when the file has no such row.
    fn file_get(&self, idx: u64, row: &RowKey) -> Option<Access> {
        let r = self.region_of(idx);
        let file = &self.files[r][(idx % PASSES) as usize];
        match file.get(row, &self.q, &self.file_caches[r]) {
            Ok((Some(Some(_)), false, access)) => access,
            _ => None,
        }
    }

    /// Replays `ops` (all point gets) at every level, `warm` first so all
    /// caches have seen the same history. Returns what it measured and the
    /// number of failed output checks.
    fn replay(
        &self,
        driver: &mut ClusterDriver,
        warm: &[Op],
        ops: &[Op],
        sizes: &Sizes,
        rec: &mut SpanRecorder,
    ) -> (ReadCosts, u64) {
        let (chunk, hot_rounds) = (sizes.replay_chunk, sizes.hot_rounds);
        let k_cluster = rec.register("replay.cluster.functional.get", "");
        let k_region = rec.register("replay.hstore.region.get", "replay.cluster.functional.get");
        let k_store = rec.register("replay.hstore.store.get", "replay.hstore.region.get");
        let k_store_hot = rec.register("replay.hot.hstore.store.get", "replay.hstore.region.get");
        let k_mem = rec.register("replay.hstore.memstore.get", "replay.hstore.store.get");
        let k_bloom = rec.register("replay.hstore.bloom.probe", "replay.hstore.store.get");
        let k_file = rec.register("replay.hstore.hfile.get", "replay.hstore.store.get");
        let k_touch = rec.register("replay.hstore.block_cache.touch", "replay.hstore.hfile.get");
        let mut failed = 0u64;
        let mut lat = LatBufs::default();
        let mut file_times = HitMiss::default();
        let mut touch_times = HitMiss::default();

        // Warm every level with the same stream. The file and bare-cache
        // levels are timed here too: on a cache that fits, this cold pass
        // is where their misses are.
        for op in warm {
            let Op::Get { idx, row } = op else { continue };
            failed += u64::from(!driver.exec(op));
            let r = self.region_of(*idx);
            failed += u64::from(!self.region_get(r, row));
            failed += u64::from(!self.store_get(r, row));
        }
        self.time_file_level(warm, 0, k_file, rec, &mut file_times);
        self.time_touch_level(warm, 0, k_touch, rec, &mut touch_times);

        // The store level on the realistic stream: its cost is what the
        // unit costs below have to add up to.
        let stats_before: Vec<_> = self.stores.iter().map(CfStore::read_stats).collect();
        let mut store_get = Vec::new();
        for (c, chunk_ops) in ops.chunks(chunk.max(1)).enumerate() {
            let op_base = (warm.len() + c * chunk) as u64;
            let (store_ns, f) =
                run_batch(chunk_ops, &mut lat, tracing(rec, k_store, op_base), |op| {
                    let Op::Get { idx, row } = op else { return true };
                    self.store_get(self.region_of(*idx), row)
                });
            failed += f;
            store_get.push(store_ns as f64 / chunk_ops.len() as f64);
        }
        let (mut probed, mut mem_hits, mut skips) = (0u64, 0u64, 0u64);
        for (store, before) in self.stores.iter().zip(&stats_before) {
            let now = store.read_stats();
            probed += now.files_probed - before.files_probed;
            mem_hits += now.memstore_hits - before.memstore_hits;
            skips += now.bloom_skips - before.bloom_skips;
        }

        // The wrappers above the store cost ~100 ns of a ~3 µs get, and
        // each level reads its own copy of the data: on the realistic
        // stream the copies' memory placement decides the difference, not
        // the code. So routing and region dispatch are measured on a
        // stream cycling over a few hundred keys, where every level's
        // data sits in the CPU cache — interleaved round by round, the
        // differences taken per round and the median reported.
        let hot: Vec<Op> = ops.iter().take(HOT_KEYS).cycle().take(chunk.max(1)).cloned().collect();
        let (mut route, mut region_self, mut hot_store) = (Vec::new(), Vec::new(), Vec::new());
        for round in 0..=hot_rounds {
            let op_base = (warm.len() + ops.len() + round * hot.len()) as u64;
            let n = hot.len() as f64;
            let (cluster_ns, f) =
                run_batch(&hot, &mut lat, tracing(rec, k_cluster, op_base), |op| driver.exec(op));
            failed += f;
            let (region_ns, f) = run_batch(&hot, &mut lat, tracing(rec, k_region, op_base), |op| {
                let Op::Get { idx, row } = op else { return true };
                self.region_get(self.region_of(*idx), row)
            });
            failed += f;
            let (store_ns, f) =
                run_batch(&hot, &mut lat, tracing(rec, k_store_hot, op_base), |op| {
                    let Op::Get { idx, row } = op else { return true };
                    self.store_get(self.region_of(*idx), row)
                });
            failed += f;
            // Round 0 pulls the hot keys into the caches.
            if round > 0 {
                route.push((cluster_ns as f64 - region_ns as f64) / n);
                region_self.push((region_ns as f64 - store_ns as f64) / n);
                hot_store.push(store_ns as f64 / n);
            }
        }
        let gets = ops.len() as f64;

        // The unit costs under the store, on the same keys.
        let op_base = warm.len() as u64;
        let (mem_ns, _) = run_batch(ops, &mut lat, tracing(rec, k_mem, op_base), |op| {
            let Op::Get { idx, row } = op else { return true };
            black_box(self.overlays[self.region_of(*idx)].get_newest(row, &self.q));
            true
        });
        let (bloom_ns, _) = run_batch(ops, &mut lat, tracing(rec, k_bloom, op_base), |op| {
            let Op::Get { idx, row } = op else { return true };
            for bloom in &self.blooms[self.region_of(*idx)] {
                black_box(bloom.may_contain(row.as_bytes()));
            }
            true
        });
        self.time_file_level(ops, op_base, k_file, rec, &mut file_times);
        self.time_touch_level(ops, op_base, k_touch, rec, &mut touch_times);
        let t = Instant::now();
        let mut verified = 0u64;
        for file in self.files.iter().flatten() {
            failed += u64::from(file.verify_checksums().is_err());
            verified += file.total_bytes();
        }
        let verify_ns = t.elapsed().as_nanos() as f64;

        let costs = ReadCosts {
            route: median(&mut route),
            region_self: median(&mut region_self),
            store_get: median(&mut store_get),
            hot_store_get: median(&mut hot_store),
            files_probed_per_get: probed as f64 / gets,
            memstore_hit_ratio: mem_hits as f64 / gets,
            bloom_skips_per_get: skips as f64 / gets,
            memstore_get: mem_ns as f64 / gets,
            bloom_probe: ratio(bloom_ns as f64, gets * PASSES as f64),
            file_hit: ratio(file_times.hit_ns as f64, file_times.hits as f64),
            file_miss: ratio(file_times.miss_ns as f64, file_times.misses as f64),
            file_hit_ratio: ratio(
                file_times.hits as f64,
                (file_times.hits + file_times.misses) as f64,
            ),
            touch_hit: ratio(touch_times.hit_ns as f64, touch_times.hits as f64),
            touch_miss: ratio(touch_times.miss_ns as f64, touch_times.misses as f64),
            verify_per_kib: ratio(verify_ns, verified as f64 / 1024.0),
        };
        (costs, failed)
    }

    fn region_get(&self, r: usize, row: &RowKey) -> bool {
        matches!(self.regions[r].get_with_stats(&self.fam, row, &self.q), Ok((Some(_), _)))
    }

    fn store_get(&self, r: usize, row: &RowKey) -> bool {
        matches!(self.stores[r].try_get(row, &self.q), Ok((Some(_), _)))
    }

    fn time_file_level(
        &self,
        ops: &[Op],
        op_base: u64,
        kind: SpanKind,
        rec: &mut SpanRecorder,
        times: &mut HitMiss,
    ) {
        let mut prev = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            let Op::Get { idx, row } = op else { continue };
            let access = self.file_get(*idx, row);
            let now = Instant::now();
            let ns = now.duration_since(prev).as_nanos() as u64;
            rec.record(kind, op_base + i as u64, prev, ns);
            if let Some(access) = access {
                times.add(access, ns);
            }
            prev = now;
        }
    }

    fn time_touch_level(
        &self,
        ops: &[Op],
        op_base: u64,
        kind: SpanKind,
        rec: &mut SpanRecorder,
        times: &mut HitMiss,
    ) {
        let mut prev = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            let Op::Get { idx, .. } = op else { continue };
            let r = self.region_of(*idx);
            let (block, size) = self.block_of(*idx, r);
            let access = self.touch_caches[r].touch(block, size);
            let now = Instant::now();
            let ns = now.duration_since(prev).as_nanos() as u64;
            rec.record(kind, op_base + i as u64, prev, ns);
            times.add(access, ns);
            prev = now;
        }
    }
}

impl ReadCosts {
    fn report(&self, out: &mut Outcome) {
        let c = self;
        let m = &mut out.metrics;
        m.set("cluster.functional.route_ns", c.route);
        m.set("hstore.region.self_ns", c.region_self);
        m.set("hstore.store.get_ns", c.store_get);
        m.set("hstore.store.files_probed_per_get", c.files_probed_per_get);
        m.set("hstore.store.memstore_hit_ratio", c.memstore_hit_ratio);
        m.set("hstore.memstore.get_ns", c.memstore_get);
        m.set("hstore.bloom.probe_ns", c.bloom_probe);
        m.set(
            "hstore.bloom.skip_ratio",
            ratio(c.bloom_skips_per_get, c.bloom_skips_per_get + c.files_probed_per_get),
        );
        m.set("hstore.block_cache.touch_hit_ns", c.touch_hit);
        m.set("hstore.block_cache.touch_miss_ns", c.touch_miss);
        m.set("hstore.hfile.get_hit_ns", c.file_hit);
        m.set("hstore.hfile.get_miss_ns", c.file_miss);
        m.set("hstore.hfile.verify_ns_per_kib", c.verify_per_kib);
        // Σ(count × unit cost): one memstore probe, a bloom probe per file
        // turned away, and a file get (its own bloom probe included) per
        // file probed, at the replay's hit ratio.
        let file_get = c.file_hit_ratio * c.file_hit + (1.0 - c.file_hit_ratio) * c.file_miss;
        let explained = c.memstore_get
            + c.bloom_skips_per_get * c.bloom_probe
            + c.files_probed_per_get * file_get;
        m.set("hstore.store.attribution_gap_frac", 1.0 - ratio(explained, c.store_get));
        out.note(format!(
            "replay: store get {:.0} ns = memstore {:.0} + {:.2} bloom x {:.0} + {:.2} files x {:.0} \
             (file hit ratio {:.3}) + gap; on {HOT_KEYS} hot keys: store get {:.0} ns, \
             region +{:.0} ns, cluster +{:.0} ns",
            c.store_get,
            c.memstore_get,
            c.bloom_skips_per_get,
            c.bloom_probe,
            c.files_probed_per_get,
            file_get,
            c.file_hit_ratio,
            c.hot_store_get,
            c.region_self,
            c.route,
        ));
    }
}

/// Tracing hooks recording every class under one span name.
fn tracing(rec: &mut SpanRecorder, kind: SpanKind, op_base: u64) -> Option<Tracing<'_>> {
    Some(Tracing { recorder: rec, kinds: [kind; 3], op_base })
}
