//! The RegionServer performance model.
//!
//! We do not have the paper's physical testbed (Intel i3, 4 GB RAM, 7200 RPM
//! SATA, GbE), so server throughput is produced by a mechanistic cost model
//! whose inputs are the *same knobs the paper varies* (Table 1) and whose
//! structure reproduces the qualitative behaviours the paper exploits:
//!
//! * **Block cache**: steady-state hit ratio from a greedy
//!   hottest-bytes-first fill of the cache by access density — the standard
//!   LRU working-set approximation. More cache (read profile) or fewer
//!   competing partitions (grouping) → higher hit ratio.
//! * **Block size**: a random-read miss costs one seek plus one block
//!   transfer (small blocks win); a scan costs one seek per block spanned
//!   plus the sequential transfer (large blocks win). This is why Table 1
//!   gives 32 KiB to read profiles and 128 KiB to scan profiles.
//! * **Memstore**: write disk cost is the record size times a write
//!   amplification that grows as the effective flush size shrinks; a small
//!   memstore fraction shared by many write-hot partitions forces early
//!   flushes and more compaction churn. This is why write profiles get 55 %
//!   memstore.
//! * **Locality**: a miss on a non-local block pays network latency and
//!   transfer on top of the disk read; major compaction restores locality
//!   (§2.1, §5).
//! * **Shared resources**: CPU/handlers and the disk are queueing centres;
//!   flush/compaction IO contends with reads — co-locating write-hot and
//!   read-hot partitions hurts both, which is the mechanism behind the
//!   heterogeneous win of §3.
//!
//! Absolute constants are calibrated so cluster-level results land near the
//! paper's reported magnitudes; `EXPERIMENTS.md` records paper-vs-measured.

use crate::types::PartitionId;
use hstore::StoreConfig;
use serde::{Deserialize, Serialize};

/// Tunable cost constants (one instance per experiment; defaults calibrated
/// against the paper's §3 testbed scale).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostParams {
    /// CPU seconds of service capacity per wall second (cores).
    pub cpu_cores: f64,
    /// Handler threads cap concurrent requests; modelled as a throughput
    /// bound of `handlers / avg_service_time`.
    pub use_handler_bound: bool,
    /// CPU per point read, ms.
    pub cpu_read_ms: f64,
    /// CPU per write, ms.
    pub cpu_write_ms: f64,
    /// CPU per scanned row, ms.
    pub cpu_scan_row_ms: f64,
    /// Random-IO seek+rotate, ms.
    pub disk_seek_ms: f64,
    /// Sequential disk bandwidth, MB/s.
    pub disk_bw_mb_s: f64,
    /// Effective concurrent disk operations (NCQ etc.).
    pub disk_parallelism: f64,
    /// Network bandwidth for remote block reads, MB/s.
    pub net_bw_mb_s: f64,
    /// Network round-trip for a remote block read, ms.
    pub net_lat_ms: f64,
    /// Sequential-scan seek discount (read-ahead) in `[0, 1]`.
    pub scan_seek_discount: f64,
    /// Write-amplification base (flush itself).
    pub write_amp_base: f64,
    /// Extra write amplification per doubling of data/flush-size ratio
    /// (compaction churn).
    pub write_amp_factor: f64,
    /// Queue-inflation cap: response ≤ service × this.
    pub queue_inflation_cap: f64,
    /// Utilization at which queueing saturates.
    pub rho_cap: f64,
    /// Cache warm-up time constant, seconds (cold cache → steady state).
    pub warmup_s: f64,
    /// Major compaction throughput, MB/s (the paper observes ≈ 1 min/GB).
    pub compact_mb_s: f64,
    /// Partition unavailability while moving, seconds.
    pub move_outage_s: f64,
    /// Server restart duration, seconds.
    pub restart_s: f64,
    /// Response-time penalty per request to an unavailable partition, ms
    /// (clients block and retry).
    pub unavailable_penalty_ms: f64,
    /// Write-churn scale, MB/s: co-located write traffic at this rate
    /// halves the cache's steady-state quality (flush/compaction block
    /// invalidations plus heap pressure evicting the LRU — the reason the
    /// paper isolates write partitions on write-profile nodes).
    pub cache_churn_write_mb_s: f64,
    /// Write-stall latency scale, ms: when memstore pressure forces
    /// flushes far below the configured flush size, store files pile up
    /// and HBase blocks writers ("too many store files"). Each write pays
    /// this much extra latency per unit of flush-size shortfall. A large
    /// memstore fraction (the write profile) is the remedy.
    pub write_stall_ms: f64,
    /// Data bytes per write-active region equivalent, used to estimate how
    /// many memstores share the global budget.
    pub region_equiv_bytes: f64,
    /// CPU per cached block touched (decode + copy), ms — the service cost
    /// of a block-cache hit in [`crate::latency::op_service_ms`].
    pub cache_hit_block_ms: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            cpu_cores: 2.0,
            use_handler_bound: true,
            cpu_read_ms: 0.13,
            cpu_write_ms: 0.25,
            cpu_scan_row_ms: 0.02,
            disk_seek_ms: 3.0,
            disk_bw_mb_s: 100.0,
            disk_parallelism: 1.4,
            net_bw_mb_s: 110.0,
            net_lat_ms: 2.0,
            scan_seek_discount: 0.6,
            write_amp_base: 2.0,
            write_amp_factor: 2.0,
            queue_inflation_cap: 40.0,
            rho_cap: 0.98,
            warmup_s: 60.0,
            compact_mb_s: 17.0,
            move_outage_s: 3.0,
            restart_s: 25.0,
            unavailable_penalty_ms: 1_200.0,
            cache_churn_write_mb_s: 4.0,
            write_stall_ms: 0.7,
            region_equiv_bytes: 256e6,
            cache_hit_block_ms: 0.02,
        }
    }
}

/// Per-partition demand and data shape, the model's input.
#[derive(Debug, Clone)]
pub struct PartitionDemand {
    /// Partition identity.
    pub partition: PartitionId,
    /// Point reads per second.
    pub read_rps: f64,
    /// Writes per second.
    pub write_rps: f64,
    /// Scans per second.
    pub scan_rps: f64,
    /// Average rows returned per scan.
    pub scan_rows: f64,
    /// Average record size, bytes.
    pub record_bytes: f64,
    /// Logical data size, bytes.
    pub data_bytes: f64,
    /// Fraction of bytes forming the hot set.
    pub hot_set_fraction: f64,
    /// Fraction of accesses hitting the hot set.
    pub hot_ops_fraction: f64,
    /// Fraction of the partition's bytes local to its server.
    pub locality: f64,
    /// True while the partition is unavailable (moving).
    pub unavailable: bool,
    /// Per-write CPU efficiency factor: 1.0 for single-put RPCs (YCSB),
    /// lower when clients batch mutations (PyTPCC buffers a transaction's
    /// writes into one RPC).
    pub write_cpu_factor: f64,
}

/// Modelled per-op service (no queueing) and the cache hit ratio, per
/// partition.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartitionTimes {
    /// Point-read (cpu_ms, disk_ms).
    pub read: (f64, f64),
    /// Write (cpu_ms, disk_ms).
    pub write: (f64, f64),
    /// Scan (cpu_ms, disk_ms).
    pub scan: (f64, f64),
    /// Pure-latency write stall (flush storms), ms — blocks the writer
    /// without consuming modelled CPU or disk capacity.
    pub write_stall_ms: f64,
    /// Steady-state cache hit ratio for this partition's point reads.
    pub hit_ratio: f64,
    /// Steady-state cache hit ratio for this partition's scans.
    pub scan_hit_ratio: f64,
}

/// Evaluation of one server under a given demand.
#[derive(Debug, Clone, Default)]
pub struct ServerEval {
    /// Per-partition times, in input order.
    pub per_partition: Vec<PartitionTimes>,
    /// CPU utilization before capping.
    pub rho_cpu: f64,
    /// Disk utilization before capping.
    pub rho_disk: f64,
    /// Memory utilization estimate in `[0, 1]`.
    pub mem_util: f64,
    /// Total requests per second in the demand.
    pub total_rps: f64,
}

/// Working memory of [`evaluate_server`], owned by the caller so the 49
/// evaluations a server gets per tick reuse one set of allocations. Holds
/// nothing between calls: every buffer is cleared before it is filled.
#[derive(Debug, Default)]
pub struct EvalScratch {
    // Cache-fill segments: (partition index, bytes, rank, read rate).
    segments: Vec<(usize, f64, f64, f64)>,
    // Read rate the cache covers, per partition.
    covered: Vec<f64>,
    // `(read_hit, scan_hit)` per partition, in input order.
    hits: Vec<(f64, f64)>,
}

/// Per-partition cache hit ratios `(read_hit, scan_hit)`, written to
/// `work.hits` in input order.
///
/// Point-read working sets fill the cache first, greedily by access
/// density (the LRU steady state). Scan data is kept only in what is left:
/// HBase's LruBlockCache gives streaming (single-access) blocks the lowest
/// priority, and a scan working set that does not *fit* in the leftover
/// space churns through it faster than blocks are re-touched — so scan
/// hits fall off sharply with coverage. On a dedicated scan node with no
/// competing point reads, the whole cache is leftover and scans hit.
fn cache_hit_ratios(cache_bytes: f64, parts: &[PartitionDemand], work: &mut EvalScratch) {
    // Phase 1: point-read segments, densest first. Writes count toward a
    // segment's residency rank too: a freshly written row is readable from
    // the memstore and its block re-enters the cache on flush, so
    // read-after-write working sets (e.g. TPC-C stock) stay resident.
    let EvalScratch { segments, covered, hits } = work;
    segments.clear();
    for (i, p) in parts.iter().enumerate() {
        if p.read_rps <= 0.0 || p.data_bytes <= 0.0 {
            continue;
        }
        let hot_bytes = (p.data_bytes * p.hot_set_fraction).max(1.0);
        let cold_bytes = (p.data_bytes - hot_bytes).max(0.0);
        let rank_hot = (p.read_rps + p.write_rps) * p.hot_ops_fraction;
        let rank_cold = (p.read_rps + p.write_rps) * (1.0 - p.hot_ops_fraction);
        segments.push((i, hot_bytes, rank_hot, p.read_rps * p.hot_ops_fraction));
        if cold_bytes > 0.0 {
            segments.push((i, cold_bytes, rank_cold, p.read_rps * (1.0 - p.hot_ops_fraction)));
        }
    }
    segments.sort_by(|a, b| {
        let da = a.2 / a.1;
        let db = b.2 / b.1;
        db.partial_cmp(&da).expect("non-finite density")
    });
    covered.clear();
    covered.resize(parts.len(), 0.0);
    let mut remaining = cache_bytes.max(0.0);
    for &(idx, bytes, _rank, read_rate) in segments.iter() {
        if remaining <= 0.0 {
            break;
        }
        let frac = (remaining / bytes).min(1.0);
        covered[idx] += read_rate * frac;
        remaining -= bytes * frac;
    }

    // Phase 2: scans share the leftover. A scan's reusable working set is
    // its hot bytes (scan start keys follow the partition's skew).
    let scan_ws: f64 = parts
        .iter()
        .filter(|p| p.scan_rps > 0.0)
        .map(|p| (p.data_bytes * p.hot_set_fraction.max(0.05)).max(1.0))
        .sum();
    let coverage = if scan_ws > 0.0 { (remaining / scan_ws).min(1.0) } else { 1.0 };
    // Churn makes partial coverage much worse than proportional: blocks
    // cycle out before they are re-touched.
    let scan_hit = coverage * coverage;

    hits.clear();
    hits.extend(parts.iter().zip(covered.iter()).map(|(p, covered)| {
        let read_hit = if p.read_rps <= 0.0 { 1.0 } else { (covered / p.read_rps).min(1.0) };
        let s = if p.scan_rps > 0.0 { scan_hit } else { 1.0 };
        (read_hit, s)
    }));
}

/// Write amplification given partition data size and the effective flush
/// size the partition enjoys on this server.
pub fn write_amplification(params: &CostParams, data_bytes: f64, effective_flush: f64) -> f64 {
    let ratio = (data_bytes / effective_flush.max(1.0)).max(2.0);
    params.write_amp_base + params.write_amp_factor * ratio.log2()
}

/// Queue-inflation factor for utilization `rho`: `1/(1-rho)` capped.
pub fn queue_inflation(params: &CostParams, rho: f64) -> f64 {
    let rho = rho.clamp(0.0, params.rho_cap);
    (1.0 / (1.0 - rho)).min(params.queue_inflation_cap)
}

/// Evaluates one online server: per-partition service times, utilizations
/// and memory estimate.
///
/// `warmth ∈ [0, 1]` scales the cache capacity that is actually populated
/// (cold after restarts / invalidated by compactions); `background_mb_s` is
/// compaction / re-replication IO sharing the disk. The result overwrites
/// `eval` (its `per_partition` keeps its allocation); `work` is scratch.
pub fn evaluate_server(
    params: &CostParams,
    config: &StoreConfig,
    warmth: f64,
    background_mb_s: f64,
    parts: &[PartitionDemand],
    work: &mut EvalScratch,
    eval: &mut ServerEval,
) {
    // Only ~85 % of the configured cache holds data blocks (eviction
    // watermark, index/bloom blocks).
    const USABLE_CACHE_FRACTION: f64 = 0.85;
    let cache_bytes =
        config.block_cache_bytes() as f64 * USABLE_CACHE_FRACTION * warmth.clamp(0.0, 1.0);
    // Write churn: flushes and compactions continuously invalidate cached
    // blocks and put the heap under pressure, degrading the cache from its
    // ideal (density-ordered) residency toward an indiscriminate one.
    let churn_write_rate: f64 = parts.iter().map(|p| p.write_rps * p.record_bytes).sum();
    let calm = 1.0 / (1.0 + churn_write_rate / (params.cache_churn_write_mb_s * 1e6));
    // Residency under churn spreads over the data that read traffic
    // actually touches (write-only partitions pass through the cache).
    let total_data: f64 =
        parts.iter().filter(|p| p.read_rps > 0.0 || p.scan_rps > 0.0).map(|p| p.data_bytes).sum();
    let uniform_coverage = if total_data > 0.0 { (cache_bytes / total_data).min(1.0) } else { 1.0 };
    cache_hit_ratios(cache_bytes, parts, work);
    for (r, sc) in work.hits.iter_mut() {
        *r = calm * *r + (1.0 - calm) * uniform_coverage;
        *sc *= calm + (1.0 - calm) * uniform_coverage;
    }

    let block_mb = config.block_size as f64 / 1e6;
    let block_io_ms = params.disk_seek_ms + block_mb / params.disk_bw_mb_s * 1_000.0;
    let remote_ms = params.net_lat_ms + block_mb / params.net_bw_mb_s * 1_000.0;

    // Effective flush size: under sustained write pressure the global
    // memstore watermark forces flushes long before the per-region
    // threshold; the budget is shared by every write-active region (we
    // estimate the region count from data volume).
    let write_regions: f64 = parts
        .iter()
        .filter(|p| p.write_rps > 1.0)
        .map(|p| (p.data_bytes / params.region_equiv_bytes).ceil().max(1.0))
        .sum::<f64>()
        .max(1.0);
    let effective_flush = (config.memstore_bytes() as f64 * 0.5 / write_regions)
        .min(config.memstore_flush_bytes as f64);
    // Flush-storm stall: latency per write grows with the shortfall
    // between the configured flush size and what pressure allows.
    let stall_ms = params.write_stall_ms
        * (config.memstore_flush_bytes as f64 / effective_flush - 1.0).max(0.0);

    let per_partition = &mut eval.per_partition;
    per_partition.clear();
    let mut cpu_ms_per_s = 0.0;
    let mut disk_ms_per_s = 0.0;
    let mut total_rps = 0.0;
    let mut write_byte_rate = 0.0;

    for (p, &(hit, scan_hit)) in parts.iter().zip(&work.hits) {
        let miss = 1.0 - hit;
        let scan_miss = 1.0 - scan_hit;
        let remote_frac = 1.0 - p.locality.clamp(0.0, 1.0);

        // Point read: one block IO on miss, plus network when non-local.
        let read_disk = miss * (block_io_ms + remote_frac * remote_ms);
        let read = (params.cpu_read_ms, read_disk);

        // Write: memstore insert (CPU, amortized by client batching) +
        // amortized flush/compaction IO.
        let wa = write_amplification(params, p.data_bytes, effective_flush);
        let write_disk = wa * (p.record_bytes / 1e6) / params.disk_bw_mb_s * 1_000.0;
        let write = (params.cpu_write_ms * p.write_cpu_factor.clamp(0.05, 1.0), write_disk);

        // Scan: per-row CPU; on miss, one discounted seek per block spanned
        // plus the sequential transfer (remote adds network transfer).
        let scan_bytes = p.scan_rows.max(1.0) * p.record_bytes;
        let blocks = (scan_bytes / config.block_size as f64).max(1.0);
        let scan_disk = scan_miss
            * (blocks * params.disk_seek_ms * params.scan_seek_discount
                + scan_bytes / 1e6 / params.disk_bw_mb_s * 1_000.0
                + remote_frac
                    * (params.net_lat_ms + scan_bytes / 1e6 / params.net_bw_mb_s * 1_000.0));
        let scan = (p.scan_rows.max(1.0) * params.cpu_scan_row_ms, scan_disk);

        cpu_ms_per_s += p.read_rps * read.0 + p.write_rps * write.0 + p.scan_rps * scan.0;
        disk_ms_per_s += p.read_rps * read.1 + p.write_rps * write.1 + p.scan_rps * scan.1;
        total_rps += p.read_rps + p.write_rps + p.scan_rps;
        write_byte_rate += p.write_rps * p.record_bytes;

        per_partition.push(PartitionTimes {
            read,
            write,
            scan,
            write_stall_ms: stall_ms,
            hit_ratio: hit,
            scan_hit_ratio: scan_hit,
        });
    }

    let rho_cpu = cpu_ms_per_s / 1_000.0 / params.cpu_cores;
    let rho_disk = disk_ms_per_s / 1_000.0 / params.disk_parallelism
        + background_mb_s / params.disk_bw_mb_s / params.disk_parallelism;

    // Memory: populated cache plus memstore fill pressure (30 s of writes,
    // capped at the memstore budget), over the heap.
    let memstore_fill = (write_byte_rate * 30.0).min(config.memstore_bytes() as f64);
    let mem_util = ((cache_bytes + memstore_fill) / config.heap_bytes as f64).min(1.0);

    eval.rho_cpu = rho_cpu;
    eval.rho_disk = rho_disk;
    eval.mem_util = mem_util;
    eval.total_rps = total_rps;
}

/// The allocating model as it stood before [`evaluate_server`] wrote into
/// caller-owned buffers: a fresh `Vec` for segments, coverage, hit ratios
/// and per-partition times on every call. Test-only reference that the
/// buffer-reusing code (here) and the dense solver (`sim.rs`) are held to
/// bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    pub(crate) fn cache_hit_ratios(cache_bytes: f64, parts: &[PartitionDemand]) -> Vec<(f64, f64)> {
        // Phase 1: point-read segments, densest first. Writes count toward a
        // segment's residency rank too: a freshly written row is readable from
        // the memstore and its block re-enters the cache on flush, so
        // read-after-write working sets (e.g. TPC-C stock) stay resident.
        let mut segments: Vec<(usize, f64, f64, f64)> = Vec::with_capacity(parts.len() * 2);
        for (i, p) in parts.iter().enumerate() {
            if p.read_rps <= 0.0 || p.data_bytes <= 0.0 {
                continue;
            }
            let hot_bytes = (p.data_bytes * p.hot_set_fraction).max(1.0);
            let cold_bytes = (p.data_bytes - hot_bytes).max(0.0);
            let rank_hot = (p.read_rps + p.write_rps) * p.hot_ops_fraction;
            let rank_cold = (p.read_rps + p.write_rps) * (1.0 - p.hot_ops_fraction);
            segments.push((i, hot_bytes, rank_hot, p.read_rps * p.hot_ops_fraction));
            if cold_bytes > 0.0 {
                segments.push((i, cold_bytes, rank_cold, p.read_rps * (1.0 - p.hot_ops_fraction)));
            }
        }
        segments.sort_by(|a, b| {
            let da = a.2 / a.1;
            let db = b.2 / b.1;
            db.partial_cmp(&da).expect("non-finite density")
        });
        let mut covered_rate = vec![0.0f64; parts.len()];
        let mut remaining = cache_bytes.max(0.0);
        for (idx, bytes, _rank, read_rate) in segments {
            if remaining <= 0.0 {
                break;
            }
            let frac = (remaining / bytes).min(1.0);
            covered_rate[idx] += read_rate * frac;
            remaining -= bytes * frac;
        }

        // Phase 2: scans share the leftover. A scan's reusable working set is
        // its hot bytes (scan start keys follow the partition's skew).
        let scan_ws: f64 = parts
            .iter()
            .filter(|p| p.scan_rps > 0.0)
            .map(|p| (p.data_bytes * p.hot_set_fraction.max(0.05)).max(1.0))
            .sum();
        let coverage = if scan_ws > 0.0 { (remaining / scan_ws).min(1.0) } else { 1.0 };
        // Churn makes partial coverage much worse than proportional: blocks
        // cycle out before they are re-touched.
        let scan_hit = coverage * coverage;

        parts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let read_hit =
                    if p.read_rps <= 0.0 { 1.0 } else { (covered_rate[i] / p.read_rps).min(1.0) };
                let s = if p.scan_rps > 0.0 { scan_hit } else { 1.0 };
                (read_hit, s)
            })
            .collect()
    }

    pub(crate) fn evaluate_server(
        params: &CostParams,
        config: &StoreConfig,
        warmth: f64,
        background_mb_s: f64,
        parts: &[PartitionDemand],
    ) -> ServerEval {
        // Only ~85 % of the configured cache holds data blocks (eviction
        // watermark, index/bloom blocks).
        const USABLE_CACHE_FRACTION: f64 = 0.85;
        let cache_bytes =
            config.block_cache_bytes() as f64 * USABLE_CACHE_FRACTION * warmth.clamp(0.0, 1.0);
        // Write churn: flushes and compactions continuously invalidate cached
        // blocks and put the heap under pressure, degrading the cache from its
        // ideal (density-ordered) residency toward an indiscriminate one.
        let churn_write_rate: f64 = parts.iter().map(|p| p.write_rps * p.record_bytes).sum();
        let calm = 1.0 / (1.0 + churn_write_rate / (params.cache_churn_write_mb_s * 1e6));
        // Residency under churn spreads over the data that read traffic
        // actually touches (write-only partitions pass through the cache).
        let total_data: f64 = parts
            .iter()
            .filter(|p| p.read_rps > 0.0 || p.scan_rps > 0.0)
            .map(|p| p.data_bytes)
            .sum();
        let uniform_coverage =
            if total_data > 0.0 { (cache_bytes / total_data).min(1.0) } else { 1.0 };
        let hits: Vec<(f64, f64)> = cache_hit_ratios(cache_bytes, parts)
            .into_iter()
            .map(|(r, sc)| {
                (
                    calm * r + (1.0 - calm) * uniform_coverage,
                    sc * (calm + (1.0 - calm) * uniform_coverage),
                )
            })
            .collect();

        let block_mb = config.block_size as f64 / 1e6;
        let block_io_ms = params.disk_seek_ms + block_mb / params.disk_bw_mb_s * 1_000.0;
        let remote_ms = params.net_lat_ms + block_mb / params.net_bw_mb_s * 1_000.0;

        // Effective flush size: under sustained write pressure the global
        // memstore watermark forces flushes long before the per-region
        // threshold; the budget is shared by every write-active region (we
        // estimate the region count from data volume).
        let write_regions: f64 = parts
            .iter()
            .filter(|p| p.write_rps > 1.0)
            .map(|p| (p.data_bytes / params.region_equiv_bytes).ceil().max(1.0))
            .sum::<f64>()
            .max(1.0);
        let effective_flush = (config.memstore_bytes() as f64 * 0.5 / write_regions)
            .min(config.memstore_flush_bytes as f64);
        // Flush-storm stall: latency per write grows with the shortfall
        // between the configured flush size and what pressure allows.
        let stall_ms = params.write_stall_ms
            * (config.memstore_flush_bytes as f64 / effective_flush - 1.0).max(0.0);

        let mut per_partition = Vec::with_capacity(parts.len());
        let mut cpu_ms_per_s = 0.0;
        let mut disk_ms_per_s = 0.0;
        let mut total_rps = 0.0;
        let mut write_byte_rate = 0.0;

        for (p, &(hit, scan_hit)) in parts.iter().zip(&hits) {
            let miss = 1.0 - hit;
            let scan_miss = 1.0 - scan_hit;
            let remote_frac = 1.0 - p.locality.clamp(0.0, 1.0);

            // Point read: one block IO on miss, plus network when non-local.
            let read_disk = miss * (block_io_ms + remote_frac * remote_ms);
            let read = (params.cpu_read_ms, read_disk);

            // Write: memstore insert (CPU, amortized by client batching) +
            // amortized flush/compaction IO.
            let wa = write_amplification(params, p.data_bytes, effective_flush);
            let write_disk = wa * (p.record_bytes / 1e6) / params.disk_bw_mb_s * 1_000.0;
            let write = (params.cpu_write_ms * p.write_cpu_factor.clamp(0.05, 1.0), write_disk);

            // Scan: per-row CPU; on miss, one discounted seek per block spanned
            // plus the sequential transfer (remote adds network transfer).
            let scan_bytes = p.scan_rows.max(1.0) * p.record_bytes;
            let blocks = (scan_bytes / config.block_size as f64).max(1.0);
            let scan_disk = scan_miss
                * (blocks * params.disk_seek_ms * params.scan_seek_discount
                    + scan_bytes / 1e6 / params.disk_bw_mb_s * 1_000.0
                    + remote_frac
                        * (params.net_lat_ms + scan_bytes / 1e6 / params.net_bw_mb_s * 1_000.0));
            let scan = (p.scan_rows.max(1.0) * params.cpu_scan_row_ms, scan_disk);

            cpu_ms_per_s += p.read_rps * read.0 + p.write_rps * write.0 + p.scan_rps * scan.0;
            disk_ms_per_s += p.read_rps * read.1 + p.write_rps * write.1 + p.scan_rps * scan.1;
            total_rps += p.read_rps + p.write_rps + p.scan_rps;
            write_byte_rate += p.write_rps * p.record_bytes;

            per_partition.push(PartitionTimes {
                read,
                write,
                scan,
                write_stall_ms: stall_ms,
                hit_ratio: hit,
                scan_hit_ratio: scan_hit,
            });
        }

        let rho_cpu = cpu_ms_per_s / 1_000.0 / params.cpu_cores;
        let rho_disk = disk_ms_per_s / 1_000.0 / params.disk_parallelism
            + background_mb_s / params.disk_bw_mb_s / params.disk_parallelism;

        // Memory: populated cache plus memstore fill pressure (30 s of writes,
        // capped at the memstore budget), over the heap.
        let memstore_fill = (write_byte_rate * 30.0).min(config.memstore_bytes() as f64);
        let mem_util = ((cache_bytes + memstore_fill) / config.heap_bytes as f64).min(1.0);

        ServerEval { per_partition, rho_cpu, rho_disk, mem_util, total_rps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(reads: f64, writes: f64, scans: f64) -> PartitionDemand {
        PartitionDemand {
            partition: PartitionId(1),
            read_rps: reads,
            write_rps: writes,
            scan_rps: scans,
            scan_rows: 50.0,
            record_bytes: 1_000.0,
            data_bytes: 1.5e9,
            hot_set_fraction: 0.4,
            hot_ops_fraction: 0.5,
            locality: 1.0,
            unavailable: false,
            write_cpu_factor: 1.0,
        }
    }

    fn cfg() -> StoreConfig {
        StoreConfig::default_homogeneous()
    }

    fn hit_ratios(cache_bytes: f64, parts: &[PartitionDemand]) -> Vec<(f64, f64)> {
        let mut work = EvalScratch::default();
        cache_hit_ratios(cache_bytes, parts, &mut work);
        work.hits
    }

    fn evaluate(
        params: &CostParams,
        config: &StoreConfig,
        warmth: f64,
        background_mb_s: f64,
        parts: &[PartitionDemand],
    ) -> ServerEval {
        let mut eval = ServerEval::default();
        evaluate_server(
            params,
            config,
            warmth,
            background_mb_s,
            parts,
            &mut EvalScratch::default(),
            &mut eval,
        );
        eval
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// One `EvalScratch` and one `ServerEval` carried dirty through a
        /// sequence of demand lists of different lengths give, call for
        /// call, the bits the allocating oracle gives from fresh `Vec`s.
        #[test]
        fn reused_buffers_match_the_allocating_oracle(
            calls in proptest::collection::vec(
                proptest::collection::vec(
                    (0.0f64..3_000.0, 0.0f64..2_000.0, 0.0f64..200.0, 0.05f64..3.0, 0.0f64..1.0),
                    0..9,
                ),
                1..6,
            ),
            warmth in 0.0f64..1.0,
        ) {
            let params = CostParams::default();
            let (mut work, mut eval) = (EvalScratch::default(), ServerEval::default());
            for call in calls {
                let parts: Vec<PartitionDemand> = call
                    .into_iter()
                    .enumerate()
                    .map(|(i, (reads, writes, scans, gb, locality))| {
                        let mut d = demand(reads, writes, scans);
                        // A third of the partitions idle in some op class.
                        if i % 3 == 0 {
                            d.read_rps = 0.0;
                        }
                        if i % 3 == 1 {
                            d.scan_rps = 0.0;
                        }
                        d.partition = PartitionId(i as u64);
                        d.data_bytes = gb * 1e9;
                        d.locality = locality;
                        d
                    })
                    .collect();
                evaluate_server(&params, &cfg(), warmth, 0.0, &parts, &mut work, &mut eval);
                let want = oracle::evaluate_server(&params, &cfg(), warmth, 0.0, &parts);
                let flat = |e: &ServerEval| -> Vec<u64> {
                    let mut v = vec![e.rho_cpu, e.rho_disk, e.mem_util, e.total_rps];
                    for t in &e.per_partition {
                        v.extend([t.read.0, t.read.1, t.write.0, t.write.1, t.scan.0, t.scan.1]);
                        v.extend([t.write_stall_ms, t.hit_ratio, t.scan_hit_ratio]);
                    }
                    v.into_iter().map(f64::to_bits).collect()
                };
                proptest::prop_assert_eq!(flat(&eval), flat(&want));
                let cache_bytes = warmth * 2e9;
                cache_hit_ratios(cache_bytes, &parts, &mut work);
                proptest::prop_assert_eq!(
                    format!("{:?}", work.hits),
                    format!("{:?}", oracle::cache_hit_ratios(cache_bytes, &parts))
                );
            }
        }
    }

    #[test]
    fn bigger_cache_means_higher_hit_ratio() {
        let parts = vec![demand(1_000.0, 0.0, 0.0)];
        let (small, _) = hit_ratios(0.2e9, &parts)[0];
        let (large, _) = hit_ratios(1.2e9, &parts)[0];
        assert!(large > small, "large {large} ≤ small {small}");
        assert!(large <= 1.0 && small >= 0.0);
    }

    #[test]
    fn cache_fully_covering_data_hits_everything() {
        let parts = vec![demand(100.0, 0.0, 0.0)];
        let (hit, _) = hit_ratios(2e9, &parts)[0];
        assert!((hit - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hot_partition_wins_cache_over_cold() {
        let mut hot = demand(10_000.0, 0.0, 0.0);
        hot.partition = PartitionId(1);
        let mut cold = demand(10.0, 0.0, 0.0);
        cold.partition = PartitionId(2);
        // Cache fits roughly one hot set.
        let hits = hit_ratios(0.6e9, &[hot, cold]);
        assert!(hits[0].0 > hits[1].0, "hot {} should out-hit cold {}", hits[0].0, hits[1].0);
    }

    #[test]
    fn idle_partition_reports_full_hit() {
        let hits = hit_ratios(1e9, &[demand(0.0, 100.0, 0.0)]);
        assert_eq!(hits[0].0, 1.0);
    }

    #[test]
    fn scans_hit_only_when_their_working_set_fits_the_leftover() {
        // A scan partition alone on the node keeps the cache.
        let alone = vec![demand(0.0, 0.0, 100.0)];
        let (_, scan_alone) = hit_ratios(1.5e9, &alone)[0];
        assert!(scan_alone > 0.9, "dedicated scan node should hit: {scan_alone}");
        // The same partition sharing with a hot point-read tenant loses it.
        let mut reader = demand(10_000.0, 0.0, 0.0);
        reader.partition = PartitionId(2);
        let shared = vec![demand(0.0, 0.0, 100.0), reader];
        let (_, scan_shared) = hit_ratios(1.0e9, &shared)[0];
        assert!(
            scan_shared < scan_alone,
            "scans must lose the cache to point reads: {scan_shared} vs {scan_alone}"
        );
    }

    #[test]
    fn writes_pin_residency_for_read_after_write_working_sets() {
        // Two partitions with equal (small) read rates; one is also
        // write-hot. With cache for only one hot set, the written one stays
        // resident.
        let mut rw = demand(500.0, 2_000.0, 0.0);
        rw.partition = PartitionId(1);
        let mut ro = demand(500.0, 0.0, 0.0);
        ro.partition = PartitionId(2);
        let hits = hit_ratios(0.6e9, &[rw, ro]);
        assert!(hits[0].0 > hits[1].0, "write-pinned should win: {hits:?}");
    }

    #[test]
    fn write_stall_shrinks_with_bigger_memstore() {
        let p = CostParams::default();
        let parts: Vec<PartitionDemand> = (0..6)
            .map(|i| {
                let mut d = demand(0.0, 300.0, 0.0);
                d.partition = PartitionId(i);
                d
            })
            .collect();
        let mut small = cfg();
        small.block_cache_fraction = 0.10;
        small.memstore_fraction = 0.15;
        let mut large = cfg();
        large.block_cache_fraction = 0.10;
        large.memstore_fraction = 0.55;
        let es = evaluate(&p, &small, 1.0, 0.0, &parts);
        let el = evaluate(&p, &large, 1.0, 0.0, &parts);
        assert!(
            es.per_partition[0].write_stall_ms > el.per_partition[0].write_stall_ms,
            "small memstore must stall more: {} vs {}",
            es.per_partition[0].write_stall_ms,
            el.per_partition[0].write_stall_ms
        );
    }

    #[test]
    fn write_amp_grows_with_smaller_flush() {
        let p = CostParams::default();
        let small = write_amplification(&p, 1e9, 16e6);
        let large = write_amplification(&p, 1e9, 256e6);
        assert!(small > large);
        assert!(large >= p.write_amp_base);
    }

    #[test]
    fn queue_inflation_monotone_and_capped() {
        let p = CostParams::default();
        assert!(queue_inflation(&p, 0.0) >= 1.0);
        assert!(queue_inflation(&p, 0.5) > queue_inflation(&p, 0.1));
        assert!(queue_inflation(&p, 2.0) <= p.queue_inflation_cap);
    }

    #[test]
    fn read_profile_beats_write_profile_for_reads() {
        let p = CostParams::default();
        let parts = vec![demand(2_000.0, 0.0, 0.0)];
        let mut read_cfg = cfg();
        read_cfg.block_cache_fraction = 0.55;
        read_cfg.memstore_fraction = 0.10;
        read_cfg.block_size = 32 * 1024;
        let mut write_cfg = cfg();
        write_cfg.block_cache_fraction = 0.10;
        write_cfg.memstore_fraction = 0.55;
        let er = evaluate(&p, &read_cfg, 1.0, 0.0, &parts);
        let ew = evaluate(&p, &write_cfg, 1.0, 0.0, &parts);
        let disk_r = er.per_partition[0].read.1;
        let disk_w = ew.per_partition[0].read.1;
        assert!(disk_r < disk_w, "read profile disk {disk_r} ≥ write profile {disk_w}");
        assert!(er.rho_disk < ew.rho_disk);
    }

    #[test]
    fn write_profile_beats_read_profile_for_writes() {
        // Several write-hot partitions share the global memstore budget;
        // a small memstore fraction then forces early flushes (higher write
        // amplification). With a single partition the per-region flush cap
        // dominates and the profiles tie.
        let p = CostParams::default();
        let parts: Vec<PartitionDemand> = (0..12)
            .map(|i| {
                let mut d = demand(0.0, 250.0, 0.0);
                d.partition = PartitionId(i);
                d
            })
            .collect();
        let mut read_cfg = cfg();
        read_cfg.block_cache_fraction = 0.55;
        read_cfg.memstore_fraction = 0.10;
        let mut write_cfg = cfg();
        write_cfg.block_cache_fraction = 0.10;
        write_cfg.memstore_fraction = 0.55;
        let er = evaluate(&p, &read_cfg, 1.0, 0.0, &parts);
        let ew = evaluate(&p, &write_cfg, 1.0, 0.0, &parts);
        assert!(
            ew.per_partition[0].write.1 < er.per_partition[0].write.1,
            "write profile should flush less often"
        );
    }

    #[test]
    fn large_blocks_help_scans_hurt_random_reads() {
        let p = CostParams::default();
        let scan_parts = vec![demand(0.0, 0.0, 100.0)];
        let read_parts = vec![demand(1_000.0, 0.0, 0.0)];
        let mut small = cfg();
        small.block_size = 32 * 1024;
        let mut large = cfg();
        large.block_size = 128 * 1024;
        // Warmth 0 → all misses, isolating the IO path.
        let scan_small = evaluate(&p, &small, 0.0, 0.0, &scan_parts).per_partition[0].scan.1;
        let scan_large = evaluate(&p, &large, 0.0, 0.0, &scan_parts).per_partition[0].scan.1;
        assert!(scan_large < scan_small, "scans: large {scan_large} ≥ small {scan_small}");
        let rd_small = evaluate(&p, &small, 0.0, 0.0, &read_parts).per_partition[0].read.1;
        let rd_large = evaluate(&p, &large, 0.0, 0.0, &read_parts).per_partition[0].read.1;
        assert!(rd_small < rd_large, "reads: small {rd_small} ≥ large {rd_large}");
    }

    #[test]
    fn remote_data_costs_more_than_local() {
        let p = CostParams::default();
        let mut local = demand(1_000.0, 0.0, 0.0);
        local.locality = 1.0;
        let mut remote = local.clone();
        remote.locality = 0.0;
        let el = evaluate(&p, &cfg(), 0.0, 0.0, &[local]);
        let er = evaluate(&p, &cfg(), 0.0, 0.0, &[remote]);
        assert!(er.per_partition[0].read.1 > el.per_partition[0].read.1);
    }

    #[test]
    fn background_io_raises_disk_utilization() {
        let p = CostParams::default();
        let parts = vec![demand(100.0, 0.0, 0.0)];
        let quiet = evaluate(&p, &cfg(), 1.0, 0.0, &parts);
        let busy = evaluate(&p, &cfg(), 1.0, 50.0, &parts);
        assert!(busy.rho_disk > quiet.rho_disk + 0.3);
    }

    #[test]
    fn cold_cache_degrades_reads() {
        let p = CostParams::default();
        let parts = vec![demand(1_000.0, 0.0, 0.0)];
        let warm = evaluate(&p, &cfg(), 1.0, 0.0, &parts);
        let cold = evaluate(&p, &cfg(), 0.0, 0.0, &parts);
        assert!(cold.per_partition[0].read.1 > warm.per_partition[0].read.1);
        assert!(cold.per_partition[0].hit_ratio < warm.per_partition[0].hit_ratio);
    }

    #[test]
    fn mem_util_tracks_write_pressure() {
        let p = CostParams::default();
        let idle = evaluate(&p, &cfg(), 1.0, 0.0, &[demand(10.0, 0.0, 0.0)]);
        let writing = evaluate(&p, &cfg(), 1.0, 0.0, &[demand(0.0, 5_000.0, 0.0)]);
        assert!(writing.mem_util > idle.mem_util);
        assert!(writing.mem_util <= 1.0);
    }
}
