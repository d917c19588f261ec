//! `durable-rw`: writes beside reads on one `CfStore` — the only level
//! where the write-ahead log is reachable (`Region` and
//! `FunctionalCluster` expose no `enable_wal`).
//!
//! Fixed policy, so both sides of any later comparison run the same
//! thing: WAL `group_commit_bytes: 0` (sync per append),
//! `MaintenanceConfig { memstore_flush_bytes: 2 MiB, compactors: 1,
//! ..default }`, 16 KiB blocks, a 32 MiB block cache, 300 000 rows
//! preloaded through the WAL and flushed to one file. The client issues
//! 50 % puts and 50 % gets (through a `StoreReader`) over uniform keys
//! from one thread. Every put's value carries its sequence number: a get
//! must return the last acknowledged write of its key, and after
//! `crash()` → `recover()` every key must still do so.

use super::{cache_delta, Outcome, RunConfig, SETUP_REPS, SPANS_KEPT_PER_NAME};
use crate::gen::{self, qualifier, row_key, seq_of, value_with_seq, Op, OpGen};
use crate::harness::{
    closed_loop, closed_loop_paired, timed_setups, Class, Driver, SpanKind, SpanRecorder,
};
use crate::stats::{percentile_ns, ratio};
use hstore::hfile::HFile;
use hstore::memstore::MemStore;
use hstore::types::InternalKey;
use hstore::wal::crc32;
use hstore::{
    CfStore, FileId, FileIdAllocator, MaintenanceConfig, MaintenanceSnapshot, Qualifier,
    SharedBlockCache, StoreReader, Timestamp, Wal, WalConfig, WalStats,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ycsb::WorkloadSpec;

const ROWS: u64 = 300_000;
const BLOCK_BYTES: u64 = 16 << 10;
const CACHE_BYTES: u64 = 32 << 20;
const FREEZE_BYTES: usize = 2 << 20;
const BATCH: u64 = 20_000;
/// Fixed rate of the open-loop phase, ops/s.
const OPEN_RATE: f64 = 15_000.0;
/// Operations behind each write-path unit cost.
const UNIT_OPS: u64 = 50_000;

fn wal_config() -> WalConfig {
    WalConfig { group_commit_bytes: 0, ..WalConfig::default() }
}

fn maintenance_config() -> MaintenanceConfig {
    MaintenanceConfig {
        memstore_flush_bytes: FREEZE_BYTES,
        compactors: 1,
        ..MaintenanceConfig::default()
    }
}

/// The store under test, its reader handle, and the model of what every
/// key must read back.
struct StoreDriver {
    store: CfStore,
    reader: StoreReader,
    cache: SharedBlockCache,
    ids: Arc<FileIdAllocator>,
    q: Qualifier,
    /// Sequence number of the last acknowledged write per key (0 = the
    /// preloaded value).
    model: Vec<u64>,
    put_bytes: u64,
    frozen_peak: u64,
}

impl StoreDriver {
    fn build(spec: &WorkloadSpec) -> Self {
        let cache = SharedBlockCache::new(CACHE_BYTES);
        let ids = FileIdAllocator::new();
        let mut store = CfStore::new(cache.clone(), ids.clone(), BLOCK_BYTES);
        store.enable_wal(wal_config());
        let q = qualifier();
        let value = value_with_seq(0);
        for idx in 0..spec.records {
            store.put(row_key(spec, idx), q.clone(), value.clone());
        }
        store.flush();
        store.start_maintenance(maintenance_config());
        StoreDriver {
            reader: store.reader(),
            store,
            cache,
            ids,
            q,
            model: vec![0; spec.records as usize],
            put_bytes: 0,
            frozen_peak: 0,
        }
    }

    fn maintenance(&self) -> MaintenanceSnapshot {
        self.store.maintenance_snapshot().unwrap_or_default()
    }

    fn wal_stats(&self) -> WalStats {
        self.store.wal().map(Wal::stats).unwrap_or_default()
    }
}

impl Driver for StoreDriver {
    fn exec(&mut self, op: &Op) -> bool {
        match op {
            Op::Get { idx, row } => match self.reader.try_get(row, &self.q) {
                Ok((Some(v), _)) => seq_of(&v) == Some(self.model[*idx as usize]),
                _ => false,
            },
            Op::Put { idx, row, seq, value } => {
                match self.store.try_put(row.clone(), self.q.clone(), value.clone()) {
                    Ok(_) => {
                        self.model[*idx as usize] = *seq;
                        self.put_bytes += gen::cell_bytes();
                        true
                    }
                    Err(_) => false,
                }
            }
            Op::Scan { .. } => true,
        }
    }

    fn after_batch(&mut self) {
        self.frozen_peak = self.frozen_peak.max(self.maintenance().frozen_memstores);
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let rows = cfg.scaled(ROWS, 1_000);
    let batch = cfg.scaled(BATCH, 200) as usize;
    let spec = gen::spec("RW", rows);
    let mut out = Outcome::new(cfg.trace);

    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let (mut driver, setup_s) = timed_setups(reps, || StoreDriver::build(&spec));
    out.note(format!(
        "durable-rw: {rows} rows preloaded, WAL sync per append, freeze at {FREEZE_BYTES} B, \
         1 compactor, {CACHE_BYTES} B cache, {BLOCK_BYTES} B blocks, batch {batch}"
    ));

    let mut gen = OpGen::new(spec.clone(), cfg.seed, "window");
    let warm = closed_loop(cfg.warmup(), batch, &mut gen, &mut driver);
    out.count(&warm);

    if !cfg.trace {
        let w = closed_loop(cfg.window(), batch, &mut gen, &mut driver);
        crash_and_verify(driver, &spec, false, &mut out)?;
        out.set_end_to_end(setup_s, &w, Class::Read);
        return Ok(out);
    }

    let mut rec = SpanRecorder::new(SPANS_KEPT_PER_NAME);
    let kinds = [
        rec.register("hstore.store.get", ""),
        rec.register("hstore.store.scan", ""),
        rec.register("hstore.store.put", ""),
    ];
    let cache_before = driver.cache.stats();
    let reads_before = driver.store.read_stats();
    let (plain, traced) =
        closed_loop_paired(cfg.share(0.6), batch, &mut gen, &mut rec, kinds, &mut driver);
    let cache = cache_delta(driver.cache.stats(), cache_before);
    out.set_traced_window(&plain, &traced, cache);
    let reads = driver.store.read_stats();
    let gets = (plain.class(Class::Read).count + traced.class(Class::Read).count) as f64;
    let probed = (reads.files_probed - reads_before.files_probed) as f64;
    let skipped = (reads.bloom_skips - reads_before.bloom_skips) as f64;
    let m = &mut out.metrics;
    m.set("hstore.store.get_ns", traced.class(Class::Read).mean_ns());
    m.set("hstore.store.put_ns", traced.class(Class::Put).mean_ns());
    m.set("hstore.store.files_probed_per_get", ratio(probed, gets));
    m.set(
        "hstore.store.memstore_hit_ratio",
        ratio((reads.memstore_hits - reads_before.memstore_hits) as f64, gets),
    );
    m.set("hstore.bloom.skip_ratio", ratio(skipped, skipped + probed));

    let open = open_loop(cfg.share(0.25), &mut gen, &mut driver, &mut rec);
    out.attempted += open.attempted;
    out.failed += open.failed;
    let m = &mut out.metrics;
    m.set("open.put_p99_us", open.put_p99_ns / 1e3);
    m.set("open.read_p99_us", open.read_p99_ns / 1e3);
    m.set("open.late_max_us", open.late_max_ns as f64 / 1e3);
    m.set("open.backlog_end_ops", open.backlog_end as f64);
    out.note(format!(
        "open loop at {OPEN_RATE} ops/s: {} ops, put p99 from due {:.3} us, get p99 from due {:.3} us, \
         latest start {:.3} us after due, backlog at end {}",
        open.attempted,
        open.put_p99_ns / 1e3,
        open.read_p99_ns / 1e3,
        open.late_max_ns as f64 / 1e3,
        open.backlog_end,
    ));

    write_path_units(&spec, cfg, &mut out);
    crash_and_verify(driver, &spec, true, &mut out)?;

    out.write_spans(&rec, "durable-rw", cfg.seed)?;
    Ok(out)
}

#[derive(Default)]
struct OpenLoop {
    attempted: u64,
    failed: u64,
    put_p99_ns: f64,
    read_p99_ns: f64,
    late_max_ns: u64,
    backlog_end: u64,
}

/// Fixed-rate phase: operation `i` is due at `start + i / rate` whatever
/// the store is doing, and its latency runs **from that due time**, so a
/// stall is charged to every operation it delays. The generator never
/// skips: when it falls behind it issues late, and how late is reported.
fn open_loop(
    duration: Duration,
    gen: &mut OpGen,
    driver: &mut StoreDriver,
    rec: &mut SpanRecorder,
) -> OpenLoop {
    let k_get = rec.register("open.hstore.store.get", "");
    let k_put = rec.register("open.hstore.store.put", "");
    let due_total = (duration.as_secs_f64() * OPEN_RATE).ceil().max(1.0) as usize;
    let ops = gen.batch(due_total);
    let gap = Duration::from_secs_f64(1.0 / OPEN_RATE);
    let (mut reads, mut puts) = (Vec::new(), Vec::new());
    let mut r = OpenLoop::default();
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        if start.elapsed() >= duration {
            break;
        }
        let due = start + gap.mul_f64(i as f64);
        let mut begin = Instant::now();
        while begin < due {
            std::hint::spin_loop();
            begin = Instant::now();
        }
        r.late_max_ns = r.late_max_ns.max(begin.duration_since(due).as_nanos() as u64);
        let ok = driver.exec(op);
        let end = Instant::now();
        let from_due = end.duration_since(due).as_nanos() as u64;
        let (kind, samples): (SpanKind, &mut Vec<u32>) = match op.class() {
            Class::Put => (k_put, &mut puts),
            _ => (k_get, &mut reads),
        };
        samples.push(from_due.min(u32::MAX as u64) as u32);
        rec.record(kind, i as u64, due, from_due);
        r.attempted += 1;
        r.failed += u64::from(!ok);
    }
    let due_by_end = (start.elapsed().as_secs_f64() * OPEN_RATE) as u64;
    r.backlog_end = due_by_end.min(due_total as u64).saturating_sub(r.attempted);
    r.put_p99_ns = percentile_ns(&mut puts, 99.0);
    r.read_p99_ns = percentile_ns(&mut reads, 99.0);
    driver.after_batch();
    r
}

/// Kills the store mid-flight (frozen memstores and queued flushes are
/// lost with the process), recovers from the surviving files and WAL, and
/// reads every key back against the model. A traced run (`trace`) also
/// gets its maintenance, WAL and restart metrics set on the way.
fn crash_and_verify(
    driver: StoreDriver,
    spec: &WorkloadSpec,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let snap = driver.maintenance();
    let wal = driver.wal_stats();
    let user = driver.put_bytes as f64;
    let StoreDriver { store, reader, cache, ids, q, model, frozen_peak, .. } = driver;
    drop(reader);
    let replay_ms = store.wal().filter(|_| trace).map(|w| {
        let durable = w.clone().into_durable();
        let t = Instant::now();
        black_box(durable.replay().records.len());
        t.elapsed().as_secs_f64() * 1e3
    });
    let state = store.crash();
    let t = Instant::now();
    let (recovered, report) =
        CfStore::recover(state, cache, ids).map_err(|e| format!("recovery failed: {e}"))?;
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut lost = 0u64;
    for (idx, want) in model.iter().enumerate() {
        let got = recovered.try_get(&row_key(spec, idx as u64), &q);
        let ok = matches!(&got, Ok((Some(v), _)) if seq_of(v) == Some(*want));
        lost += u64::from(!ok);
    }
    out.attempted += model.len() as u64;
    out.failed += lost;
    out.note(format!(
        "crash+recover: {} WAL records replayed in {recover_ms:.1} ms, {} files scrubbed, \
         {} of {} keys lost; {} flushes, {} compactions, {} stalls before the crash",
        report.replayed_records,
        report.files_verified,
        lost,
        model.len(),
        snap.flushes_completed,
        snap.compactions_completed,
        snap.writer_stalls,
    ));
    if !trace {
        return Ok(());
    }
    let live = model.len() as u64 * gen::cell_bytes();
    let stored = recovered.file_bytes() + recovered.memstore_bytes() as u64;
    let m = &mut out.metrics;
    m.set(
        "write_amp",
        ratio((wal.synced_bytes + snap.flush_bytes + snap.compaction_bytes_rewritten) as f64, user),
    );
    m.set("space_amp", ratio(stored as f64, live as f64));
    m.set("hstore.wal.syncs_per_put", ratio(wal.syncs as f64, wal.appends as f64));
    m.set("hstore.wal.bytes_per_user_byte", ratio(wal.synced_bytes as f64, user));
    m.set("hstore.store.recover_ms", recover_ms);
    m.set("hstore.wal.replay_ms", replay_ms.unwrap_or(0.0));
    m.set("hstore.wal.replayed_records", report.replayed_records as f64);
    out.set_maintenance(&snap, frozen_peak, user);
    Ok(())
}

/// Unit costs of the write path, each layer alone on the same kind of
/// record the workload writes: memstore insert, WAL append (sync per
/// append), the sync itself, the CRC, and — on a mirror store without
/// background threads — inline flush, minor compaction and file build.
fn write_path_units(spec: &WorkloadSpec, cfg: &RunConfig, out: &mut Outcome) {
    let n = cfg.scaled(UNIT_OPS, 500) as usize;
    let q = qualifier();
    let mut gen = OpGen::new(spec.clone(), cfg.seed, "units");
    let keys: Vec<(InternalKey, bytes::Bytes)> = (1..=n as u64)
        .map(|ts| {
            let idx = ts.wrapping_mul(0x9e37_79b9_7f4a_7c15) % spec.records;
            (InternalKey::new(row_key(spec, idx), q.clone(), Timestamp(ts)), value_with_seq(ts))
        })
        .collect();
    let per_op = |t: Instant| t.elapsed().as_nanos() as f64 / n as f64;

    let mut mem = MemStore::new();
    let t = Instant::now();
    for (key, value) in &keys {
        mem.insert(key.clone(), Some(value.clone()));
    }
    let insert_ns = per_op(t);

    let mut wal = Wal::new(wal_config());
    let t = Instant::now();
    let mut appended = 0usize;
    for (key, value) in &keys {
        appended += usize::from(wal.append(key, Some(value)).is_ok());
    }
    let append_ns = per_op(t);

    // Appends staged without syncing, each followed by a timed sync.
    let mut staged = Wal::new(WalConfig { group_commit_bytes: usize::MAX, ..wal_config() });
    let mut sync_total = Duration::ZERO;
    for (key, value) in &keys {
        appended += usize::from(staged.append(key, Some(value)).is_ok());
        let t = Instant::now();
        appended += usize::from(staged.sync().is_ok());
        sync_total += t.elapsed();
    }
    out.check(appended == 3 * n, || format!("{appended} of {} WAL unit calls succeeded", 3 * n));

    let buf = vec![0xA5u8; 1 << 20];
    let t = Instant::now();
    const CRC_PASSES: usize = 8;
    for _ in 0..CRC_PASSES {
        black_box(crc32(black_box(&buf)));
    }
    let crc_ns_per_kib = t.elapsed().as_nanos() as f64 / (CRC_PASSES * 1024) as f64;

    // Inline maintenance on a mirror: four memstores of the freeze size
    // flushed one by one, then merged by one minor compaction.
    let mut mirror =
        CfStore::new(SharedBlockCache::new(CACHE_BYTES), FileIdAllocator::new(), BLOCK_BYTES);
    let per_flush = (FREEZE_BYTES as u64 / gen::cell_bytes()) as usize;
    let per_flush = if cfg.smoke { per_flush / 100 } else { per_flush };
    let (mut flush_ms, mut flush_bytes) = (0.0, 0u64);
    for _ in 0..4 {
        for op in gen.batch(2 * per_flush) {
            if let Op::Put { row, value, .. } = op {
                mirror.put(row, q.clone(), value);
            }
        }
        let t = Instant::now();
        if let Some(f) = mirror.flush() {
            flush_ms += t.elapsed().as_secs_f64() * 1e3;
            flush_bytes += f.bytes;
        }
    }
    let t = Instant::now();
    let compacted = mirror.compact_minor(4);
    let compact_ms = t.elapsed().as_secs_f64() * 1e3;
    let cells = mem.snapshot_sorted();
    let t = Instant::now();
    let built = HFile::build(FileId(u64::MAX >> 1), cells, BLOCK_BYTES);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;

    let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    let m = &mut out.metrics;
    m.set("hstore.memstore.insert_ns", insert_ns);
    m.set("hstore.wal.append_ns", append_ns);
    m.set("hstore.wal.sync_ns", sync_total.as_nanos() as f64 / n as f64);
    m.set("hstore.wal.crc_ns_per_kib", crc_ns_per_kib);
    m.set("hstore.store.flush_ms_per_mib", ratio(flush_ms, mib(flush_bytes)));
    m.set(
        "hstore.store.compact_ms_per_mib",
        ratio(compact_ms, mib(compacted.map_or(0, |c| c.bytes_rewritten))),
    );
    m.set("hstore.hfile.build_ms_per_mib", ratio(build_ms, mib(built.total_bytes())));
}
