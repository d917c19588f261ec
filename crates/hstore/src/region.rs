//! Regions: the horizontal partitions MeT places and re-places.
//!
//! An HTable's row range is partitioned into regions, each served by exactly
//! one RegionServer (§2.1). A region owns one [`CfStore`] per declared
//! column family and counts its read/write/scan requests — the per-partition
//! access-pattern metrics MeT's classifier consumes (§4.2.3).

use crate::block_cache::SharedBlockCache;
use crate::error::{Result, StoreError};
use crate::maintenance::{MaintenanceConfig, MaintenanceSnapshot};
use crate::store::{
    CfStore, CompactionOutcome, FileIdAllocator, FlushOutcome, OpStats, StoreSnapshot,
};
use crate::types::{Family, KeyRange, Qualifier, RowKey};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Globally unique region identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u64);

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "region-{}", self.0)
    }
}

/// Per-region request counters, cumulative since region creation.
///
/// MeT's monitor diffs successive snapshots per monitoring interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionCounters {
    /// Point reads served.
    pub reads: u64,
    /// Writes (puts and deletes) served.
    pub writes: u64,
    /// Scan operations served.
    pub scans: u64,
    /// Rows returned by scans (scan weight).
    pub scan_rows: u64,
}

impl RegionCounters {
    /// Total requests of all types.
    pub fn total(&self) -> u64 {
        self.reads + self.writes + self.scans
    }
}

/// The live, lock-free counter cells behind [`RegionCounters`]: reads and
/// scans take `&self`, so the counters they bump must be atomics. Relaxed
/// ordering suffices — these are statistics, not synchronization.
#[derive(Debug, Default)]
struct CounterCells {
    reads: AtomicU64,
    writes: AtomicU64,
    scans: AtomicU64,
    scan_rows: AtomicU64,
}

impl CounterCells {
    fn from_snapshot(c: RegionCounters) -> Self {
        CounterCells {
            reads: AtomicU64::new(c.reads),
            writes: AtomicU64::new(c.writes),
            scans: AtomicU64::new(c.scans),
            scan_rows: AtomicU64::new(c.scan_rows),
        }
    }

    fn snapshot(&self) -> RegionCounters {
        RegionCounters {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            scan_rows: self.scan_rows.load(Ordering::Relaxed),
        }
    }
}

/// A contiguous row-range partition of one table.
#[derive(Debug)]
pub struct Region {
    id: RegionId,
    table: String,
    range: KeyRange,
    families: BTreeMap<Family, CfStore>,
    counters: CounterCells,
    memstore_flush_bytes: u64,
    telemetry: telemetry::Telemetry,
}

impl Region {
    /// Creates an empty region covering `range` with the given families.
    // The constructor mirrors HBase's HRegion wiring; the parameters are
    // genuinely independent (identity, placement, storage knobs).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: RegionId,
        table: impl Into<String>,
        range: KeyRange,
        families: &[Family],
        cache: SharedBlockCache,
        ids: Arc<FileIdAllocator>,
        block_size: u64,
        memstore_flush_bytes: u64,
    ) -> Self {
        assert!(!families.is_empty(), "a region needs at least one family");
        let stores = families
            .iter()
            .map(|f| (f.clone(), CfStore::new(cache.clone(), ids.clone(), block_size)))
            .collect();
        Region {
            id,
            table: table.into(),
            range,
            families: stores,
            counters: CounterCells::default(),
            memstore_flush_bytes,
            telemetry: telemetry::Telemetry::disabled(),
        }
    }

    /// Routes storage metrics (flush/compaction/split counters and byte
    /// histograms) to `telemetry`. Regions have no clock, so only registry
    /// metrics are published here; timed events belong to the layer that
    /// owns the simulation clock.
    pub fn set_telemetry(&mut self, telemetry: telemetry::Telemetry) {
        self.telemetry = telemetry;
    }

    /// Region identifier.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// Owning table name.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Row range served.
    pub fn range(&self) -> &KeyRange {
        &self.range
    }

    /// Declared column families.
    pub fn family_names(&self) -> Vec<Family> {
        self.families.keys().cloned().collect()
    }

    fn check_row(&self, row: &RowKey) -> Result<()> {
        if self.range.contains(row) {
            Ok(())
        } else {
            Err(StoreError::WrongRegion { row: row.clone(), range: self.range.clone() })
        }
    }

    fn family_mut(&mut self, family: &Family) -> Result<&mut CfStore> {
        self.families.get_mut(family).ok_or_else(|| StoreError::UnknownFamily(family.clone()))
    }

    fn family_ref(&self, family: &Family) -> Result<&CfStore> {
        self.families.get(family).ok_or_else(|| StoreError::UnknownFamily(family.clone()))
    }

    /// Writes a cell.
    pub fn put(
        &mut self,
        family: &Family,
        row: RowKey,
        qualifier: Qualifier,
        value: Bytes,
    ) -> Result<()> {
        self.put_with_stats(family, row, qualifier, value).map(|_| ())
    }

    /// [`Region::put`] reporting the op's work (a memstore insert).
    pub fn put_with_stats(
        &mut self,
        family: &Family,
        row: RowKey,
        qualifier: Qualifier,
        value: Bytes,
    ) -> Result<OpStats> {
        self.check_row(&row)?;
        let (_, stats) = self.family_mut(family)?.try_put(row, qualifier, value)?;
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        Ok(stats)
    }

    /// Deletes a cell (tombstone).
    pub fn delete(&mut self, family: &Family, row: RowKey, qualifier: Qualifier) -> Result<()> {
        self.delete_with_stats(family, row, qualifier).map(|_| ())
    }

    /// [`Region::delete`] reporting the op's work (a memstore insert).
    pub fn delete_with_stats(
        &mut self,
        family: &Family,
        row: RowKey,
        qualifier: Qualifier,
    ) -> Result<OpStats> {
        self.check_row(&row)?;
        let (_, stats) = self.family_mut(family)?.try_delete(row, qualifier)?;
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        Ok(stats)
    }

    /// Atomic compare-and-put on a cell (see
    /// [`CfStore::check_and_put`]).
    pub fn check_and_put(
        &mut self,
        family: &Family,
        row: RowKey,
        qualifier: Qualifier,
        expected: Option<&Bytes>,
        new: Bytes,
    ) -> Result<bool> {
        self.check_and_put_with_stats(family, row, qualifier, expected, new).map(|(done, _)| done)
    }

    /// [`Region::check_and_put`] reporting the read-modify-write's work.
    pub fn check_and_put_with_stats(
        &mut self,
        family: &Family,
        row: RowKey,
        qualifier: Qualifier,
        expected: Option<&Bytes>,
        new: Bytes,
    ) -> Result<(bool, OpStats)> {
        self.check_row(&row)?;
        let (done, stats) =
            self.family_mut(family)?.try_check_and_put(row, qualifier, expected, new)?;
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        if done {
            self.counters.writes.fetch_add(1, Ordering::Relaxed);
        }
        Ok((done, stats))
    }

    /// Atomic numeric increment of a cell (see [`CfStore::increment`]).
    pub fn increment(
        &mut self,
        family: &Family,
        row: RowKey,
        qualifier: Qualifier,
        delta: i64,
    ) -> Result<i64> {
        self.increment_with_stats(family, row, qualifier, delta).map(|(v, _)| v)
    }

    /// [`Region::increment`] reporting the read-modify-write's work.
    pub fn increment_with_stats(
        &mut self,
        family: &Family,
        row: RowKey,
        qualifier: Qualifier,
        delta: i64,
    ) -> Result<(i64, OpStats)> {
        self.check_row(&row)?;
        let (v, stats) = self.family_mut(family)?.try_increment(row, qualifier, delta)?;
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        Ok((v, stats))
    }

    /// Reads the newest live value of a cell.
    pub fn get(
        &self,
        family: &Family,
        row: &RowKey,
        qualifier: &Qualifier,
    ) -> Result<Option<Bytes>> {
        self.get_with_stats(family, row, qualifier).map(|(v, _)| v)
    }

    /// [`Region::get`] reporting which blocks the read touched.
    pub fn get_with_stats(
        &self,
        family: &Family,
        row: &RowKey,
        qualifier: &Qualifier,
    ) -> Result<(Option<Bytes>, OpStats)> {
        self.check_row(row)?;
        let (v, stats) = self.family_ref(family)?.try_get(row, qualifier)?;
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        Ok((v, stats))
    }

    /// Scans up to `row_limit` live rows from `start`, clamped to this
    /// region's range.
    pub fn scan(
        &self,
        family: &Family,
        start: &RowKey,
        row_limit: usize,
    ) -> Result<Vec<crate::types::RowCells>> {
        self.scan_with_stats(family, start, row_limit).map(|(rows, _)| rows)
    }

    /// [`Region::scan`] reporting the blocks this scan entered.
    pub fn scan_with_stats(
        &self,
        family: &Family,
        start: &RowKey,
        row_limit: usize,
    ) -> Result<(Vec<crate::types::RowCells>, OpStats)> {
        self.check_row(start)?;
        let range = KeyRange::new(Some(start.clone()), self.range.end.clone());
        let (rows, stats) = self.family_ref(family)?.scan_range_with_stats(&range, row_limit);
        self.counters.scans.fetch_add(1, Ordering::Relaxed);
        self.counters.scan_rows.fetch_add(rows.len() as u64, Ordering::Relaxed);
        Ok((rows, stats))
    }

    /// A stable point-in-time view of one family (see [`StoreSnapshot`]).
    /// Region moves and rebuilds iterate this instead of borrowing the
    /// live store.
    pub fn family_snapshot(&self, family: &Family) -> Result<StoreSnapshot> {
        Ok(self.family_ref(family)?.snapshot())
    }

    /// Starts the background maintenance pipeline on every family store:
    /// flushes and compactions leave the write path and writers only pay
    /// backpressure (see [`MaintenanceConfig`]). The inline
    /// [`Region::maybe_flush`] / [`Region::maybe_compact`] paths skip
    /// maintenance-enabled families from here on.
    pub fn enable_background_maintenance(&mut self, cfg: MaintenanceConfig) {
        for s in self.families.values_mut() {
            s.start_maintenance(cfg);
        }
    }

    /// Whether any family runs the background maintenance pipeline.
    pub fn background_maintenance_enabled(&self) -> bool {
        self.families.values().any(CfStore::maintenance_enabled)
    }

    /// Quiesce: blocks until every queued background flush/compaction has
    /// published and the earned WAL truncations are applied.
    pub fn drain_background_maintenance(&mut self) {
        for s in self.families.values_mut() {
            s.drain_maintenance();
        }
    }

    /// Aggregated background-pipeline pressure across families: queue
    /// depths, stall time and maintenance debt. `None` when no family
    /// runs the pipeline.
    pub fn maintenance_pressure(&self) -> Option<MaintenanceSnapshot> {
        let mut agg = MaintenanceSnapshot::default();
        let mut any = false;
        for s in self.families.values() {
            if let Some(snap) = s.maintenance_snapshot() {
                agg.merge(&snap);
                any = true;
            }
        }
        any.then_some(agg)
    }

    /// Flushes any family whose memstore exceeds the per-region flush
    /// threshold; returns the flush outcomes. Families running background
    /// maintenance are skipped — their flushes happen off the write path.
    pub fn maybe_flush(&mut self) -> Vec<FlushOutcome> {
        let threshold = self.memstore_flush_bytes;
        let outcomes: Vec<FlushOutcome> = self
            .families
            .values_mut()
            .filter(|s| !s.maintenance_enabled() && s.memstore_bytes() as u64 >= threshold)
            .filter_map(|s| s.flush())
            .collect();
        self.record_flushes(&outcomes);
        outcomes
    }

    /// Unconditionally flushes every family.
    pub fn flush_all(&mut self) -> Vec<FlushOutcome> {
        let outcomes: Vec<FlushOutcome> =
            self.families.values_mut().filter_map(|s| s.flush()).collect();
        self.record_flushes(&outcomes);
        outcomes
    }

    fn record_flushes(&self, outcomes: &[FlushOutcome]) {
        for o in outcomes {
            self.telemetry.counter_add("hstore_memstore_flushes_total", &[], 1);
            self.telemetry.observe("hstore_flush_bytes", &[], o.bytes as f64);
        }
    }

    fn record_compactions(&self, kind: &'static str, outcomes: &[CompactionOutcome]) {
        for o in outcomes {
            self.telemetry.counter_add("hstore_compactions_total", &[("kind", kind)], 1);
            self.telemetry.observe(
                "hstore_compaction_bytes",
                &[("kind", kind)],
                o.bytes_rewritten as f64,
            );
        }
    }

    /// Runs a minor compaction on families at/over the file-count
    /// threshold. Families running background maintenance are skipped —
    /// the compactor pool owns their file counts.
    pub fn maybe_compact(&mut self, threshold: usize) -> Vec<CompactionOutcome> {
        let outcomes: Vec<CompactionOutcome> = self
            .families
            .values_mut()
            .filter(|s| !s.maintenance_enabled() && s.file_count() >= threshold)
            .filter_map(|s| s.compact_minor(threshold))
            .collect();
        self.record_compactions("minor", &outcomes);
        outcomes
    }

    /// Major-compacts every family, returning total bytes rewritten.
    pub fn major_compact(&mut self) -> Vec<CompactionOutcome> {
        let outcomes: Vec<CompactionOutcome> =
            self.families.values_mut().filter_map(|s| s.compact_major()).collect();
        self.record_compactions("major", &outcomes);
        outcomes
    }

    /// Total stored bytes (files + memstores) across families.
    pub fn size_bytes(&self) -> u64 {
        self.families.values().map(|s| s.file_bytes() + s.memstore_bytes() as u64).sum()
    }

    /// Total memstore bytes across families.
    pub fn memstore_bytes(&self) -> u64 {
        self.families.values().map(|s| s.memstore_bytes() as u64).sum()
    }

    /// Ids and sizes of all store files (for DFS registration).
    pub fn file_manifest(&self) -> Vec<(crate::block_cache::FileId, u64)> {
        self.families.values().flat_map(|s| s.file_manifest()).collect()
    }

    /// Cumulative request counters.
    pub fn counters(&self) -> RegionCounters {
        self.counters.snapshot()
    }

    /// A suitable split row near the byte-midpoint, if the region has enough
    /// data to split.
    pub fn split_point(&self) -> Option<RowKey> {
        let largest =
            self.families.values().max_by_key(|s| s.file_bytes() + s.memstore_bytes() as u64)?;
        let mid = largest.midpoint_row()?;
        // The split point must be strictly inside the range.
        if self.range.contains(&mid) && self.range.start.as_ref() != Some(&mid) {
            Some(mid)
        } else {
            None
        }
    }

    /// Splits the region at `mid` into two daughters with fresh ids,
    /// physically partitioning the data (modelling HBase's split plus the
    /// follow-up reference-file compaction).
    pub fn split(
        self,
        mid: RowKey,
        lo_id: RegionId,
        hi_id: RegionId,
        cache: SharedBlockCache,
        ids: Arc<FileIdAllocator>,
        block_size: u64,
    ) -> Result<(Region, Region)> {
        if !self.range.contains(&mid) || self.range.start.as_ref() == Some(&mid) {
            return Err(StoreError::BadSplitPoint(format!(
                "{mid} not strictly inside {}",
                self.range
            )));
        }
        let (lo_range, hi_range) = self.range.split_at(mid);
        let mut lo_families = BTreeMap::new();
        let mut hi_families = BTreeMap::new();
        for (fam, store) in &self.families {
            let next_ts = store.next_ts();
            let lo_cells = store.export_range(&lo_range);
            let hi_cells = store.export_range(&hi_range);
            lo_families.insert(
                fam.clone(),
                CfStore::from_cells(cache.clone(), ids.clone(), block_size, lo_cells, next_ts),
            );
            hi_families.insert(
                fam.clone(),
                CfStore::from_cells(cache.clone(), ids.clone(), block_size, hi_cells, next_ts),
            );
        }
        let flush = self.memstore_flush_bytes;
        // Parent counters are attributed half-and-half so classification
        // signals survive a split rather than resetting to zero.
        let parent = self.counters.snapshot();
        let half = RegionCounters {
            reads: parent.reads / 2,
            writes: parent.writes / 2,
            scans: parent.scans / 2,
            scan_rows: parent.scan_rows / 2,
        };
        self.telemetry.counter_add("hstore_region_splits_total", &[], 1);
        let lo = Region {
            id: lo_id,
            table: self.table.clone(),
            range: lo_range,
            families: lo_families,
            counters: CounterCells::from_snapshot(half),
            memstore_flush_bytes: flush,
            telemetry: self.telemetry.clone(),
        };
        let hi = Region {
            id: hi_id,
            table: self.table,
            range: hi_range,
            families: hi_families,
            counters: CounterCells::from_snapshot(half),
            memstore_flush_bytes: flush,
            telemetry: self.telemetry,
        };
        Ok((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(range: KeyRange) -> Region {
        Region::new(
            RegionId(1),
            "t",
            range,
            &[Family::from("cf")],
            SharedBlockCache::new(1 << 20),
            FileIdAllocator::new(),
            512,
            4 * 1024,
        )
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn rejects_out_of_range_rows() {
        let mut r = region(KeyRange::new(Some("b".into()), Some("m".into())));
        let err = r.put(&"cf".into(), "z".into(), "c".into(), b("v")).unwrap_err();
        assert!(matches!(err, StoreError::WrongRegion { .. }));
        let err = r.get(&"cf".into(), &"a".into(), &"c".into()).unwrap_err();
        assert!(matches!(err, StoreError::WrongRegion { .. }));
    }

    #[test]
    fn rejects_unknown_family() {
        let mut r = region(KeyRange::all());
        let err = r.put(&"nope".into(), "r".into(), "c".into(), b("v")).unwrap_err();
        assert!(matches!(err, StoreError::UnknownFamily(_)));
    }

    #[test]
    fn counters_track_request_types() {
        let mut r = region(KeyRange::all());
        r.put(&"cf".into(), "r1".into(), "c".into(), b("v")).unwrap();
        r.put(&"cf".into(), "r2".into(), "c".into(), b("v")).unwrap();
        r.get(&"cf".into(), &"r1".into(), &"c".into()).unwrap();
        r.scan(&"cf".into(), &"r1".into(), 10).unwrap();
        let c = r.counters();
        assert_eq!((c.writes, c.reads, c.scans), (2, 1, 1));
        assert_eq!(c.scan_rows, 2);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn maybe_flush_fires_at_threshold() {
        let mut r = region(KeyRange::all());
        assert!(r.maybe_flush().is_empty());
        // 4 KiB threshold; write ~8 KiB.
        for i in 0..80 {
            r.put(&"cf".into(), format!("row{i:03}").into(), "c".into(), b(&"x".repeat(100)))
                .unwrap();
        }
        let flushed = r.maybe_flush();
        assert_eq!(flushed.len(), 1);
        assert_eq!(r.memstore_bytes(), 0);
        assert!(r.size_bytes() > 0);
    }

    #[test]
    fn scan_is_clamped_to_region_end() {
        let mut r = region(KeyRange::new(None, Some("row05".into())));
        for i in 0..5 {
            r.put(&"cf".into(), format!("row{i:02}").into(), "c".into(), b("v")).unwrap();
        }
        let rows = r.scan(&"cf".into(), &"row00".into(), 100).unwrap();
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn split_partitions_data_and_ranges() {
        let mut r = region(KeyRange::all());
        for i in 0..40 {
            r.put(&"cf".into(), format!("row{i:02}").into(), "c".into(), b("0123456789")).unwrap();
        }
        r.flush_all();
        let cache = SharedBlockCache::new(1 << 20);
        let ids = FileIdAllocator::new();
        let (lo, hi) = r.split("row20".into(), RegionId(2), RegionId(3), cache, ids, 512).unwrap();
        assert_eq!(lo.range().end.clone().unwrap(), "row20".into());
        assert_eq!(hi.range().start.clone().unwrap(), "row20".into());
        assert_eq!(
            lo.get(&"cf".into(), &"row10".into(), &"c".into()).unwrap(),
            Some(b("0123456789"))
        );
        assert_eq!(
            hi.get(&"cf".into(), &"row30".into(), &"c".into()).unwrap(),
            Some(b("0123456789"))
        );
        assert!(lo.get(&"cf".into(), &"row30".into(), &"c".into()).is_err());
    }

    #[test]
    fn split_point_is_near_midpoint() {
        let mut r = region(KeyRange::all());
        for i in 0..200 {
            r.put(&"cf".into(), format!("row{i:03}").into(), "c".into(), b(&"x".repeat(50)))
                .unwrap();
        }
        r.flush_all();
        let mid = r.split_point().unwrap();
        assert!(mid > "row050".into() && mid < "row150".into(), "mid={mid}");
    }

    #[test]
    fn split_at_bad_point_errors() {
        let mut r = region(KeyRange::new(Some("a".into()), Some("m".into())));
        r.put(&"cf".into(), "b".into(), "c".into(), b("v")).unwrap();
        let cache = SharedBlockCache::new(1 << 20);
        let ids = FileIdAllocator::new();
        let err = r.split("z".into(), RegionId(2), RegionId(3), cache, ids, 512).unwrap_err();
        assert!(matches!(err, StoreError::BadSplitPoint(_)));
    }

    #[test]
    fn background_maintenance_covers_every_family_and_reports_pressure() {
        let mut r = region(KeyRange::all());
        assert!(r.maintenance_pressure().is_none());
        r.enable_background_maintenance(MaintenanceConfig {
            memstore_flush_bytes: 1_000,
            ..MaintenanceConfig::default()
        });
        assert!(r.background_maintenance_enabled());
        for i in 0..300 {
            r.put(&"cf".into(), format!("row{i:03}").into(), "c".into(), b(&"x".repeat(40)))
                .unwrap();
        }
        r.drain_background_maintenance();
        // Inline maintenance stands down while the pipeline owns the family.
        assert!(r.maybe_flush().is_empty());
        assert!(r.maybe_compact(1).is_empty());
        let snap = r.maintenance_pressure().unwrap();
        assert!(snap.flushes_completed > 0, "background flushes published: {snap:?}");
        assert_eq!(snap.frozen_memstores, 0, "drained");
        assert_eq!(r.scan(&"cf".into(), &"row000".into(), 1_000).unwrap().len(), 300);
    }

    #[test]
    fn major_compact_reports_rewritten_bytes() {
        let mut r = region(KeyRange::all());
        for round in 0..3 {
            for i in 0..20 {
                r.put(
                    &"cf".into(),
                    format!("row{i:02}").into(),
                    "c".into(),
                    b(&format!("v{round}")),
                )
                .unwrap();
            }
            r.flush_all();
        }
        let outcomes = r.major_compact();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].bytes_rewritten > 0);
        assert!(outcomes[0].replaced.len() >= 3);
    }
}
