//! Immutable block-structured sorted store files ("HFiles").
//!
//! A memstore flush freezes its cells into one of these: entries in
//! `InternalKey` order, chunked into blocks of the configured block size,
//! with a first-key block index and a row-key Bloom filter. Reads go through
//! the shared [`BlockCache`](crate::block_cache::BlockCache), so the block
//! size chosen by a node profile (32 KiB for random reads, 128 KiB for
//! scans — Table 1) directly shapes hit ratios and modelled IO.

use crate::block_cache::{Access, AccessCounter, BlockId, FileId, SharedBlockCache};
use crate::bloom::BloomFilter;
use crate::error::{CorruptionKind, HStoreError};
use crate::types::{CellVersion, InternalKey, KeyRange, Qualifier, RowKey, Timestamp};
use crate::wal::Crc32c;
use bytes::Bytes;

/// One block of sorted cell versions.
#[derive(Debug, Clone)]
pub struct Block {
    first_key: InternalKey,
    cells: Vec<CellVersion>,
    byte_size: u64,
    /// Byte offset of this block within the file (corruption reporting).
    offset: u64,
    /// CRC-32C (Castagnoli — HBase's HFile checksum default, one x86-64
    /// instruction per 8 bytes) over the canonical serialization of
    /// `cells`, computed at build time and re-verified whenever a point
    /// read takes the block from "disk" (a cache miss in [`HFile::get`])
    /// and by the recovery scrub.
    crc: u32,
}

impl Block {
    /// The sort key of the first cell.
    pub fn first_key(&self) -> &InternalKey {
        &self.first_key
    }

    /// Cells in order.
    pub fn cells(&self) -> &[CellVersion] {
        &self.cells
    }

    /// Serialized size this block models.
    pub fn byte_size(&self) -> u64 {
        self.byte_size
    }

    /// Recomputes the block's checksum and compares with the stored one.
    pub fn verify(&self) -> bool {
        checksum_cells(&self.cells) == self.crc
    }
}

/// Canonical checksum of a block's cells: each cell framed as
/// `row_len | row | qual_len | qual | ts | tag [| val_len | val]`, the
/// same framing idiom the WAL uses, so the two durability checks cannot
/// drift apart. The frames stream straight through the CRC state — no
/// serialization buffer — because CRC over a concatenation equals the CRC
/// of streaming the parts; this runs at every flush and on every block
/// cache miss, so the per-block allocation it replaces was hot.
fn checksum_cells(cells: &[CellVersion]) -> u32 {
    let mut crc = Crc32c::new();
    for c in cells {
        let row = c.key.coord.row.as_bytes();
        let qual = c.key.coord.qualifier.as_bytes();
        crc.update(&(row.len() as u32).to_le_bytes());
        crc.update(row);
        crc.update(&(qual.len() as u32).to_le_bytes());
        crc.update(qual);
        crc.update(&c.key.ts.0.to_le_bytes());
        match &c.value {
            None => crc.update(&[0]),
            Some(v) => {
                crc.update(&[1]);
                crc.update(&(v.len() as u32).to_le_bytes());
                crc.update(v);
            }
        }
    }
    crc.finish()
}

/// An immutable sorted run of cell versions.
#[derive(Debug, Clone)]
pub struct HFile {
    id: FileId,
    blocks: Vec<Block>,
    bloom: BloomFilter,
    total_bytes: u64,
    entry_count: u64,
    first_row: Option<RowKey>,
    last_row: Option<RowKey>,
    max_ts: u64,
}

/// Streaming writer of one [`HFile`]: cells are pushed in `InternalKey`
/// order and sealed into checksummed blocks as each fills, so a producer
/// that generates its cells one at a time (a compaction's merge) never
/// holds a second copy of the whole output beside the blocks.
pub(crate) struct HFileBuilder {
    id: FileId,
    block_size: u64,
    /// Entry count the Bloom filter was sized for; an upper bound.
    expected_entries: usize,
    bloom: BloomFilter,
    blocks: Vec<Block>,
    cur: Vec<CellVersion>,
    cur_bytes: u64,
    total_bytes: u64,
    entry_count: u64,
    max_ts: u64,
}

impl HFileBuilder {
    /// A builder for file `id` that will receive at most
    /// `expected_entries` cells.
    ///
    /// # Panics
    ///
    /// Panics if `block_size == 0`.
    pub(crate) fn new(id: FileId, block_size: u64, expected_entries: usize) -> Self {
        assert!(block_size > 0, "block_size must be positive");
        HFileBuilder {
            id,
            block_size,
            expected_entries,
            bloom: BloomFilter::with_capacity(expected_entries),
            blocks: Vec::new(),
            cur: Vec::new(),
            cur_bytes: 0,
            total_bytes: 0,
            entry_count: 0,
            max_ts: 0,
        }
    }

    /// Appends the next cell. Cells must arrive in `InternalKey` order
    /// (checked by a debug assertion).
    pub(crate) fn push(&mut self, cell: CellVersion) {
        debug_assert!(
            self.last_cell().is_none_or(|prev| prev.key <= cell.key),
            "HFile input must be sorted"
        );
        let sz = cell.heap_size() as u64;
        if !self.cur.is_empty() && self.cur_bytes + sz > self.block_size {
            self.seal();
        }
        self.bloom.insert(cell.key.coord.row.as_bytes());
        self.max_ts = self.max_ts.max(cell.key.ts.0);
        self.cur_bytes += sz;
        self.total_bytes += sz;
        self.entry_count += 1;
        self.cur.push(cell);
    }

    fn last_cell(&self) -> Option<&CellVersion> {
        self.cur.last().or_else(|| self.blocks.last().and_then(|b| b.cells.last()))
    }

    fn seal(&mut self) {
        self.blocks.push(Block {
            first_key: self.cur[0].key.clone(),
            byte_size: self.cur_bytes,
            offset: self.total_bytes - self.cur_bytes,
            crc: checksum_cells(&self.cur),
            cells: std::mem::take(&mut self.cur),
        });
        self.cur_bytes = 0;
    }

    /// Seals the last block and returns the finished file.
    pub(crate) fn finish(mut self) -> HFile {
        if !self.cur.is_empty() {
            self.seal();
        }
        if self.entry_count != self.expected_entries as u64 {
            // The estimate was only an upper bound (a major compaction
            // dropped versions): re-size the filter to the cells actually
            // written, so a file's Bloom answers depend on its contents
            // alone and not on how it was produced.
            self.bloom = BloomFilter::with_capacity(self.entry_count as usize);
            for cell in self.blocks.iter().flat_map(|b| &b.cells) {
                self.bloom.insert(cell.key.coord.row.as_bytes());
            }
        }
        HFile {
            id: self.id,
            first_row: self.blocks.first().map(|b| b.first_key.coord.row.clone()),
            last_row: self.last_cell().map(|c| c.key.coord.row.clone()),
            blocks: self.blocks,
            bloom: self.bloom,
            total_bytes: self.total_bytes,
            entry_count: self.entry_count,
            max_ts: self.max_ts,
        }
    }
}

impl HFile {
    /// Builds a file from cells that are already in `InternalKey` order.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if the input is not sorted, and always if
    /// `block_size == 0`.
    pub fn build(id: FileId, cells: Vec<CellVersion>, block_size: u64) -> Self {
        let mut builder = HFileBuilder::new(id, block_size, cells.len());
        for cell in cells {
            builder.push(cell);
        }
        builder.finish()
    }

    /// File identifier.
    pub fn id(&self) -> FileId {
        self.id
    }

    /// Total modelled bytes (the size written to the DFS).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Number of cell versions stored.
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// First row stored, if any.
    pub fn first_row(&self) -> Option<&RowKey> {
        self.first_row.as_ref()
    }

    /// Last row stored, if any.
    pub fn last_row(&self) -> Option<&RowKey> {
        self.last_row.as_ref()
    }

    /// Largest cell timestamp stored (`0` for an empty file) — recovery
    /// uses this to restore the store's timestamp clock.
    pub fn max_ts(&self) -> u64 {
        self.max_ts
    }

    /// Re-verifies every block checksum (recovery's scrub pass — no cache
    /// traffic). Fails with the file id and byte offset of the first
    /// damaged block.
    pub fn verify_checksums(&self) -> crate::error::Result<()> {
        for block in &self.blocks {
            if !block.verify() {
                return Err(HStoreError::Corruption {
                    file: self.id,
                    offset: block.offset,
                    cause: CorruptionKind::BlockChecksum,
                });
            }
        }
        Ok(())
    }

    /// Simulates bit-rot in block `index` by damaging its stored checksum
    /// (indistinguishable, to a verifier, from flipped data bytes — and
    /// the only honest option while cells are shared immutably). Returns
    /// whether the block exists.
    pub fn corrupt_block(&mut self, index: usize) -> bool {
        match self.blocks.get_mut(index) {
            Some(b) => {
                b.crc ^= 0xFFFF_FFFF;
                true
            }
            None => false,
        }
    }

    /// Index of the block that could contain `key`: the last block whose
    /// first key is ≤ `key`.
    fn block_for(&self, key: &InternalKey) -> Option<usize> {
        if self.blocks.is_empty() {
            return None;
        }
        match self.blocks.binary_search_by(|b| b.first_key.cmp(key)) {
            Ok(i) => Some(i),
            Err(0) => None, // key precedes the whole file
            Err(i) => Some(i - 1),
        }
    }

    /// Point lookup of the newest version at `(row, qualifier)`.
    ///
    /// Returns `(result, bloom_rejected, cache_access)` where `result` is
    /// `Some(None)` for a tombstone, `Some(Some(v))` for a live value, and
    /// `None` when the file holds no version for the coordinate. When the
    /// Bloom filter rejects the row no block is touched at all.
    ///
    /// A cache miss models a disk read, and disk reads verify the block
    /// checksum (as HBase does): damage surfaces as
    /// [`HStoreError::Corruption`] instead of a silently wrong answer, and
    /// the damaged block is evicted so every retry re-detects it. Cache
    /// hits trust the resident copy — the scrub pass in
    /// [`CfStore::recover`](crate::store::CfStore::recover) is the full
    /// check.
    pub fn get(
        &self,
        row: &RowKey,
        qualifier: &Qualifier,
        cache: &SharedBlockCache,
    ) -> crate::error::Result<(Option<Option<Bytes>>, bool, Option<Access>)> {
        if !self.bloom.may_contain(row.as_bytes()) {
            return Ok((None, true, None));
        }
        // Newest version of the coordinate has the smallest InternalKey.
        let probe = InternalKey::new(row.clone(), qualifier.clone(), Timestamp(u64::MAX));
        // A probe preceding the whole file still seeks into block 0: the
        // coordinate's versions all sort at or after the probe.
        let bi = self.block_for(&probe).unwrap_or(0);
        // The coordinate's versions may begin in block `bi` or spill into
        // `bi + 1` if the probe lands exactly between blocks.
        for idx in [bi, bi + 1] {
            let Some(block) = self.blocks.get(idx) else { continue };
            if idx > bi && block.first_key.coord > probe.coord {
                break;
            }
            let access = cache.touch(BlockId { file: self.id, index: idx as u32 }, block.byte_size);
            if access == Access::Miss && !block.verify() {
                cache.invalidate_file(self.id);
                return Err(HStoreError::Corruption {
                    file: self.id,
                    offset: block.offset,
                    cause: CorruptionKind::BlockChecksum,
                });
            }
            let pos = block.cells.partition_point(|c| c.key < probe);
            if let Some(cell) = block.cells.get(pos) {
                if cell.key.coord.row == *row && cell.key.coord.qualifier == *qualifier {
                    return Ok((Some(cell.value.clone()), false, Some(access)));
                }
            }
            // Probe not in this block; only continue if versions could start
            // at the next block boundary.
            if pos < block.cells.len() {
                return Ok((None, false, Some(access)));
            }
        }
        Ok((None, false, None))
    }

    /// An iterator over cells whose row lies within `range`, touching the
    /// block cache as blocks are entered.
    pub fn range_scan<'a>(
        &'a self,
        range: &KeyRange,
        cache: &'a SharedBlockCache,
    ) -> HFileScanIter<'a> {
        self.range_scan_counted(range, cache, None)
    }

    /// [`HFile::range_scan`] that additionally records every cache access
    /// into `counter`, so the caller can attribute block reads to this
    /// specific scan rather than diffing the shared cache's global stats.
    pub fn range_scan_counted<'a>(
        &'a self,
        range: &KeyRange,
        cache: &'a SharedBlockCache,
        counter: Option<AccessCounter>,
    ) -> HFileScanIter<'a> {
        let start_key = range.start.as_ref().map(|r| InternalKey::row_start(r.clone()));
        let (block_idx, cell_idx) = match &start_key {
            None => (0, 0),
            Some(k) => match self.block_for(k) {
                None => (0, 0),
                Some(bi) => {
                    let pos = self.blocks[bi].cells.partition_point(|c| c.key < *k);
                    if pos == self.blocks[bi].cells.len() {
                        (bi + 1, 0)
                    } else {
                        (bi, pos)
                    }
                }
            },
        };
        HFileScanIter {
            file: self,
            cache,
            end: range.end.clone(),
            block_idx,
            cell_idx,
            entered_block: None,
            counter,
        }
    }
}

/// Streaming iterator over an [`HFile`] range.
///
/// Unlike [`HFile::get`], entering a block here never verifies its
/// checksum, hit or miss: range scans — and compaction, which reads its
/// inputs through this iterator — trust the blocks they walk. Damage is
/// caught by a cold point read or by recovery's scrub, not by a scan.
pub struct HFileScanIter<'a> {
    file: &'a HFile,
    cache: &'a SharedBlockCache,
    end: Option<RowKey>,
    block_idx: usize,
    cell_idx: usize,
    entered_block: Option<usize>,
    counter: Option<AccessCounter>,
}

impl<'a> Iterator for HFileScanIter<'a> {
    type Item = &'a CellVersion;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let block = self.file.blocks.get(self.block_idx)?;
            if self.cell_idx >= block.cells.len() {
                self.block_idx += 1;
                self.cell_idx = 0;
                continue;
            }
            if self.entered_block != Some(self.block_idx) {
                let access = self.cache.touch(
                    BlockId { file: self.file.id, index: self.block_idx as u32 },
                    block.byte_size,
                );
                if let Some(counter) = &self.counter {
                    counter.record(access);
                }
                self.entered_block = Some(self.block_idx);
            }
            let cell = &block.cells[self.cell_idx];
            if let Some(end) = &self.end {
                if &cell.key.coord.row >= end {
                    return None;
                }
            }
            self.cell_idx += 1;
            return Some(cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(row: &str, q: &str, ts: u64, v: Option<&str>) -> CellVersion {
        CellVersion {
            key: InternalKey::new(row.into(), q.into(), Timestamp(ts)),
            value: v.map(|s| Bytes::copy_from_slice(s.as_bytes())),
        }
    }

    fn build_file(cells: Vec<CellVersion>, block_size: u64) -> HFile {
        let mut sorted = cells;
        sorted.sort_by(|a, b| a.key.cmp(&b.key));
        HFile::build(FileId(1), sorted, block_size)
    }

    fn cache() -> SharedBlockCache {
        SharedBlockCache::new(1 << 20)
    }

    #[test]
    fn get_finds_newest_version() {
        let f = build_file(
            vec![cell("r1", "c", 3, Some("new")), cell("r1", "c", 1, Some("old"))],
            1 << 16,
        );
        let c = cache();
        let (got, rejected, access) = f.get(&"r1".into(), &"c".into(), &c).unwrap();
        assert!(!rejected);
        assert_eq!(access, Some(Access::Miss));
        assert_eq!(got.unwrap().unwrap(), Bytes::from_static(b"new"));
    }

    #[test]
    fn get_distinguishes_tombstone_and_absent() {
        let f = build_file(vec![cell("r1", "c", 2, None)], 1 << 16);
        let c = cache();
        let (got, _, _) = f.get(&"r1".into(), &"c".into(), &c).unwrap();
        assert_eq!(got, Some(None)); // tombstone
        let (got, rejected, _) = f.get(&"zz".into(), &"c".into(), &c).unwrap();
        assert_eq!(got, None);
        assert!(rejected, "bloom filter should reject an absent row");
    }

    #[test]
    fn blocks_respect_size_and_order() {
        let cells: Vec<CellVersion> =
            (0..100).map(|i| cell(&format!("row{i:03}"), "c", 1, Some("0123456789"))).collect();
        let f = build_file(cells, 128);
        assert!(f.block_count() > 1, "expected multiple blocks");
        // First keys strictly increase across blocks.
        for w in f.blocks.windows(2) {
            assert!(w[0].first_key < w[1].first_key);
        }
        // Every cell remains findable.
        let c = cache();
        for i in 0..100 {
            let (got, _, _) =
                f.get(&format!("row{i:03}").as_str().into(), &"c".into(), &c).unwrap();
            assert!(got.is_some(), "lost row{i:03}");
        }
    }

    #[test]
    fn repeated_gets_hit_cache() {
        let cells: Vec<CellVersion> =
            (0..50).map(|i| cell(&format!("row{i:02}"), "c", 1, Some("v"))).collect();
        let f = build_file(cells, 1 << 16);
        let c = cache();
        f.get(&"row10".into(), &"c".into(), &c).unwrap();
        let (_, _, access) = f.get(&"row11".into(), &"c".into(), &c).unwrap();
        assert_eq!(access, Some(Access::Hit), "same block should be resident");
    }

    #[test]
    fn range_scan_is_ordered_and_bounded() {
        let cells: Vec<CellVersion> =
            (0..30).map(|i| cell(&format!("row{i:02}"), "c", 1, Some("v"))).collect();
        let f = build_file(cells, 200);
        let c = cache();
        let range = KeyRange::new(Some("row10".into()), Some("row20".into()));
        let rows: Vec<String> =
            f.range_scan(&range, &c).map(|cv| cv.key.coord.row.to_string()).collect();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows.first().unwrap(), "row10");
        assert_eq!(rows.last().unwrap(), "row19");
        let mut sorted = rows.clone();
        sorted.sort();
        assert_eq!(rows, sorted);
    }

    #[test]
    fn scan_touches_each_block_once() {
        let cells: Vec<CellVersion> =
            (0..40).map(|i| cell(&format!("row{i:02}"), "c", 1, Some("0123456789"))).collect();
        let f = build_file(cells, 150);
        let c = cache();
        let _ = f.range_scan(&KeyRange::all(), &c).count();
        let stats = c.stats();
        assert_eq!(stats.hits + stats.misses, f.block_count() as u64);
    }

    #[test]
    fn empty_file_behaves() {
        let f = HFile::build(FileId(9), vec![], 1 << 16);
        let c = cache();
        assert_eq!(f.block_count(), 0);
        assert_eq!(f.total_bytes(), 0);
        let (got, _, _) = f.get(&"r".into(), &"c".into(), &c).unwrap();
        assert_eq!(got, None);
        assert_eq!(f.range_scan(&KeyRange::all(), &c).count(), 0);
    }

    #[test]
    fn probe_before_first_key_finds_block_zero() {
        // Regression: a get whose probe key sorts before the file's first
        // block key must still search block 0 (ts sorts descending, so the
        // probe for a coordinate is its minimum key).
        let f = build_file(vec![cell("aaa", "c", 7, Some("v"))], 1 << 16);
        let c = cache();
        let (got, _, _) = f.get(&"aaa".into(), &"c".into(), &c).unwrap();
        assert_eq!(got.unwrap().unwrap(), Bytes::from_static(b"v"));
    }

    #[test]
    fn coordinate_spanning_block_boundary_resolves() {
        // Many versions of one coordinate forced across a block boundary.
        let mut cells: Vec<CellVersion> =
            (0..60).map(|ts| cell("rowX", "c", ts, Some(&format!("v{ts}")))).collect();
        cells.push(cell("rowA", "a", 1, Some("first")));
        cells.sort_by(|a, b| a.key.cmp(&b.key));
        let f = HFile::build(FileId(3), cells, 200);
        assert!(f.block_count() > 1);
        let c = cache();
        // Newest version (ts=59) must win regardless of block layout.
        let (got, _, _) = f.get(&"rowX".into(), &"c".into(), &c).unwrap();
        assert_eq!(got.unwrap().unwrap(), Bytes::copy_from_slice(b"v59"));
    }

    #[test]
    fn multi_qualifier_rows_resolve_each_column() {
        let f = build_file(
            vec![
                cell("r", "a", 1, Some("va")),
                cell("r", "b", 1, Some("vb")),
                cell("r", "c", 1, Some("vc")),
            ],
            1 << 16,
        );
        let c = cache();
        for (q, want) in [("a", "va"), ("b", "vb"), ("c", "vc")] {
            let (got, _, _) = f.get(&"r".into(), &q.into(), &c).unwrap();
            assert_eq!(got.unwrap().unwrap(), Bytes::copy_from_slice(want.as_bytes()));
        }
        let (got, _, _) = f.get(&"r".into(), &"zzz".into(), &c).unwrap();
        assert_eq!(got, None);
    }

    #[test]
    fn fresh_files_pass_the_scrub() {
        let cells: Vec<CellVersion> =
            (0..50).map(|i| cell(&format!("row{i:02}"), "c", 1, Some("0123456789"))).collect();
        let f = build_file(cells, 150);
        assert!(f.block_count() > 1);
        f.verify_checksums().expect("undamaged file must scrub clean");
    }

    #[test]
    fn corrupted_block_fails_cold_reads_with_a_typed_error() {
        let cells: Vec<CellVersion> =
            (0..50).map(|i| cell(&format!("row{i:02}"), "c", 1, Some("0123456789"))).collect();
        let mut f = build_file(cells, 150);
        assert!(f.corrupt_block(0));
        // The scrub pinpoints the damage.
        let err = f.verify_checksums().unwrap_err();
        assert!(matches!(
            err,
            HStoreError::Corruption {
                file: FileId(1),
                offset: 0,
                cause: CorruptionKind::BlockChecksum
            }
        ));
        // A cold point read (disk read) detects it too, instead of
        // returning bytes that might be wrong.
        let c = cache();
        let err = f.get(&"row00".into(), &"c".into(), &c).unwrap_err();
        assert!(matches!(
            err,
            HStoreError::Corruption { cause: CorruptionKind::BlockChecksum, .. }
        ));
        // The block was evicted on detection, so a retry re-detects
        // rather than serving the poisoned copy from cache.
        let err = f.get(&"row00".into(), &"c".into(), &c).unwrap_err();
        assert!(matches!(err, HStoreError::Corruption { .. }));
        // Undamaged blocks of the same file still read fine.
        let (got, _, _) = f.get(&"row40".into(), &"c".into(), &c).unwrap();
        assert!(got.is_some());
    }

    #[test]
    fn any_damaged_byte_of_a_stored_checksum_is_detected() {
        let cells: Vec<CellVersion> =
            (0..50).map(|i| cell(&format!("row{i:02}"), "c", 1, Some("0123456789"))).collect();
        let clean = build_file(cells, 150);
        for byte in 0..4 {
            for flip in [0x01u32, 0x80, 0xFF] {
                let mut f = clean.clone();
                f.blocks[1].crc ^= flip << (8 * byte);
                assert!(!f.blocks[1].verify(), "crc byte {byte} ^ {flip:#x} went undetected");
                assert!(f.verify_checksums().is_err());
            }
        }
    }

    /// Everything observable about two files is equal.
    fn assert_same_file(got: &HFile, want: &HFile) {
        assert_eq!(got.block_count(), want.block_count());
        for (g, w) in got.blocks.iter().zip(&want.blocks) {
            assert_eq!(g.first_key, w.first_key);
            assert_eq!((g.byte_size, g.offset, g.crc), (w.byte_size, w.offset, w.crc));
            assert_eq!(g.cells, w.cells);
        }
        got.verify_checksums().expect("streamed output scrubs clean");
        assert_eq!(got.first_row(), want.first_row());
        assert_eq!(got.last_row(), want.last_row());
        assert_eq!(got.max_ts(), want.max_ts());
        assert_eq!(got.entry_count(), want.entry_count());
        assert_eq!(got.total_bytes(), want.total_bytes());
        assert_eq!(got.bloom.byte_size(), want.bloom.byte_size());
        assert_eq!(got.bloom.entries(), want.bloom.entries());
        for i in 0..2_000 {
            // Present rows (row000..row299) and absent ones alike: false
            // positives included, both filters answer the same.
            let probe = format!("row{i:03}");
            assert_eq!(
                got.bloom.may_contain(probe.as_bytes()),
                want.bloom.may_contain(probe.as_bytes()),
                "bloom answers differ for {probe}"
            );
        }
    }

    #[test]
    fn streamed_compaction_output_equals_a_built_file() {
        use crate::store::merge_file_set;
        use std::sync::Arc;
        // Three overlapping inputs, oldest first: a base load, a newer
        // pass that overwrites every third row and deletes every seventh,
        // and a third that deletes everything.
        let base: Vec<CellVersion> =
            (0..300).map(|i| cell(&format!("row{i:03}"), "c", 1, Some("0123456789"))).collect();
        let newer: Vec<CellVersion> = (0..300)
            .filter(|i| i % 3 == 0 || i % 7 == 0)
            .map(|i| cell(&format!("row{i:03}"), "c", 2, (i % 7 != 0).then_some("newer")))
            .collect();
        let wipe: Vec<CellVersion> =
            (0..300).map(|i| cell(&format!("row{i:03}"), "c", 3, None)).collect();
        let file =
            |id, cells: &[CellVersion]| Arc::new(HFile::build(FileId(id), cells.to_vec(), 256));
        let (f1, f2, f3) = (file(1, &base), file(2, &newer), file(3, &wipe));

        // What a merge must write, computed the slow way.
        let expected = |inputs: &[&[CellVersion]], major: bool| {
            let mut all: Vec<CellVersion> = inputs.concat();
            all.sort_by(|a, b| a.key.cmp(&b.key));
            if major {
                all.dedup_by(|later, first| later.key.coord == first.key.coord);
                all.retain(|c| c.value.is_some());
            }
            all
        };

        // Minor: every version and tombstone kept, the count is exact.
        let streamed = merge_file_set(&[f1.clone(), f2.clone()], FileId(9), 256, false);
        let want = expected(&[&base, &newer], false);
        assert_eq!(streamed.entry_count(), f1.entry_count() + f2.entry_count());
        assert!(streamed.block_count() > 1);
        assert_same_file(&streamed, &HFile::build(FileId(9), want, 256));

        // Major: shadowed versions and tombstones dropped, so the inputs'
        // entry count was only an upper bound on what got written.
        let streamed = merge_file_set(&[f1.clone(), f2.clone()], FileId(9), 256, true);
        let want = expected(&[&base, &newer], true);
        assert!(streamed.entry_count() < f1.entry_count() + f2.entry_count());
        assert!(streamed.block_count() > 1);
        assert_same_file(&streamed, &HFile::build(FileId(9), want, 256));

        // Major over a full wipe: nothing survives.
        let streamed = merge_file_set(&[f1, f2, f3], FileId(9), 256, true);
        assert_eq!((streamed.block_count(), streamed.entry_count()), (0, 0));
        assert_eq!(streamed.first_row(), None);
        assert_same_file(&streamed, &HFile::build(FileId(9), vec![], 256));
    }

    #[test]
    fn corrupting_a_missing_block_is_reported() {
        let mut f = build_file(vec![cell("r", "c", 1, Some("v"))], 1 << 16);
        assert!(!f.corrupt_block(99));
    }

    #[test]
    fn max_ts_tracks_the_newest_cell() {
        let f = build_file(
            vec![
                cell("a", "c", 3, Some("x")),
                cell("b", "c", 17, Some("y")),
                cell("c", "c", 5, None),
            ],
            1 << 16,
        );
        assert_eq!(f.max_ts(), 17);
        assert_eq!(HFile::build(FileId(2), vec![], 1 << 16).max_ts(), 0);
    }
}
