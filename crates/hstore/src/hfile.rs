//! Immutable block-structured sorted store files ("HFiles").
//!
//! A memstore flush freezes its cells into one of these: entries in
//! `InternalKey` order, chunked into blocks of the configured block size,
//! with a first-key block index and a row-key Bloom filter. Reads go through
//! the shared [`BlockCache`](crate::block_cache::BlockCache), so the block
//! size chosen by a node profile (32 KiB for random reads, 128 KiB for
//! scans — Table 1) directly shapes hit ratios and modelled IO.
//!
//! # Block layout
//!
//! A block owns four flat arrays and no per-cell heap object: the **key
//! arena** (the stored key-side serialization, one record
//! `row_len u32 | row | qual_len u32 | qual | ts u64` per cell, back to
//! back), one `u32` **arena offset** per cell, the **value handles**
//! (shared `Bytes`, never copied into the block) and a **search index**
//! ([`SearchIndex`]): the row prefix all cells share (up to 16 bytes,
//! inline) plus, per cell, the next 8 row bytes as a big-endian `u64`, and
//! inline, the high half of every sixteenth of those. A seek compares the
//! probe with the 16 inline samples, then binary-searches the one segment
//! of the `u64` array they leave — about 64 bytes of a 16 KiB block's 904
//! — and parses a full key only where two windows tie; a walk reads
//! offsets and arena front to back. The block checksum hashes the arena in
//! place, then the value records. The file keeps the same index over its
//! blocks' first keys. DESIGN.md "HFile block layout" has the reasoning
//! and the cache-line arithmetic.

use crate::block_cache::{Access, AccessCounter, BlockId, FileId, SharedBlockCache};
use crate::bloom::{row_hash, BloomFilter};
use crate::error::{CorruptionKind, HStoreError};
use crate::types::{cell_heap_size, CellVersion, KeyRange, KeyRef, Qualifier, RowKey, Timestamp};
use crate::wal::{Crc32c, StagedCrc32c};
use bytes::Bytes;

/// Row bytes the search index keeps per key, after the shared prefix.
const WINDOW_BYTES: usize = 8;

/// The [`WINDOW_BYTES`] bytes of `row` after its first `skip`, big-endian,
/// zero-padded where the row ends early. For rows sharing their first
/// `skip` bytes, integer order of the windows agrees with byte order of
/// the rows wherever the windows differ; equal windows decide nothing
/// (rows that differ later, or `"a"` against `"a\0"`).
fn window(row: &[u8], skip: usize) -> u64 {
    let tail = row.get(skip..).unwrap_or(&[]);
    let mut buf = [0u8; WINDOW_BYTES];
    let n = tail.len().min(WINDOW_BYTES);
    buf[..n].copy_from_slice(&tail[..n]);
    u64::from_be_bytes(buf)
}

/// Most row bytes the search index keeps as its shared prefix. Rows that
/// share more simply tie on more windows.
const PREFIX_BYTES: usize = 16;

/// Segments of the search index's inline top level.
const SEGMENTS: usize = 16;

/// Fixed-stride search index over a sorted run of keys: a binary search
/// reads one dense `u64` array instead of chasing a pointer per probe, and
/// an inline top level of sampled windows narrows it to one segment first.
#[derive(Debug, Clone, Default)]
struct SearchIndex {
    /// The row prefix every indexed key shares (its first `prefix_len`
    /// bytes), kept inline.
    prefix: [u8; PREFIX_BYTES],
    prefix_len: u8,
    /// `top[j]` is the high half of the window of key
    /// [`SearchIndex::segment_start`]`(j)`, the first of segment `j`: a
    /// seek compares the probe with these 16 (one cache line's worth)
    /// before it reads one segment of `windows`. Half a window orders
    /// keys wherever it differs, like a whole one, and ties more often;
    /// the 64 bytes it saves per block were worth more than the ties cost.
    top: [u32; SEGMENTS],
    /// Per key, the [`window`] of its row past the shared prefix.
    windows: Box<[u64]>,
}

impl SearchIndex {
    /// Indexes `n` keys whose rows, ascending, are `row(0) .. row(n - 1)`.
    fn build<'a>(n: usize, row: impl Fn(usize) -> &'a [u8]) -> Self {
        if n == 0 {
            return SearchIndex::default();
        }
        // Sorted input: what the first and last row share, all rows share.
        let (first, last) = (row(0), row(n - 1));
        let prefix_len =
            first.iter().zip(last).take_while(|(a, b)| a == b).count().min(PREFIX_BYTES);
        let mut index = SearchIndex {
            prefix: [0; PREFIX_BYTES],
            prefix_len: prefix_len as u8,
            top: [0; SEGMENTS],
            windows: (0..n).map(|i| window(row(i), prefix_len)).collect(),
        };
        index.prefix[..prefix_len].copy_from_slice(&first[..prefix_len]);
        for j in 0..SEGMENTS {
            index.top[j] = (index.windows[index.segment_start(j)] >> 32) as u32;
        }
        index
    }

    /// First key of segment `j` ∈ `0..=SEGMENTS`; segment `SEGMENTS` starts
    /// at the end. With fewer keys than segments, segments repeat keys.
    fn segment_start(&self, j: usize) -> usize {
        j * self.windows.len() / SEGMENTS
    }

    /// How many leading keys sort before a probe whose row is `probe_row`.
    /// `before(i)` says whether key `i` sorts before the probe and is asked
    /// only about keys whose window ties with the probe's, so it may be as
    /// strict (`<`) or lax (`<=`) as the caller's bound needs.
    fn partition_point(&self, probe_row: &[u8], before: impl Fn(usize) -> bool) -> usize {
        let n = self.windows.len();
        if n == 0 {
            return 0;
        }
        // A probe without the shared prefix sorts before or after every
        // key; slice order puts a probe that is a proper prefix of the
        // prefix first, which is where it belongs.
        let prefix = &self.prefix[..self.prefix_len as usize];
        let head = &probe_row[..probe_row.len().min(prefix.len())];
        match head.cmp(prefix) {
            std::cmp::Ordering::Less => return 0,
            std::cmp::Ordering::Greater => return n,
            std::cmp::Ordering::Equal => {}
        }
        let probe = window(probe_row, prefix.len());
        // Segment starts whose sample is below the probe's sort before it,
        // those above it after; only a tie needs `before`, so the answer
        // lies past the last start below and at or before the first above.
        let high = (probe >> 32) as u32;
        let below = self.top.iter().filter(|&&w| w < high).count();
        let at_or_below = self.top.iter().filter(|&&w| w <= high).count();
        let mut lo = below.checked_sub(1).map_or(0, |j| self.segment_start(j) + 1);
        let mut hi = self.segment_start(at_or_below);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mid_before = match self.windows[mid].cmp(&probe) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => before(mid),
            };
            if mid_before {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Bytes a cell's key record adds to the arena beside its row and
/// qualifier: the two `u32` lengths and the `u64` timestamp.
const KEY_FRAMING: usize = 16;

/// The `N` bytes of `arena` at `at`.
fn le_bytes<const N: usize>(arena: &[u8], at: usize) -> [u8; N] {
    let mut bytes = [0; N];
    bytes.copy_from_slice(&arena[at..at + N]);
    bytes
}

/// The key whose record `row_len u32 | row | qual_len u32 | qual | ts u64`
/// starts at `off` in `arena`.
fn key_at(arena: &[u8], off: u32) -> KeyRef<'_> {
    let row = off as usize + 4;
    let qual_len_at = row + u32::from_le_bytes(le_bytes(arena, off as usize)) as usize;
    let qual = qual_len_at + 4;
    let ts_at = qual + u32::from_le_bytes(le_bytes(arena, qual_len_at)) as usize;
    KeyRef {
        row: &arena[row..qual_len_at],
        qualifier: &arena[qual..ts_at],
        ts: Timestamp(u64::from_le_bytes(le_bytes(arena, ts_at))),
    }
}

/// One block of sorted cell versions (layout: see the module docs).
#[derive(Debug, Clone)]
pub struct Block {
    /// Every cell's key record, back to back (see [`key_at`]).
    keys: Box<[u8]>,
    /// Arena offset of each cell's key record.
    offsets: Box<[u32]>,
    /// Value handles; `None` is a tombstone. Shared with whoever wrote the
    /// cell, so a block costs 16 bytes per value however large it is.
    values: Box<[Option<Bytes>]>,
    index: SearchIndex,
    byte_size: u64,
    /// Byte offset of this block within the file (corruption reporting).
    offset: u64,
    /// CRC-32C (Castagnoli — HBase's HFile checksum default, computed by
    /// x86-64's `crc32` instruction three chains at a time) over the
    /// stored bytes — the key arena, then each cell's value record (see
    /// [`Block::checksum`]) — computed at build time and re-verified
    /// whenever a point read takes the block from "disk" (a cache miss in
    /// [`HFile::get`]) and by the recovery scrub.
    crc: u32,
    /// Whether every live value is one handle (a load that stored one
    /// buffer under many rows). [`Block::checksum`] then has no scattered
    /// lines to gather, and skips the pass that would find that out.
    one_value_handle: bool,
}

impl Block {
    /// Seals `offsets.len()` cells (at least one) into a block.
    fn new(
        keys: &[u8],
        offsets: &[u32],
        values: Box<[Option<Bytes>]>,
        byte_size: u64,
        offset: u64,
    ) -> Self {
        let mut live = values.iter().flatten().map(|v| &**v as *const [u8]);
        let one_value_handle = live.next().is_none_or(|first| live.all(|v| std::ptr::eq(v, first)));
        let mut block = Block {
            keys: keys.into(),
            offsets: offsets.into(),
            values,
            index: SearchIndex::default(),
            byte_size,
            offset,
            crc: 0,
            one_value_handle,
        };
        block.index = SearchIndex::build(block.len(), |i| block.row(i));
        block.crc = block.checksum();
        block
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Blocks are sealed with at least one cell, so never.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The sort key of the first cell.
    pub fn first_key(&self) -> KeyRef<'_> {
        self.key(0)
    }

    /// The sort key of cell `i`, parsed from its record in the arena.
    pub fn key(&self, i: usize) -> KeyRef<'_> {
        key_at(&self.keys, self.offsets[i])
    }

    fn row(&self, i: usize) -> &[u8] {
        self.key(i).row
    }

    /// Index of the first cell whose key is at or after `probe`
    /// (`self.len()` when every cell sorts before it).
    fn lower_bound(&self, probe: KeyRef<'_>) -> usize {
        self.index.partition_point(probe.row, |i| self.key(i) < probe)
    }

    /// Serialized size this block models.
    pub fn byte_size(&self) -> u64 {
        self.byte_size
    }

    /// Recomputes the block's checksum and compares with the stored one.
    pub fn verify(&self) -> bool {
        self.checksum() == self.crc
    }

    /// Checksum of the block's stored bytes, one CRC-32C stream in two
    /// parts. First the key arena, every cell's
    /// `row_len | row | qual_len | qual | ts` back to back, folded in place
    /// by the striped kernel with no copy. Then each cell's value record,
    /// `tag [| val_len | val]` (tag 0 = tombstone, 1 = value), the same
    /// framing idiom the WAL uses, so the two durability checks cannot drift
    /// apart. The value records are copied from the shared handles into a
    /// stack stage one stripe long, and the kernel folds each full stage.
    /// Tag and length go in as two pushes: built into one 5-byte array
    /// first, the stage's 4-byte load of that array missed store
    /// forwarding (traced `read-spill` verify ≈ 150 → 190 ns/KiB). This
    /// runs at every flush and compaction seal, on every block cache miss
    /// and in recovery's scrub.
    ///
    /// The value bytes live in their writers' allocations, scattered over
    /// the heap, and the staging copy consumes them in order: left to
    /// itself it stalls on one DRAM miss per value, ≈ 110 in series for a
    /// 16 KiB block. So [`Block::gather_values`] first loads every line of
    /// every value — independent loads, whose misses the core overlaps —
    /// and the stream the CRC hashes, unchanged, then reads from cache. A
    /// block sealed with one value handle skips the pass: walking its
    /// handles just to find them equal cost a cold miss ≈ 3 % on reads.
    fn checksum(&self) -> u32 {
        if !self.one_value_handle {
            std::hint::black_box(self.gather_values());
        }
        let mut keys = Crc32c::new();
        keys.update(&self.keys);
        let mut crc = StagedCrc32c::new(keys);
        for value in &self.values {
            match value {
                None => crc.push(&[0]),
                Some(v) => {
                    crc.push(&[1]);
                    crc.push(&(v.len() as u32).to_le_bytes());
                    crc.push(v);
                }
            }
        }
        crc.finish()
    }

    /// Reads one byte of each 64-byte line of every value, and its last
    /// byte (a value need not start on a line), so the lines are in cache
    /// before [`Block::checksum`] walks them. No load depends on another,
    /// so their misses overlap. A value whose handle is the previous
    /// value's is skipped: its lines were just read. The fold only keeps
    /// the loads alive; its result means nothing.
    fn gather_values(&self) -> u8 {
        const LINE: usize = 64;
        let mut prev: *const [u8] = &[];
        let mut acc = 0u8;
        for value in self.values.iter().flatten() {
            let bytes: &[u8] = value;
            if std::ptr::eq(bytes, prev) {
                continue;
            }
            prev = bytes;
            acc = bytes.iter().step_by(LINE).fold(acc, |acc, &b| acc ^ b);
            acc ^= bytes.last().copied().unwrap_or(0);
        }
        acc
    }
}

/// An immutable sorted run of cell versions.
#[derive(Debug, Clone)]
pub struct HFile {
    id: FileId,
    blocks: Vec<Block>,
    /// [`SearchIndex`] over the blocks' first keys.
    index: SearchIndex,
    bloom: BloomFilter,
    total_bytes: u64,
    entry_count: u64,
    first_row: Option<RowKey>,
    last_row: Option<RowKey>,
    max_ts: u64,
}

/// Streaming writer of one [`HFile`]: keys are pushed by reference in
/// `InternalKey` order, framed once into the open block's arena, and
/// sealed into checksummed blocks as each fills — so a producer that
/// generates its cells one at a time (a flush walking its memstores, a
/// compaction's merge) never builds an owned key or holds a second copy
/// of the output beside the blocks.
pub(crate) struct HFileBuilder {
    id: FileId,
    block_size: u64,
    /// Sized for the entry count passed to `new`, an upper bound.
    bloom: BloomFilter,
    blocks: Vec<Block>,
    /// The open block. `keys` and `offsets` are copied out at their exact
    /// size on seal and reused, so they grow once per file.
    keys: Vec<u8>,
    offsets: Vec<u32>,
    values: Vec<Option<Bytes>>,
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
            bloom: BloomFilter::with_capacity(expected_entries),
            blocks: Vec::new(),
            keys: Vec::new(),
            offsets: Vec::new(),
            values: Vec::new(),
            cur_bytes: 0,
            total_bytes: 0,
            entry_count: 0,
            max_ts: 0,
        }
    }

    /// Appends the next cell. Cells must arrive in `InternalKey` order
    /// (checked by a debug assertion).
    ///
    /// # Panics
    ///
    /// Panics if one block's keys exceed 4 GiB (arena offsets are 32-bit).
    pub(crate) fn push(&mut self, key: KeyRef<'_>, value: Option<Bytes>) {
        debug_assert!(self.last_key().is_none_or(|prev| prev <= key), "HFile input must be sorted");
        let value_len = value.as_ref().map_or(0, |v| v.len());
        let sz = cell_heap_size(key.row.len(), key.qualifier.len(), value_len) as u64;
        if !self.offsets.is_empty() && self.cur_bytes + sz > self.block_size {
            self.seal();
        }
        let arena_end = self.keys.len() + KEY_FRAMING + key.row.len() + key.qualifier.len();
        assert!(u32::try_from(arena_end).is_ok(), "block key arena exceeds 32-bit offsets");
        self.bloom.insert(key.row);
        self.max_ts = self.max_ts.max(key.ts.0);
        self.cur_bytes += sz;
        self.total_bytes += sz;
        self.entry_count += 1;
        self.offsets.push(self.keys.len() as u32);
        self.keys.extend_from_slice(&(key.row.len() as u32).to_le_bytes());
        self.keys.extend_from_slice(key.row);
        self.keys.extend_from_slice(&(key.qualifier.len() as u32).to_le_bytes());
        self.keys.extend_from_slice(key.qualifier);
        self.keys.extend_from_slice(&key.ts.0.to_le_bytes());
        self.values.push(value);
    }

    /// The last key pushed, wherever it sits by now.
    fn last_key(&self) -> Option<KeyRef<'_>> {
        let open = self.offsets.last().map(|&off| key_at(&self.keys, off));
        open.or_else(|| self.blocks.last().map(|b| b.key(b.len() - 1)))
    }

    fn seal(&mut self) {
        self.blocks.push(Block::new(
            &self.keys,
            &self.offsets,
            self.values.drain(..).collect(),
            self.cur_bytes,
            self.total_bytes - self.cur_bytes,
        ));
        self.keys.clear();
        self.offsets.clear();
        self.cur_bytes = 0;
    }

    /// Seals the last block and returns the finished file.
    pub(crate) fn finish(mut self) -> HFile {
        if !self.offsets.is_empty() {
            self.seal();
        }
        if !self.bloom.sized_for(self.entry_count as usize) {
            // The estimate was only an upper bound (a merge dropped
            // versions) and the cells written want fewer bits: re-size, so
            // a file's Bloom answers depend on its contents alone. Bit
            // positions depend only on the size, so otherwise keep it.
            self.bloom = BloomFilter::with_capacity(self.entry_count as usize);
            for block in &self.blocks {
                for i in 0..block.len() {
                    self.bloom.insert(block.row(i));
                }
            }
        }
        HFile {
            id: self.id,
            first_row: self.blocks.first().map(|b| b.row(0).into()),
            last_row: self.blocks.last().map(|b| b.row(b.len() - 1).into()),
            index: SearchIndex::build(self.blocks.len(), |b| self.blocks[b].row(0)),
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
            builder.push(cell.key.as_key_ref(), cell.value);
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

    /// Row of the first cell of block `index`, straight from the block
    /// index (no cache traffic) — the split-point heuristic reads the
    /// middle block's.
    pub fn block_first_row(&self, index: usize) -> Option<&[u8]> {
        self.blocks.get(index).map(|b| b.row(0))
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
    /// the only honest option while values are shared immutably). Returns
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
    /// first key is ≤ `key`; `None` when `key` precedes the whole file.
    fn block_for(&self, key: KeyRef<'_>) -> Option<usize> {
        self.index.partition_point(key.row, |b| self.blocks[b].first_key() <= key).checked_sub(1)
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
        self.get_hashed(row, qualifier, row_hash(row.as_bytes()), cache)
    }

    /// [`HFile::get`] for a caller that has already computed the row's
    /// [`row_hash`], as a point get does once for every file it probes.
    pub(crate) fn get_hashed(
        &self,
        row: &RowKey,
        qualifier: &Qualifier,
        hash: u64,
        cache: &SharedBlockCache,
    ) -> crate::error::Result<(Option<Option<Bytes>>, bool, Option<Access>)> {
        if !self.bloom.may_contain_hash(hash) {
            return Ok((None, true, None));
        }
        // Newest version of the coordinate has the smallest InternalKey.
        let probe = KeyRef {
            row: row.as_bytes(),
            qualifier: qualifier.as_bytes(),
            ts: Timestamp(u64::MAX),
        };
        // A probe preceding the whole file still seeks into block 0: the
        // coordinate's versions all sort at or after the probe.
        let bi = self.block_for(probe).unwrap_or(0);
        // The coordinate's versions may begin in block `bi` or spill into
        // `bi + 1` if the probe lands exactly between blocks.
        for idx in [bi, bi + 1] {
            let Some(block) = self.blocks.get(idx) else { continue };
            if idx > bi && block.first_key().coord() > probe.coord() {
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
            let pos = block.lower_bound(probe);
            if pos < block.len() {
                // Versions could start at the next block boundary only if
                // the probe ran off the end of this one.
                let found = block.key(pos).coord() == probe.coord();
                return Ok((found.then(|| block.values[pos].clone()), false, Some(access)));
            }
        }
        Ok((None, false, None))
    }

    /// An iterator over cells whose row lies within `range`, touching the
    /// block cache as blocks are entered.
    pub fn range_scan<'a>(
        &'a self,
        range: &'a KeyRange,
        cache: &'a SharedBlockCache,
    ) -> HFileScanIter<'a> {
        self.range_scan_counted(range, cache, None)
    }

    /// [`HFile::range_scan`] that additionally records every cache access
    /// into `counter`, so the caller can attribute block reads to this
    /// specific scan rather than diffing the shared cache's global stats.
    pub fn range_scan_counted<'a>(
        &'a self,
        range: &'a KeyRange,
        cache: &'a SharedBlockCache,
        counter: Option<&'a AccessCounter>,
    ) -> HFileScanIter<'a> {
        let seek = range.start.as_ref().map(|r| KeyRef::row_start(r.as_bytes()));
        let landing =
            seek.and_then(|k| self.block_for(k).map(|bi| (bi, self.blocks[bi].lower_bound(k))));
        let (block_idx, cell_idx) = match landing {
            // The seek key sorts past the block's last cell.
            Some((bi, pos)) if pos == self.blocks[bi].len() => (bi + 1, 0),
            Some(at) => at,
            None => (0, 0),
        };
        let end = range.end.as_ref().map(|r| KeyRef::row_start(r.as_bytes()));
        HFileScanIter {
            file: self,
            cache,
            end,
            // Every block before the one the end bound falls in lies wholly
            // inside the range.
            end_block: end.map_or(usize::MAX, |k| self.block_for(k).unwrap_or(0)),
            block_idx,
            cell_idx,
            limit: None,
            counter,
        }
    }
}

/// Streaming iterator over an [`HFile`] range, yielding each cell as a
/// borrowed key (a view into its block's arena) and its value handle. The
/// end bound is resolved once per block entered — a block index lookup up
/// front says which blocks lie wholly inside the range — never per cell.
///
/// Unlike [`HFile::get`], entering a block here never verifies its
/// checksum, hit or miss: range scans — and compaction, which reads its
/// inputs through this iterator — trust the blocks they walk. Damage is
/// caught by a cold point read or by recovery's scrub, not by a scan.
pub struct HFileScanIter<'a> {
    file: &'a HFile,
    cache: &'a SharedBlockCache,
    /// Seek key of the exclusive end row, if the range has one.
    end: Option<KeyRef<'a>>,
    /// First block that may hold a row at or past `end`.
    end_block: usize,
    block_idx: usize,
    cell_idx: usize,
    /// Cells of block `block_idx` that lie inside the range; `None` until
    /// the block is entered (touched in the cache).
    limit: Option<usize>,
    counter: Option<&'a AccessCounter>,
}

impl<'a> Iterator for HFileScanIter<'a> {
    type Item = (KeyRef<'a>, &'a Option<Bytes>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let block = self.file.blocks.get(self.block_idx)?;
            let limit = match self.limit {
                Some(limit) => limit,
                None => {
                    let access = self.cache.touch(
                        BlockId { file: self.file.id, index: self.block_idx as u32 },
                        block.byte_size,
                    );
                    if let Some(counter) = self.counter {
                        counter.record(access);
                    }
                    *self.limit.insert(match self.end {
                        Some(end) if self.block_idx >= self.end_block => block.lower_bound(end),
                        _ => block.len(),
                    })
                }
            };
            if self.cell_idx < limit {
                let item = (block.key(self.cell_idx), &block.values[self.cell_idx]);
                self.cell_idx += 1;
                return Some(item);
            }
            if limit < block.len() {
                return None; // the range ends inside this block
            }
            self.block_idx += 1;
            self.cell_idx = 0;
            self.limit = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::InternalKey;
    use proptest::prelude::*;

    /// The representation blocks had before the arena layout — one owned
    /// `CellVersion` per cell, searched with `partition_point` over the
    /// structs — kept as the reference the layout must be indistinguishable
    /// from: same block boundaries, sizes, offsets and CRC values (the
    /// oracle writes the stream out from its cells, never from an arena),
    /// same Bloom filter, same answer and same cache traffic for every read.
    mod oracle {
        use super::*;

        pub struct RefBlock {
            pub cells: Vec<CellVersion>,
            pub byte_size: u64,
            pub offset: u64,
            pub crc: u32,
        }

        pub struct RefFile {
            pub id: FileId,
            pub blocks: Vec<RefBlock>,
            pub bloom: BloomFilter,
            pub total_bytes: u64,
        }

        /// The block CRC written out from the cells, field by field: every
        /// cell's key record, then every cell's value record.
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
            }
            for c in cells {
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

        impl RefFile {
            pub fn build(id: FileId, cells: &[CellVersion], block_size: u64) -> Self {
                let mut bloom = BloomFilter::with_capacity(cells.len());
                let mut blocks: Vec<RefBlock> = Vec::new();
                let mut cur: Vec<CellVersion> = Vec::new();
                let (mut cur_bytes, mut total_bytes) = (0u64, 0u64);
                let mut seal = |cur: &mut Vec<CellVersion>, cur_bytes: &mut u64, total: u64| {
                    blocks.push(RefBlock {
                        byte_size: *cur_bytes,
                        offset: total - *cur_bytes,
                        crc: checksum_cells(cur),
                        cells: std::mem::take(cur),
                    });
                    *cur_bytes = 0;
                };
                for cell in cells {
                    // Spelled out, not `heap_size()`: the accounting is part
                    // of what the oracle pins.
                    let (coord, value) = (&cell.key.coord, cell.value.as_ref());
                    let sz = (coord.row.len() + coord.qualifier.len() + 8) as u64
                        + value.map_or(0, |v| v.len()) as u64
                        + 16;
                    if !cur.is_empty() && cur_bytes + sz > block_size {
                        seal(&mut cur, &mut cur_bytes, total_bytes);
                    }
                    bloom.insert(cell.key.coord.row.as_bytes());
                    cur_bytes += sz;
                    total_bytes += sz;
                    cur.push(cell.clone());
                }
                if !cur.is_empty() {
                    seal(&mut cur, &mut cur_bytes, total_bytes);
                }
                RefFile { id, blocks, bloom, total_bytes }
            }

            pub fn block_for(&self, key: &InternalKey) -> Option<usize> {
                match self.blocks.binary_search_by(|b| b.cells[0].key.cmp(key)) {
                    Ok(i) => Some(i),
                    Err(0) => None,
                    Err(i) => Some(i - 1),
                }
            }

            pub fn get(
                &self,
                row: &RowKey,
                qualifier: &Qualifier,
                cache: &SharedBlockCache,
            ) -> (Option<Option<Bytes>>, bool, Option<Access>) {
                if !self.bloom.may_contain(row.as_bytes()) {
                    return (None, true, None);
                }
                let probe = InternalKey::new(row.clone(), qualifier.clone(), Timestamp(u64::MAX));
                let bi = self.block_for(&probe).unwrap_or(0);
                for idx in [bi, bi + 1] {
                    let Some(block) = self.blocks.get(idx) else { continue };
                    if idx > bi && block.cells[0].key.coord > probe.coord {
                        break;
                    }
                    let access =
                        cache.touch(BlockId { file: self.id, index: idx as u32 }, block.byte_size);
                    let pos = block.cells.partition_point(|c| c.key < probe);
                    if let Some(cell) = block.cells.get(pos) {
                        if cell.key.coord == probe.coord {
                            return (Some(cell.value.clone()), false, Some(access));
                        }
                    }
                    if pos < block.cells.len() {
                        return (None, false, Some(access));
                    }
                }
                (None, false, None)
            }

            /// Cells whose row lies in `range`, touching `cache` once per
            /// block entered.
            pub fn range_scan(
                &self,
                range: &KeyRange,
                cache: &SharedBlockCache,
            ) -> Vec<CellVersion> {
                let start_key = range.start.as_ref().map(|r| InternalKey::row_start(r.clone()));
                let (mut block_idx, mut cell_idx) = match &start_key {
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
                let mut out = Vec::new();
                while let Some(block) = self.blocks.get(block_idx) {
                    cache
                        .touch(BlockId { file: self.id, index: block_idx as u32 }, block.byte_size);
                    for cell in &block.cells[cell_idx..] {
                        if range.end.as_ref().is_some_and(|end| &cell.key.coord.row >= end) {
                            return out;
                        }
                        out.push(cell.clone());
                    }
                    block_idx += 1;
                    cell_idx = 0;
                }
                out
            }
        }
    }

    fn owned_cell(key: KeyRef<'_>, value: &Option<Bytes>) -> CellVersion {
        CellVersion {
            key: InternalKey::new(key.row.into(), key.qualifier.into(), key.ts),
            value: value.clone(),
        }
    }

    /// A block's cells as owned values.
    fn cells_of(block: &Block) -> Vec<CellVersion> {
        (0..block.len()).map(|i| owned_cell(block.key(i), &block.values[i])).collect()
    }

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
            assert!(w[0].first_key() < w[1].first_key());
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
            f.range_scan(&range, &c).map(|(k, _)| String::from_utf8_lossy(k.row).into()).collect();
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
        let all = KeyRange::all();
        let _ = f.range_scan(&all, &c).count();
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

    /// Every stored byte is checked: a flip of any byte of the key arena
    /// (every cell's lengths, row, qualifier and timestamp), of any value
    /// byte or of the stored CRC is detected, and so is a cell's value
    /// turned into a tombstone or back, or a tombstone moved to the next
    /// cell. The block holds an empty row, an empty qualifier, tombstones,
    /// and a row and a value each longer than a stage, so the arena spans
    /// stripes and a value record crosses stage boundaries.
    #[test]
    fn any_damaged_byte_of_a_stored_checksum_is_detected() {
        let long = "L".repeat(crate::wal::STAGE + 100);
        let mut cells: Vec<CellVersion> = (0..30)
            .map(|i| cell(&format!("row{i:02}"), "qual", i + 1, (i % 7 != 3).then_some("value")))
            .collect();
        cells.push(cell("", "q", 5, Some("empty row")));
        cells.push(cell("row05", "", 6, Some("empty qualifier")));
        cells.push(cell(&long, "q", 99, Some(&long)));
        let f = build_file(cells, 1 << 20);
        assert_eq!(f.block_count(), 1);
        let clean = &f.blocks[0];
        assert!(clean.verify());
        let detect = |what: &str, change: &dyn Fn(&mut Block)| {
            let mut block = clean.clone();
            change(&mut block);
            assert!(!block.verify(), "{what} went undetected");
        };

        for byte in 0..4 {
            for flip in [0x01u32, 0x80, 0xFF] {
                detect(&format!("crc byte {byte} ^ {flip:#x}"), &|b| b.crc ^= flip << (8 * byte));
            }
        }
        for at in 0..clean.keys.len() {
            detect(&format!("arena byte {at}"), &|b| b.keys[at] ^= 1);
        }
        for (i, value) in clean.values.iter().enumerate() {
            detect(&format!("cell {i}'s tag"), &|b| {
                b.values[i] = if value.is_some() { None } else { Some(Bytes::new()) }
            });
            if value.is_none() && i + 1 < clean.len() {
                detect(&format!("tombstone {i} moved on"), &|b| b.values.swap(i, i + 1));
            }
            let Some(v) = value else { continue };
            for at in 0..v.len() {
                let mut bytes = v.to_vec();
                bytes[at] ^= 1;
                let damaged = Some(Bytes::from(bytes));
                detect(&format!("cell {i}'s value byte {at}"), &|b| b.values[i] = damaged.clone());
            }
        }
        let mut f = f.clone();
        f.blocks[0].crc ^= 1;
        assert!(f.verify_checksums().is_err());
    }

    /// One set of cells checksums the same however its value handles are
    /// shared — one handle per distinct value, a fresh allocation per cell,
    /// or runs of each in turn — and a flipped byte anywhere in a value is
    /// caught in every one of those layouts. Skipping a repeated handle is
    /// the gather pass's business; the hashed stream must not do it. A set
    /// with one live value, sealed under one handle, skips the gather.
    #[test]
    fn checksum_does_not_depend_on_how_values_are_shared() {
        let value = |n: usize| Some((0..n).map(|i| (n + i) as u8).collect::<Vec<u8>>());
        // A tombstone, an empty value, and lengths on both sides of one
        // cache line.
        let mixed = vec![None, value(0), value(1), value(63), value(64), value(65), value(200)];
        for (contents, one_handle) in [(mixed, false), (vec![value(200), None], true)] {
            // Consecutive cells carrying each distinct value.
            const RUN: usize = 3;
            let handles: Vec<Option<Bytes>> =
                contents.iter().map(|c| c.as_deref().map(Bytes::copy_from_slice)).collect();
            let build = |shared: &dyn Fn(usize) -> bool| {
                let cells: Vec<CellVersion> = (0..contents.len() * RUN)
                    .map(|i| CellVersion {
                        key: InternalKey::new(
                            format!("row{i:03}").as_str().into(),
                            "q".into(),
                            Timestamp(1),
                        ),
                        value: if shared(i) {
                            handles[i / RUN].clone()
                        } else {
                            contents[i / RUN].as_deref().map(Bytes::copy_from_slice)
                        },
                    })
                    .collect();
                let want = oracle::RefFile::build(FileId(1), &cells, 1 << 20).blocks[0].crc;
                let f = build_file(cells, 1 << 20);
                assert_eq!(f.block_count(), 1);
                assert_eq!(f.blocks[0].crc, want, "the canonical stream's CRC");
                f.blocks[0].clone()
            };
            let blocks = [build(&|_| true), build(&|_| false), build(&|i| i / 2 % 2 == 0)];
            assert_eq!(blocks.each_ref().map(|b| b.one_value_handle), [one_handle, false, false]);
            for (layout, block) in blocks.iter().enumerate() {
                assert_eq!(block.crc, blocks[0].crc, "layout {layout}");
                assert!(block.verify(), "layout {layout}");
                for (i, value) in block.values.iter().enumerate() {
                    let Some(v) = value else { continue };
                    for at in 0..v.len() {
                        let mut bytes = v.to_vec();
                        bytes[at] ^= 1;
                        let mut damaged = block.clone();
                        damaged.values[i] = Some(Bytes::from(bytes));
                        assert!(!damaged.verify(), "layout {layout}, cell {i}, byte {at}");
                    }
                }
            }
        }
    }

    /// Everything observable about two files is equal.
    fn assert_same_file(got: &HFile, want: &HFile) {
        assert_eq!(got.block_count(), want.block_count());
        for (g, w) in got.blocks.iter().zip(&want.blocks) {
            assert_eq!(g.first_key(), w.first_key());
            assert_eq!((g.byte_size, g.offset, g.crc), (w.byte_size, w.offset, w.crc));
            assert_eq!(cells_of(g), cells_of(w));
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

    /// A builder keeps the Bloom filter it was sized with whenever the
    /// cells it actually received would size one the same, and re-sizes it
    /// otherwise; either way the file equals one built for its exact count.
    #[test]
    fn bloom_size_depends_only_on_the_cells_written() {
        // 102 cells want 1 020 → 1 024 bits; 103 want 1 030 → 2 048.
        let cases = [(102, 102), (103, 102), (1_000, 102), (102, 90), (103, 103), (200, 103)];
        for (estimate, actual) in cases {
            let cells: Vec<CellVersion> =
                (0..actual).map(|i| cell(&format!("row{i:03}"), "c", 1, Some("v"))).collect();
            let mut builder = HFileBuilder::new(FileId(9), 256, estimate);
            for c in &cells {
                builder.push(c.key.as_key_ref(), c.value.clone());
            }
            let got = builder.finish();
            assert_eq!(got.bloom.byte_size(), if actual > 102 { 256 } else { 128 });
            assert_same_file(&got, &HFile::build(FileId(9), cells, 256));
        }
    }

    #[test]
    fn streamed_compaction_output_equals_a_built_file() {
        use crate::memstore::MemStore;
        use crate::store::write_merged;
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

        // What a merge must write, computed the slow way: the newest
        // version of each coordinate, tombstones included unless major.
        let expected = |inputs: &[&[CellVersion]], major: bool| {
            let mut all: Vec<CellVersion> = inputs.concat();
            all.sort_by(|a, b| a.key.cmp(&b.key));
            all.dedup_by(|later, first| later.key.coord == first.key.coord);
            if major {
                all.retain(|c| c.value.is_some());
            }
            all
        };

        // Minor: shadowed versions dropped, tombstones kept — one cell per
        // row, so the inputs' entry count was only an upper bound.
        let streamed = write_merged(&[], &[f1.clone(), f2.clone()], FileId(9), 256, false);
        let want = expected(&[&base, &newer], false);
        assert_eq!(streamed.entry_count(), 300);
        assert!(streamed.block_count() > 1);
        assert_same_file(&streamed, &HFile::build(FileId(9), want.clone(), 256));

        // A flush of a memstore batch follows the same rule.
        let mem = |cells: &[CellVersion]| {
            let mut m = MemStore::new();
            for c in cells {
                m.insert(c.key.clone(), c.value.clone());
            }
            Arc::new(m)
        };
        let (m1, m2) = (mem(&base), mem(&newer));
        let flushed = write_merged(&[&m1, &m2], &[], FileId(9), 256, false);
        assert_same_file(&flushed, &HFile::build(FileId(9), want, 256));

        // Minor over a full wipe: the tombstones stay, masking f1 and f2's
        // cells for any file older than the run.
        let streamed =
            write_merged(&[], &[f1.clone(), f2.clone(), f3.clone()], FileId(9), 256, false);
        let want = expected(&[&base, &newer, &wipe], false);
        assert!(want.iter().all(|c| c.value.is_none()) && want.len() == 300);
        assert_same_file(&streamed, &HFile::build(FileId(9), want, 256));

        // Major: tombstones dropped too.
        let streamed = write_merged(&[], &[f1.clone(), f2.clone()], FileId(9), 256, true);
        let want = expected(&[&base, &newer], true);
        assert!(streamed.entry_count() < 300);
        assert!(streamed.block_count() > 1);
        assert_same_file(&streamed, &HFile::build(FileId(9), want, 256));

        // Major over a full wipe: nothing survives.
        let streamed = write_merged(&[], &[f1, f2, f3], FileId(9), 256, true);
        assert_eq!((streamed.block_count(), streamed.entry_count()), (0, 0));
        assert_eq!(streamed.first_row(), None);
        assert_same_file(&streamed, &HFile::build(FileId(9), vec![], 256));
    }

    /// Rows built to stress the search index and the arena's key records:
    /// stems that are prefixes of one another, that reach past the 8-byte
    /// window (so rows differing only in their tails tie on it) or past a
    /// whole checksum stripe, the empty row, and tails over an alphabet
    /// holding the two bytes zero-padding could confuse.
    fn tricky_row() -> impl Strategy<Value = Vec<u8>> {
        const STEMS: [&[u8]; 9] = [
            b"",
            b"\x00",
            b"a",
            b"a\x00",
            b"aaaaaaaa",
            b"aaaaaaaaa",
            b"aaaaaaaa\xff",
            &[b'a'; crate::wal::STAGE + 1],
            b"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff",
        ];
        (0usize..STEMS.len(), prop::collection::vec(0usize..3, 0..3)).prop_map(|(stem, tail)| {
            let mut row = STEMS[stem].to_vec();
            row.extend(tail.into_iter().map(|i| [0x00, b'a', 0xFF][i]));
            row
        })
    }

    fn tricky_qualifier() -> impl Strategy<Value = Vec<u8>> {
        (0usize..4).prop_map(|i| [&b""[..], b"q", b"q\x00", b"\xff"][i].to_vec())
    }

    /// Sorted cells over the tricky key space with distinct timestamps,
    /// the first two 0 and `u64::MAX`: a tombstone every fifth cell,
    /// values of varying length.
    fn tricky_cells() -> impl Strategy<Value = Vec<CellVersion>> {
        prop::collection::vec((tricky_row(), tricky_qualifier(), 0usize..24), 0..120).prop_map(
            |raw| {
                let mut cells: Vec<CellVersion> = raw
                    .into_iter()
                    .enumerate()
                    .map(|(i, (row, q, value_len))| CellVersion {
                        key: InternalKey::new(
                            RowKey::new(row),
                            Qualifier::new(q),
                            Timestamp(match i {
                                0 => 0,
                                1 => u64::MAX,
                                _ => i as u64,
                            }),
                        ),
                        value: (i % 5 != 4).then(|| Bytes::from(vec![i as u8; value_len])),
                    })
                    .collect();
                cells.sort_by(|a, b| a.key.cmp(&b.key));
                cells
            },
        )
    }

    /// Every coordinate the tricky strategies can produce a probe near.
    fn probes_for(cells: &[CellVersion]) -> Vec<(RowKey, Qualifier)> {
        let mut probes = Vec::new();
        for c in cells {
            let row = c.key.coord.row.as_bytes();
            // The row itself, the row cut short, and the row extended by
            // each byte the zero-padded window could mistake for padding.
            let mut rows = vec![row.to_vec(), row[..row.len() / 2].to_vec()];
            for b in [0x00, b'a', 0xFF] {
                rows.push([row, &[b]].concat());
            }
            for r in rows {
                for q in [&b""[..], b"q", b"q\x00", b"\xff", b"zz"] {
                    probes.push((RowKey::new(r.clone()), Qualifier::new(q.to_vec())));
                }
            }
        }
        probes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The two-level search lands where a linear walk does at every
        /// size around the top level's segment count — none, fewer keys
        /// than segments, one per segment, a few over — and at a block's
        /// and a file's typical sizes. Rows come from a small sorted pool,
        /// so runs of equal rows (and rows equal in their first 8 bytes
        /// past the prefix) straddle segment starts; a shared base longer
        /// than the 16 inline prefix bytes makes the prefix cap matter.
        #[test]
        fn search_index_matches_a_linear_walk_at_every_size(
            base in 0usize..3,
            tails in prop::collection::vec(prop::collection::vec(0usize..3, 0..12), 1..8),
            picks in prop::collection::vec(0usize..8, 737..738),
        ) {
            let base: &[u8] = [&b""[..], b"a", &[b'k'; 20]][base];
            let pool: Vec<Vec<u8>> = tails
                .iter()
                .map(|t| {
                    let tail: Vec<u8> = t.iter().map(|&i| [0x00, b'a', 0xFF][i]).collect();
                    [base, &tail].concat()
                })
                .collect();
            let mut probes = vec![vec![], vec![0xFF; 30], base.to_vec()];
            for row in &pool {
                probes.push(row[..row.len() / 2].to_vec());
                for b in [0x00, b'a', 0xFF] {
                    probes.push([row, &[b][..]].concat());
                }
                probes.push(row.clone());
            }
            for n in [0, 1, 15, 16, 17, 31, 32, 33, 113, 737] {
                let mut rows: Vec<&[u8]> =
                    picks[..n].iter().map(|&i| pool[i % pool.len()].as_slice()).collect();
                rows.sort();
                let index = SearchIndex::build(n, |i| rows[i]);
                for probe in &probes {
                    let probe = probe.as_slice();
                    let strict = index.partition_point(probe, |i| rows[i] < probe);
                    prop_assert_eq!(strict, rows.partition_point(|r| *r < probe), "n {} <", n);
                    let lax = index.partition_point(probe, |i| rows[i] <= probe);
                    prop_assert_eq!(lax, rows.partition_point(|r| *r <= probe), "n {} <=", n);
                }
            }
        }

        /// The windowed binary searches land where a linear walk over full
        /// keys does, in a block and over the file's block index.
        #[test]
        fn indexed_search_matches_a_linear_reference(
            cells in tricky_cells(),
            block_size in 40u64..400,
        ) {
            let f = HFile::build(FileId(1), cells.clone(), block_size);
            for (row, q) in probes_for(&cells) {
                for ts in [u64::MAX, 60, 0] {
                    let probe = KeyRef {
                        row: row.as_bytes(),
                        qualifier: q.as_bytes(),
                        ts: Timestamp(ts),
                    };
                    for block in &f.blocks {
                        let linear = (0..block.len())
                            .position(|i| block.key(i) >= probe)
                            .unwrap_or(block.len());
                        prop_assert_eq!(block.lower_bound(probe), linear, "probe {:?}", probe);
                    }
                    let linear = f.blocks.iter().rposition(|b| b.first_key() <= probe);
                    prop_assert_eq!(f.block_for(probe), linear, "probe {:?}", probe);
                }
            }
        }

        /// A built file is, block for block and read for read, the file
        /// the `Vec<CellVersion>` representation produced.
        #[test]
        fn built_file_equals_the_cell_vector_oracle(
            cells in tricky_cells(),
            block_size in 40u64..400,
        ) {
            let f = HFile::build(FileId(1), cells.clone(), block_size);
            let want = oracle::RefFile::build(FileId(1), &cells, block_size);

            prop_assert_eq!(f.block_count(), want.blocks.len());
            prop_assert_eq!(f.total_bytes(), want.total_bytes);
            prop_assert_eq!(f.entry_count(), cells.len() as u64);
            for (g, w) in f.blocks.iter().zip(&want.blocks) {
                prop_assert_eq!((g.byte_size, g.offset, g.crc), (w.byte_size, w.offset, w.crc));
                prop_assert_eq!(&cells_of(g), &w.cells);
            }
            f.verify_checksums().expect("a fresh file scrubs clean");

            // Point reads: same Bloom answer, same result, same block
            // traffic (each side starts from a cold cache of its own), and
            // the same again through the entry point that takes the hash.
            let (new_cache, ref_cache, hashed_cache) = (cache(), cache(), cache());
            for (row, q) in probes_for(&cells) {
                prop_assert_eq!(
                    f.bloom.may_contain(row.as_bytes()),
                    want.bloom.may_contain(row.as_bytes())
                );
                let got = f.get(&row, &q, &new_cache).expect("undamaged file");
                let hashed = f.get_hashed(&row, &q, row_hash(row.as_bytes()), &hashed_cache);
                prop_assert_eq!(&got, &hashed.expect("undamaged file"));
                prop_assert_eq!(got, want.get(&row, &q, &ref_cache), "get({:?}, {:?})", row, q);
            }
            prop_assert_eq!(new_cache.stats(), ref_cache.stats());
            prop_assert_eq!(hashed_cache.stats(), ref_cache.stats());

            // Range scans between every pair of stored rows, and open ones.
            let mut bounds: Vec<Option<RowKey>> = vec![None];
            bounds.extend(cells.iter().step_by(7).map(|c| Some(c.key.coord.row.clone())));
            for start in &bounds {
                for end in &bounds {
                    if matches!((start, end), (Some(s), Some(e)) if s >= e) {
                        continue;
                    }
                    let range = KeyRange::new(start.clone(), end.clone());
                    let (new_cache, ref_cache) = (cache(), cache());
                    let got: Vec<CellVersion> = f
                        .range_scan(&range, &new_cache)
                        .map(|(k, v)| owned_cell(k, v))
                        .collect();
                    prop_assert_eq!(&got, &want.range_scan(&range, &ref_cache), "{}", range);
                    prop_assert_eq!(new_cache.stats(), ref_cache.stats(), "blocks, {}", range);
                }
            }
        }
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
