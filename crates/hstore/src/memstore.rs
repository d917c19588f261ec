//! The in-memory write buffer of a column-family store.
//!
//! Writes land in the memstore (§2.1); when it reaches the configured flush
//! threshold its contents are frozen into an immutable sorted file. The
//! memstore keeps cells in `InternalKey` order with byte-accurate size
//! accounting of its cells, so the flush policy and MeT's memstore-fraction
//! knob have real effect. The accounting leaves out one constant: the 8 KiB
//! row filter every memstore carries, which lets a point get skip a memstore
//! that cannot hold its row (DESIGN.md, "Memstore row filter").

use crate::bloom::row_hash;
use crate::types::{cell_heap_size, CellVersion, InternalKey, KeyRange, RowKey};
use bytes::Bytes;
use std::collections::BTreeMap;

/// Bits in a memstore's row filter: 2^16, i.e. 8 KiB of `u64` words.
const FILTER_BITS: usize = 1 << 16;

/// A sorted in-memory buffer of cell versions awaiting flush.
#[derive(Debug, Clone)]
pub struct MemStore {
    cells: BTreeMap<InternalKey, Option<Bytes>>,
    heap_bytes: usize,
    /// Two bits per inserted row (see [`row_bits`]); a row with either bit
    /// clear has no cell here. Not counted in `heap_bytes`.
    row_filter: Box<[u64]>,
}

impl Default for MemStore {
    fn default() -> Self {
        MemStore {
            cells: BTreeMap::new(),
            heap_bytes: 0,
            row_filter: vec![0; FILTER_BITS / 64].into_boxed_slice(),
        }
    }
}

/// The row filter's two bit positions for a row whose [`row_hash`] is
/// `hash`: one from its low and one from its high half.
fn row_bits(hash: u64) -> [usize; 2] {
    [hash as usize % FILTER_BITS, (hash >> 32) as usize % FILTER_BITS]
}

impl MemStore {
    /// Creates an empty memstore.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// False when no cell of the row whose [`row_hash`] is `hash` can be in
    /// the memstore.
    fn may_hold_row(&self, hash: u64) -> bool {
        row_bits(hash).iter().all(|&b| self.row_filter[b / 64] & (1 << (b % 64)) != 0)
    }

    /// Inserts a cell version (a put, or a tombstone when `value` is
    /// `None`). Returns the net change in heap bytes.
    pub fn insert(&mut self, key: InternalKey, value: Option<Bytes>) -> isize {
        let (row_len, qual_len) = (key.coord.row.len(), key.coord.qualifier.len());
        let size = |value: &Option<Bytes>| {
            cell_heap_size(row_len, qual_len, value.as_ref().map_or(0, |v| v.len()))
        };
        for b in row_bits(row_hash(key.coord.row.as_bytes())) {
            self.row_filter[b / 64] |= 1 << (b % 64);
        }
        let added = size(&value);
        // An equal key (same coordinate and timestamp) is replaced, so only
        // the value's share of the old cell can differ.
        let removed = self.cells.insert(key, value).map_or(0, |old| size(&old));
        self.heap_bytes = self.heap_bytes + added - removed;
        added as isize - removed as isize
    }

    /// Newest visible version at `key`'s coordinate with timestamp ≤ any.
    ///
    /// Returns `Some(None)` for a tombstone (delete wins), `Some(Some(v))`
    /// for a live value, `None` when the memstore has no version at all for
    /// the coordinate.
    pub fn get_newest(
        &self,
        row: &RowKey,
        qualifier: &crate::types::Qualifier,
    ) -> Option<Option<Bytes>> {
        self.get_newest_hashed(row, qualifier, row_hash(row.as_bytes()))
    }

    /// [`MemStore::get_newest`] for a caller that has already computed the
    /// row's [`row_hash`], as a point get does once for every memstore and
    /// file it probes.
    pub(crate) fn get_newest_hashed(
        &self,
        row: &RowKey,
        qualifier: &crate::types::Qualifier,
        hash: u64,
    ) -> Option<Option<Bytes>> {
        if !self.may_hold_row(hash) {
            return None;
        }
        // The first entry ≥ (row, qualifier, MAX ts) within the coordinate is
        // the newest version, because timestamps sort descending.
        let probe =
            InternalKey::new(row.clone(), qualifier.clone(), crate::types::Timestamp(u64::MAX));
        self.cells
            .range(probe..)
            .next()
            .filter(|(k, _)| k.coord.row == *row && k.coord.qualifier == *qualifier)
            .map(|(_, v)| v.clone())
    }

    /// Iterates all versions whose row falls inside `range`, in key order.
    ///
    /// Returns a concrete cursor streaming straight off the underlying
    /// `BTreeMap` — the read-path merge consumes it without materializing a
    /// snapshot. The end bound is borrowed from `range`.
    pub fn range_iter<'a>(&'a self, range: &'a KeyRange) -> MemRangeIter<'a> {
        let iter = match &range.start {
            Some(r) => self.cells.range(InternalKey::row_start(r.clone())..),
            None => self.cells.range(..),
        };
        MemRangeIter { iter, end: range.end.as_ref(), done: false }
    }

    /// The row of the middle cell version, if any (a split-point fallback).
    pub fn median_row(&self) -> Option<&RowKey> {
        self.cells.keys().nth(self.cells.len() / 2).map(|k| &k.coord.row)
    }

    /// Current heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.heap_bytes
    }

    /// Number of buffered cell versions.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Owned copy of the contents in key order (tests and tooling; flushes
    /// stream the memstore by reference through [`MemStore::range_iter`]).
    pub fn snapshot_sorted(&self) -> Vec<CellVersion> {
        self.cells
            .iter()
            .map(|(key, value)| CellVersion { key: key.clone(), value: value.clone() })
            .collect()
    }
}

/// Streaming iterator over a memstore row range, in `InternalKey` order.
///
/// Named (rather than `impl Iterator`) so the store's merge cursor can hold
/// one directly in its `enum Source` without boxing.
#[derive(Debug)]
pub struct MemRangeIter<'a> {
    iter: std::collections::btree_map::Range<'a, InternalKey, Option<Bytes>>,
    end: Option<&'a RowKey>,
    done: bool,
}

impl<'a> Iterator for MemRangeIter<'a> {
    type Item = (&'a InternalKey, &'a Option<Bytes>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.iter.next() {
            Some((k, v)) if self.end.is_none_or(|e| &k.coord.row < e) => Some((k, v)),
            _ => {
                self.done = true;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Qualifier, Timestamp};

    fn key(row: &str, q: &str, ts: u64) -> InternalKey {
        InternalKey::new(row.into(), q.into(), Timestamp(ts))
    }

    fn val(s: &str) -> Option<Bytes> {
        Some(Bytes::copy_from_slice(s.as_bytes()))
    }

    #[test]
    fn newest_version_wins() {
        let mut m = MemStore::new();
        m.insert(key("r", "c", 1), val("old"));
        m.insert(key("r", "c", 9), val("new"));
        m.insert(key("r", "c", 5), val("mid"));
        let got = m.get_newest(&"r".into(), &Qualifier::from("c")).unwrap();
        assert_eq!(got, val("new"));
    }

    #[test]
    fn tombstone_is_visible() {
        let mut m = MemStore::new();
        m.insert(key("r", "c", 1), val("x"));
        m.insert(key("r", "c", 2), None);
        assert_eq!(m.get_newest(&"r".into(), &Qualifier::from("c")), Some(None));
    }

    #[test]
    fn missing_coordinate_is_distinct_from_tombstone() {
        let mut m = MemStore::new();
        m.insert(key("r", "c", 1), val("x"));
        assert_eq!(m.get_newest(&"r".into(), &Qualifier::from("other")), None);
        assert_eq!(m.get_newest(&"zz".into(), &Qualifier::from("c")), None);
    }

    #[test]
    fn size_accounting_tracks_inserts_and_overwrites() {
        let mut m = MemStore::new();
        assert_eq!(m.heap_bytes(), 0);
        m.insert(key("row1", "col", 1), val("0123456789"));
        let sz1 = m.heap_bytes();
        assert!(sz1 > 10);
        // Same exact version key replaces, not accumulates — and the
        // returned delta is the difference in value bytes alone.
        assert_eq!(m.insert(key("row1", "col", 1), val("0123456789")), 0);
        assert_eq!(m.heap_bytes(), sz1);
        assert_eq!(m.insert(key("row1", "col", 1), val("0123456789abc")), 3);
        assert_eq!(m.insert(key("row1", "col", 1), None), -13);
        assert_eq!(m.insert(key("row1", "col", 1), val("0123456789")), 10);
        assert_eq!(m.heap_bytes(), sz1);
        // Different timestamp is a new version.
        m.insert(key("row1", "col", 2), val("0123456789"));
        assert!(m.heap_bytes() > sz1);
    }

    #[test]
    fn snapshot_preserves_contents() {
        let mut m = MemStore::new();
        m.insert(key("a", "c", 1), val("1"));
        m.insert(key("b", "c", 2), val("2"));
        let snap = m.snapshot_sorted();
        assert_eq!(snap.len(), 2);
        assert_eq!(m.len(), 2, "snapshot must not drain");
        assert!(snap.windows(2).all(|w| w[0].key <= w[1].key));
    }

    /// Inserts the benchmark-shaped rows `user` + ten digits (all sharing
    /// their first eight bytes) at even indices below `2 * rows`, then
    /// reports the share of 100 000 odd, never-inserted rows the filter admits.
    fn false_positive_rate(rows: u64) -> f64 {
        let row = |i: u64| RowKey::from(format!("user{i:010}"));
        let mut m = MemStore::new();
        for i in 0..rows {
            m.insert(InternalKey::new(row(2 * i), "c".into(), Timestamp(1)), val("v"));
        }
        let absent = 100_000;
        let admitted =
            (0..absent).filter(|i| m.may_hold_row(row_hash(row(2 * i + 1).as_bytes()))).count();
        admitted as f64 / absent as f64
    }

    #[test]
    fn row_filter_skips_almost_every_absent_row() {
        // 2 500 rows set ≤ 5 000 of 65 536 bits: (1 − e^(−5000/65536))² ≈ 0.5 %.
        let rate = false_positive_rate(2_500);
        assert!(rate < 0.01, "false-positive rate {rate}");
        // A full `durable-rw` memstore (≈ 10 k rows) expects ≈ 6.9 %.
        let rate = false_positive_rate(10_000);
        assert!((0.04..0.10).contains(&rate), "false-positive rate {rate}");
    }

    #[test]
    fn range_iter_respects_bounds() {
        let mut m = MemStore::new();
        for r in ["a", "b", "c", "d"] {
            m.insert(key(r, "c", 1), val(r));
        }
        let range = KeyRange::new(Some("b".into()), Some("d".into()));
        let rows: Vec<String> =
            m.range_iter(&range).map(|(k, _)| k.coord.row.to_string()).collect();
        assert_eq!(rows, vec!["b", "c"]);
    }
}
