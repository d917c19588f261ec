//! The HBase data model: rows, column families, qualifiers, timestamps.
//!
//! An HTable is a multi-dimensional sorted map indexed by row key, column
//! name and timestamp (§2.1 of the paper). Cells sort by
//! `(row, family, qualifier, timestamp DESC)` so the newest version of a
//! cell is encountered first — the canonical HBase `KeyValue` order.

use bytes::Bytes;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;

/// A row key; rows order lexicographically by raw bytes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowKey(pub Bytes);

impl RowKey {
    /// Builds a row key from anything byte-like.
    pub fn new(bytes: impl Into<Bytes>) -> Self {
        RowKey(bytes.into())
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Byte length of the key.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty key.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<&[u8]> for RowKey {
    fn from(bytes: &[u8]) -> Self {
        RowKey(Bytes::copy_from_slice(bytes))
    }
}

impl From<&str> for RowKey {
    fn from(s: &str) -> Self {
        s.as_bytes().into()
    }
}

impl From<String> for RowKey {
    fn from(s: String) -> Self {
        RowKey(Bytes::from(s.into_bytes()))
    }
}

impl fmt::Display for RowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(&self.0) {
            Ok(s) => write!(f, "{s}"),
            Err(_) => write!(f, "0x{}", hex(&self.0)),
        }
    }
}

fn hex(b: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(2 * b.len());
    for x in b {
        out.push(DIGITS[(x >> 4) as usize] as char);
        out.push(DIGITS[(x & 0xf) as usize] as char);
    }
    out
}

/// A column family name. Families are declared at table creation.
///
/// Backed by [`Bytes`] like every other key type, so cloning one into an
/// error, a schema map or a region route is a refcount bump, not a heap
/// copy. Ordering is unchanged from the old `String` representation: Rust
/// compares `String`s by their UTF-8 bytes, so `BTreeMap<Family, _>`
/// iteration order is byte-identical.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Family(pub Bytes);

impl Family {
    /// Builds a family from anything byte-like.
    pub fn new(name: impl Into<Bytes>) -> Self {
        Family(name.into())
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl From<&str> for Family {
    fn from(s: &str) -> Self {
        Family(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl From<String> for Family {
    fn from(s: String) -> Self {
        Family(Bytes::from(s.into_bytes()))
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(&self.0) {
            Ok(s) => write!(f, "{s}"),
            Err(_) => write!(f, "0x{}", hex(&self.0)),
        }
    }
}

/// A column qualifier within a family; created dynamically (§2.1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Qualifier(pub Bytes);

impl Qualifier {
    /// Builds a qualifier from anything byte-like.
    pub fn new(bytes: impl Into<Bytes>) -> Self {
        Qualifier(bytes.into())
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Byte length of the qualifier.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty qualifier.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<&[u8]> for Qualifier {
    fn from(bytes: &[u8]) -> Self {
        Qualifier(Bytes::copy_from_slice(bytes))
    }
}

impl From<&str> for Qualifier {
    fn from(s: &str) -> Self {
        s.as_bytes().into()
    }
}

impl fmt::Display for Qualifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(&self.0) {
            Ok(s) => write!(f, "{s}"),
            Err(_) => write!(f, "0x{}", hex(&self.0)),
        }
    }
}

/// A logical write timestamp (version). Larger is newer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

/// The `(row, qualifier)` coordinate of a cell within one column family.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellCoord {
    /// Row key.
    pub row: RowKey,
    /// Column qualifier.
    pub qualifier: Qualifier,
}

/// The full internal sort key of a stored cell version.
///
/// Orders by `(row ASC, qualifier ASC, timestamp DESC)` so that within a
/// coordinate the newest version sorts first, matching HBase's KeyValue
/// comparator (family ordering is handled one level up — each family has its
/// own store).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InternalKey {
    /// Cell coordinate.
    pub coord: CellCoord,
    /// Version timestamp.
    pub ts: Timestamp,
}

impl InternalKey {
    /// Builds an internal key.
    pub fn new(row: RowKey, qualifier: Qualifier, ts: Timestamp) -> Self {
        InternalKey { coord: CellCoord { row, qualifier }, ts }
    }

    /// The smallest key at or after every version of `row` — a scan seek
    /// target.
    pub fn row_start(row: RowKey) -> Self {
        InternalKey::new(row, Qualifier::new(Bytes::new()), Timestamp(u64::MAX))
    }

    /// Approximate heap footprint in bytes, used for memstore accounting.
    pub fn heap_size(&self) -> usize {
        self.coord.row.len() + self.coord.qualifier.len() + 8
    }

    /// The borrowed view of this key.
    pub fn as_key_ref(&self) -> KeyRef<'_> {
        KeyRef {
            row: self.coord.row.as_bytes(),
            qualifier: self.coord.qualifier.as_bytes(),
            ts: self.ts,
        }
    }
}

impl Ord for InternalKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.coord
            .row
            .cmp(&other.coord.row)
            .then_with(|| self.coord.qualifier.cmp(&other.coord.qualifier))
            // Newest (largest timestamp) first.
            .then_with(|| other.ts.cmp(&self.ts))
    }
}

impl PartialOrd for InternalKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A borrowed [`InternalKey`]: what the read path hands around instead of
/// owned keys. An HFile block yields views into its key arena, a memstore
/// views of its map keys; an owned `RowKey`/`Qualifier` is built only for
/// what escapes into a result. Orders exactly like [`InternalKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRef<'a> {
    /// Row key bytes.
    pub row: &'a [u8],
    /// Column qualifier bytes.
    pub qualifier: &'a [u8],
    /// Version timestamp.
    pub ts: Timestamp,
}

impl<'a> KeyRef<'a> {
    /// The smallest key at or after every version of `row` (the borrowed
    /// [`InternalKey::row_start`]).
    pub fn row_start(row: &'a [u8]) -> Self {
        KeyRef { row, qualifier: &[], ts: Timestamp(u64::MAX) }
    }

    /// The `(row, qualifier)` coordinate, ordered like [`CellCoord`].
    pub fn coord(&self) -> (&'a [u8], &'a [u8]) {
        (self.row, self.qualifier)
    }
}

impl Ord for KeyRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.row
            .cmp(other.row)
            .then_with(|| self.qualifier.cmp(other.qualifier))
            // Newest (largest timestamp) first.
            .then_with(|| other.ts.cmp(&self.ts))
    }
}

impl PartialOrd for KeyRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Bytes one stored cell version accounts for — key bytes, the 8-byte
/// timestamp, the value and 16 bytes of per-cell overhead. Memstore heap
/// accounting and HFile block boundaries both count cells with this, so a
/// flush writes the bytes the memstore reported.
pub const fn cell_heap_size(row_len: usize, qualifier_len: usize, value_len: usize) -> usize {
    row_len + qualifier_len + 8 + value_len + 16
}

/// A stored cell version: `None` value means a delete tombstone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellVersion {
    /// Sort key of the version.
    pub key: InternalKey,
    /// Payload; `None` is a tombstone hiding older versions.
    pub value: Option<Bytes>,
}

impl CellVersion {
    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        cell_heap_size(
            self.key.coord.row.len(),
            self.key.coord.qualifier.len(),
            self.value.as_ref().map_or(0, |v| v.len()),
        )
    }
}

/// A half-open row-key range `[start, end)`; `None` bounds are open, exactly
/// like HBase's empty start/end keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct KeyRange {
    /// Inclusive start; `None` = from the beginning of the table.
    pub start: Option<RowKey>,
    /// Exclusive end; `None` = to the end of the table.
    pub end: Option<RowKey>,
}

impl KeyRange {
    /// The whole-table range.
    pub fn all() -> Self {
        KeyRange { start: None, end: None }
    }

    /// A bounded range `[start, end)`.
    pub fn new(start: Option<RowKey>, end: Option<RowKey>) -> Self {
        if let (Some(s), Some(e)) = (&start, &end) {
            assert!(s < e, "empty or inverted key range");
        }
        KeyRange { start, end }
    }

    /// True when `row` falls inside the range.
    pub fn contains(&self, row: &RowKey) -> bool {
        let after_start = self.start.as_ref().is_none_or(|s| row >= s);
        let before_end = self.end.as_ref().is_none_or(|e| row < e);
        after_start && before_end
    }

    /// Splits the range at `mid`, yielding `[start, mid)` and `[mid, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `mid` is not strictly inside the range.
    pub fn split_at(&self, mid: RowKey) -> (KeyRange, KeyRange) {
        assert!(self.contains(&mid), "split point outside range");
        assert!(self.start.as_ref() != Some(&mid), "split point equals range start");
        (
            KeyRange { start: self.start.clone(), end: Some(mid.clone()) },
            KeyRange { start: Some(mid), end: self.end.clone() },
        )
    }
}

impl fmt::Display for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.start.as_ref().map(|k| k.to_string()).unwrap_or_default();
        let e = self.end.as_ref().map(|k| k.to_string()).unwrap_or_default();
        write!(f, "[{s}, {e})")
    }
}

/// One scanned row: its key and live `(qualifier, value)` cells in column
/// order.
pub type RowCells = (RowKey, Vec<(Qualifier, Bytes)>);

/// Convenience borrow so `BTreeMap<RowKey, _>` can be probed with `[u8]`.
impl Borrow<[u8]> for RowKey {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ik(row: &str, q: &str, ts: u64) -> InternalKey {
        InternalKey::new(row.into(), q.into(), Timestamp(ts))
    }

    #[test]
    fn internal_key_orders_rows_then_qualifiers() {
        assert!(ik("a", "x", 1) < ik("b", "a", 9));
        assert!(ik("a", "a", 1) < ik("a", "b", 9));
    }

    #[test]
    fn newest_version_sorts_first() {
        assert!(ik("a", "x", 9) < ik("a", "x", 1));
    }

    #[test]
    fn row_start_precedes_all_versions_of_row() {
        let start = InternalKey::row_start("m".into());
        assert!(start <= ik("m", "", 5));
        assert!(start <= ik("m", "col", 0));
        assert!(start > ik("l", "zzz", 0));
    }

    #[test]
    fn key_ref_orders_like_the_owned_key() {
        let keys = [
            ik("", "", 0),
            ik("a", "", 7),
            ik("a", "x", 9),
            ik("a", "x", 1),
            ik("a\0", "", 3),
            ik("ab", "a", 3),
            ik("b", "a", 9),
        ];
        for a in &keys {
            for b in &keys {
                assert_eq!(a.as_key_ref().cmp(&b.as_key_ref()), a.cmp(b), "{a:?} vs {b:?}");
            }
            assert_eq!(KeyRef::row_start(a.coord.row.as_bytes()).cmp(&a.as_key_ref()), {
                InternalKey::row_start(a.coord.row.clone()).cmp(a)
            });
        }
    }

    #[test]
    fn key_range_contains() {
        let r = KeyRange::new(Some("b".into()), Some("d".into()));
        assert!(!r.contains(&"a".into()));
        assert!(r.contains(&"b".into()));
        assert!(r.contains(&"c".into()));
        assert!(!r.contains(&"d".into()));
        assert!(KeyRange::all().contains(&"anything".into()));
    }

    #[test]
    fn key_range_split() {
        let r = KeyRange::new(Some("a".into()), Some("z".into()));
        let (lo, hi) = r.split_at("m".into());
        assert!(lo.contains(&"a".into()) && lo.contains(&"l".into()) && !lo.contains(&"m".into()));
        assert!(hi.contains(&"m".into()) && hi.contains(&"y".into()) && !hi.contains(&"z".into()));
    }

    #[test]
    #[should_panic(expected = "split point")]
    fn split_at_start_is_rejected() {
        KeyRange::new(Some("a".into()), Some("z".into())).split_at("a".into());
    }

    #[test]
    fn open_ranges_split() {
        let (lo, hi) = KeyRange::all().split_at("m".into());
        assert!(lo.contains(&"".into()));
        assert!(hi.contains(&"zzzz".into()));
    }

    #[test]
    fn display_is_readable() {
        let r = KeyRange::new(Some("user1".into()), Some("user5".into()));
        assert_eq!(r.to_string(), "[user1, user5)");
    }
}
