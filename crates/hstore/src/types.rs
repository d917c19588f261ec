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
use std::hash::{Hash, Hasher};

/// Longest key held in place: what a 24-byte [`KeyBytes`] leaves after
/// its tag and length byte.
const INLINE_MAX: usize = 22;

/// The bytes of a row key, qualifier or family. A key of at most
/// [`INLINE_MAX`] bytes always lives inline and zero-padded, so building,
/// cloning or dropping one is a 24-byte copy with no allocation and no
/// refcount; a longer key shares one [`Bytes`] buffer. Equality, order and
/// hash are written by hand, never derived over the variants, and are
/// those of [`KeyBytes::as_bytes`] whichever variant holds the key, so a
/// key and its byte slice agree everywhere `Borrow<[u8]>` lets one stand
/// for the other. Two inline keys compare by their padded arrays, which is
/// why the padding must stay zero.
#[derive(Clone)]
enum KeyBytes {
    Inline { len: u8, bytes: [u8; INLINE_MAX] },
    Shared(Bytes),
}

impl KeyBytes {
    fn from_slice(b: &[u8]) -> Self {
        if b.len() > INLINE_MAX {
            return KeyBytes::Shared(Bytes::copy_from_slice(b));
        }
        let mut bytes = [0; INLINE_MAX];
        bytes[..b.len()].copy_from_slice(b);
        KeyBytes::Inline { len: b.len() as u8, bytes }
    }

    /// Takes `b` over as the shared buffer when it is too long to inline.
    fn from_owned(b: impl AsRef<[u8]> + Into<Bytes>) -> Self {
        if b.as_ref().len() > INLINE_MAX {
            KeyBytes::Shared(b.into())
        } else {
            KeyBytes::from_slice(b.as_ref())
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            KeyBytes::Inline { len, bytes } => &bytes[..*len as usize],
            KeyBytes::Shared(b) => b,
        }
    }
}

/// An inline key's padded bytes as big-endian words, which order like the
/// bytes: two compares and no `memcmp` call.
fn words(b: &[u8; INLINE_MAX]) -> (u128, u64) {
    let mut low = [0; 8];
    low[..INLINE_MAX - 16].copy_from_slice(&b[16..]);
    (u128::from_be_bytes(b[..16].try_into().unwrap_or_default()), u64::from_be_bytes(low))
}

impl PartialEq for KeyBytes {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (KeyBytes::Inline { len: a, bytes: x }, KeyBytes::Inline { len: b, bytes: y }) => {
                a == b && x == y
            }
            _ => self.as_bytes() == other.as_bytes(),
        }
    }
}

impl Eq for KeyBytes {}

impl Ord for KeyBytes {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            // The zero padding sorts below every byte, so padded keys order
            // like the keys wherever they differ, and a tie leaves the
            // shorter key a prefix of the longer.
            (KeyBytes::Inline { len: a, bytes: x }, KeyBytes::Inline { len: b, bytes: y }) => {
                words(x).cmp(&words(y)).then(a.cmp(b))
            }
            _ => self.as_bytes().cmp(other.as_bytes()),
        }
    }
}

impl PartialOrd for KeyBytes {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for KeyBytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

/// `b"..."` with ASCII escapes, as [`Bytes`] prints.
impl fmt::Debug for KeyBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\"", self.as_bytes().escape_ascii())
    }
}

/// UTF-8 as text, anything else as `0x` and lower-case hex.
impl fmt::Display for KeyBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(self.as_bytes()) {
            Ok(s) => write!(f, "{s}"),
            Err(_) => {
                f.write_str("0x")?;
                self.as_bytes().iter().try_for_each(|b| write!(f, "{b:02x}"))
            }
        }
    }
}

/// The three key types share one representation and one API.
macro_rules! key_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(KeyBytes);

        impl $name {
            /// Builds a key from anything byte-like.
            pub fn new(bytes: impl Into<Bytes>) -> Self {
                $name(KeyBytes::from_owned(bytes.into()))
            }

            /// The raw bytes.
            pub fn as_bytes(&self) -> &[u8] {
                self.0.as_bytes()
            }

            /// Byte length.
            pub fn len(&self) -> usize {
                self.as_bytes().len()
            }

            /// True for the empty key.
            pub fn is_empty(&self) -> bool {
                self.as_bytes().is_empty()
            }
        }

        impl From<&[u8]> for $name {
            fn from(bytes: &[u8]) -> Self {
                $name(KeyBytes::from_slice(bytes))
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                s.as_bytes().into()
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                $name(KeyBytes::from_owned(s.into_bytes()))
            }
        }

        /// So maps keyed by this type can be probed with `[u8]`.
        impl Borrow<[u8]> for $name {
            fn borrow(&self) -> &[u8] {
                self.as_bytes()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }
    };
}

key_type! {
    /// A row key; rows order lexicographically by raw bytes.
    RowKey
}

key_type! {
    /// A column family name. Families are declared at table creation and
    /// order by their bytes, which for UTF-8 names is `String` order.
    Family
}

key_type! {
    /// A column qualifier within a family; created dynamically (§2.1).
    Qualifier
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
        InternalKey::new(row, Qualifier::from(""), Timestamp(u64::MAX))
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
