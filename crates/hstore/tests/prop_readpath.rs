//! Property tests for the zero-alloc read path: the loser-tree merge over
//! memstore + file cursors must agree, on every randomized interleaving of
//! puts, deletes (tombstones), flushes and minor compactions, with a naive
//! sort-and-dedup reference model that never merges anything.

use bytes::Bytes;
use hstore::block_cache::SharedBlockCache;
use hstore::memstore::MemStore;
use hstore::store::{CfStore, FileIdAllocator};
use hstore::types::{InternalKey, KeyRange, Qualifier, RowKey, Timestamp};
use proptest::prelude::*;
use std::collections::BTreeMap;

const ROWS: usize = 12;
const QUALS: usize = 4;

fn row(i: usize) -> RowKey {
    RowKey::from(format!("row{i:02}"))
}

fn qual(i: usize) -> Qualifier {
    Qualifier::from(format!("q{i}").as_str())
}

/// One randomized operation against the store.
#[derive(Debug, Clone)]
enum Op {
    Put(usize, usize, u8),
    Delete(usize, usize),
    Flush,
    CompactMinor(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..ROWS, 0..QUALS, any::<u8>()).prop_map(|(r, q, v)| Op::Put(r, q, v)),
        (0..ROWS, 0..QUALS).prop_map(|(r, q)| Op::Delete(r, q)),
        Just(Op::Flush),
        (2usize..4).prop_map(Op::CompactMinor),
    ]
}

/// Applies `ops`, mirroring every version (with the store-assigned
/// timestamp) into a flat reference model that knows nothing about files,
/// merging or caches.
fn apply(store: &mut CfStore, model: &mut BTreeMap<InternalKey, Option<Bytes>>, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Put(r, q, v) => {
                let value = Bytes::copy_from_slice(&[*v; 3]);
                let ts = store.put(row(*r), qual(*q), value.clone());
                model.insert(InternalKey::new(row(*r), qual(*q), ts), Some(value));
            }
            Op::Delete(r, q) => {
                let ts = store.delete(row(*r), qual(*q));
                model.insert(InternalKey::new(row(*r), qual(*q), ts), None);
            }
            Op::Flush => {
                store.flush();
            }
            Op::CompactMinor(k) => {
                // The model keeps every version; flushes and compactions
                // keep only each coordinate's newest (and its tombstone).
                store.compact_minor(*k);
            }
        }
    }
}

/// The rows a scan over `range` must return, computed by brute force:
/// newest version per coordinate, tombstones hide, empty rows vanish.
fn reference_scan(
    model: &BTreeMap<InternalKey, Option<Bytes>>,
    range: &KeyRange,
) -> Vec<(RowKey, Vec<(Qualifier, Bytes)>)> {
    let mut newest: BTreeMap<(RowKey, Qualifier), &Option<Bytes>> = BTreeMap::new();
    for (key, value) in model {
        // Model iterates in InternalKey order (ts DESC within a
        // coordinate), so the first version seen per coordinate is newest.
        newest.entry((key.coord.row.clone(), key.coord.qualifier.clone())).or_insert(value);
    }
    let mut rows: BTreeMap<RowKey, Vec<(Qualifier, Bytes)>> = BTreeMap::new();
    for ((r, q), value) in newest {
        if range.contains(&r) {
            if let Some(v) = value {
                rows.entry(r).or_default().push((q, v.clone()));
            }
        }
    }
    rows.into_iter().collect()
}

/// The first version of each coordinate in a key-ordered cell stream.
fn firsts<'a>(
    cells: impl Iterator<Item = (&'a InternalKey, &'a Option<Bytes>)>,
) -> Vec<(&'a InternalKey, &'a Option<Bytes>)> {
    let mut firsts: Vec<_> = cells.collect();
    firsts.dedup_by(|later, first| later.0.coord == first.0.coord);
    firsts
}

fn range_strategy() -> impl Strategy<Value = KeyRange> {
    (0..ROWS, 1..ROWS + 1, any::<bool>(), any::<bool>()).prop_map(|(a, span, open_s, open_e)| {
        let s = a;
        let e = (a + span).min(ROWS + 1);
        KeyRange::new(
            if open_s { None } else { Some(row(s)) },
            if open_e || e <= s { None } else { Some(row(e)) },
        )
    })
}

fn small_store() -> CfStore {
    // Tiny blocks and cache so scans cross many blocks and evict.
    CfStore::new(SharedBlockCache::new(512), FileIdAllocator::new(), 128)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_matches_sort_and_dedup_reference(
        ops in prop::collection::vec(op_strategy(), 1..120),
        range in range_strategy(),
    ) {
        let mut store = small_store();
        let mut model = BTreeMap::new();
        apply(&mut store, &mut model, &ops);

        // Flushes and minor compactions may drop shadowed versions, but
        // never invent, duplicate or reorder one, nor lose a newest one.
        let exported = store.export_range(&KeyRange::all());
        prop_assert!(exported.windows(2).all(|w| w[0].key < w[1].key), "export not ascending");
        for cell in &exported {
            prop_assert_eq!(model.get(&cell.key), Some(&cell.value), "{:?} not written", cell.key);
        }
        prop_assert_eq!(
            firsts(exported.iter().map(|c| (&c.key, &c.value))),
            firsts(model.iter()),
            "a coordinate's first exported version is not its newest"
        );

        // Scans agree with the brute-force model over a random sub-range.
        let got = store.scan_range(&range, usize::MAX);
        prop_assert_eq!(&got, &reference_scan(&model, &range));

        // Point gets agree on every coordinate in the domain.
        for r in 0..ROWS {
            for q in 0..QUALS {
                let want = model
                    .range(InternalKey::row_start(row(r))..)
                    .find(|(k, _)| k.coord.row == row(r) && k.coord.qualifier == qual(q))
                    .and_then(|(_, v)| v.clone());
                prop_assert_eq!(store.get(&row(r), &qual(q)), want);
            }
        }
    }

    #[test]
    fn merge_survives_major_compaction(
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let mut store = small_store();
        let mut model = BTreeMap::new();
        apply(&mut store, &mut model, &ops);
        store.flush();
        store.compact_major();

        // Major compaction drops shadowed versions and spent tombstones,
        // but the *visible* contents must be unchanged.
        let range = KeyRange::all();
        let got = store.scan_range(&range, usize::MAX);
        prop_assert_eq!(&got, &reference_scan(&model, &range));
    }
}

/// Rows that a word-at-a-time row hash could confuse: the empty row, rows
/// that are prefixes of one another, rows that share their first eight
/// bytes and differ only in the tail, and zero bytes where a short final
/// word is padded.
const FILTER_ROWS: [&[u8]; 14] = [
    b"",
    b"\0",
    b"\0\0\0\0\0\0\0\0",
    b"u",
    b"user",
    b"user0000",
    b"user0000\0",
    b"user00000",
    b"user00001",
    b"user0000000001",
    b"user0000000002",
    b"user00000000010000",
    b"user0000000001000",
    b"user0000\0\0\0\0\0\0\0\0",
];

/// One cell version for the row-filter property: row, qualifier,
/// timestamp, and a value byte or `None` for a tombstone.
fn filter_cell() -> impl Strategy<Value = (usize, usize, u64, Option<u8>)> {
    (0..FILTER_ROWS.len(), 0..2usize, 0..4u64, any::<u8>(), any::<bool>())
        .prop_map(|(r, q, ts, v, live)| (r, q, ts, live.then_some(v)))
}

/// The newest version at a coordinate, by walking the whole reference map
/// (its order puts the newest version of a coordinate first).
fn reference_newest(
    model: &BTreeMap<InternalKey, Option<Bytes>>,
    row: &RowKey,
    qual: &Qualifier,
) -> Option<Option<Bytes>> {
    model
        .iter()
        .find(|(k, _)| k.coord.row == *row && k.coord.qualifier == *qual)
        .map(|(_, v)| v.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The memstore's row filter never hides an inserted row: `get_newest`
    /// on the active memstore and on its clone agrees with a plain
    /// `BTreeMap` on every coordinate, present or absent.
    #[test]
    fn memstore_row_filter_has_no_false_negatives(
        cells in prop::collection::vec(filter_cell(), 0..40),
    ) {
        let mut mem = MemStore::new();
        let mut model = BTreeMap::new();
        for (r, q, ts, v) in cells {
            let key = InternalKey::new(RowKey::from(FILTER_ROWS[r]), qual(q), Timestamp(ts));
            let value = v.map(|b| Bytes::copy_from_slice(&[b]));
            mem.insert(key.clone(), value.clone());
            model.insert(key, value);
        }
        let copy = mem.clone();
        for r in FILTER_ROWS {
            let row = RowKey::from(r);
            for q in 0..3 {
                let want = reference_newest(&model, &row, &qual(q));
                prop_assert_eq!(mem.get_newest(&row, &qual(q)), want.clone(), "{:?}", row);
                prop_assert_eq!(copy.get_newest(&row, &qual(q)), want, "clone, {:?}", row);
            }
        }
    }
}
