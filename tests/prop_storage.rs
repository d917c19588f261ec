//! Property-based tests of the storage engine: the LSM store is checked
//! against a reference model (a plain `BTreeMap`) under arbitrary
//! operation sequences, and structural invariants (cache capacity, split
//! partitioning) are checked under arbitrary inputs.

use bytes::Bytes;
use hstore::{
    BlockCache, BlockId, CfStore, CorruptionKind, FileId, FileIdAllocator, HStoreError, KeyRange,
    Region, RegionId, SharedBlockCache, StoreError,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// An operation against the store.
#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8, Vec<u8>),
    Delete(u8, u8),
    Get(u8, u8),
    Scan(u8, u8),
    Flush,
    CompactMinor,
    CompactMajor,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), prop::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(r, q, v)| Op::Put(r, q, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(r, q)| Op::Delete(r, q)),
        (any::<u8>(), any::<u8>()).prop_map(|(r, q)| Op::Get(r, q)),
        (any::<u8>(), 1u8..20).prop_map(|(r, n)| Op::Scan(r, n)),
        Just(Op::Flush),
        Just(Op::CompactMinor),
        Just(Op::CompactMajor),
    ]
}

fn row(r: u8) -> hstore::RowKey {
    format!("row{r:03}").as_str().into()
}

fn qual(q: u8) -> hstore::Qualifier {
    format!("q{:02}", q % 4).as_str().into()
}

/// Rows for the reference-model test, chosen to stress the HFile block
/// search index (a shared row prefix plus the next 8 row bytes per cell as
/// a zero-padded integer): variable-length rows over an alphabet holding
/// `0x00` and `0xFF`, the empty row, rows that are prefixes of one another,
/// and rows that differ only past the 8-byte window so their index entries
/// tie. Many selectors map to one row; the model does not care.
fn tricky_row(r: u8) -> hstore::RowKey {
    const STEMS: [&[u8]; 8] = [
        b"",
        b"\x00",
        b"a",
        b"a\x00",
        b"aaaaaaaa",
        b"aaaaaaaaa",
        b"aaaaaaaa\xff",
        b"\xff\xff\xff\xff\xff\xff\xff\xff\xff",
    ];
    const ALPHABET: [u8; 3] = [0x00, b'a', 0xFF];
    let mut row = STEMS[usize::from(r & 7)].to_vec();
    // The upper five bits spell a tail of zero to three alphabet bytes.
    let mut tail = usize::from(r >> 3);
    while tail > 0 {
        row.push(ALPHABET[(tail - 1) % 3]);
        tail = (tail - 1) / 3;
    }
    hstore::RowKey::new(row)
}

/// Qualifiers for the reference-model test: the empty one, and pairs the
/// zero-padding of a shorter key could be mistaken for.
fn tricky_qual(q: u8) -> hstore::Qualifier {
    hstore::Qualifier::new([&b""[..], b"q", b"q\x00", b"q\xff"][usize::from(q % 4)].to_vec())
}

/// The CRC-32C kernel over a fixed 10 KiB pattern — several of the
/// hardware kernel's three-lane stripes plus a tail — equals the value the
/// portable (and a bit-at-a-time) CRC-32C gives.
#[test]
fn crc32c_over_several_stripes_matches_the_portable_value() {
    let pattern: Vec<u8> = (0..10 * 1024).map(|i| (i % 251) as u8).collect();
    assert_eq!(hstore::wal::crc32(&pattern), 0xF34F_A334);
    assert_eq!(hstore::wal::crc32(b"123456789"), 0xE306_9283);
}

/// Overwrites are reclaimed: 200 keys each written 50 times through the
/// background flusher and compactor leave the files holding about one
/// version per key, not fifty, and every key reads its last write.
#[test]
fn background_maintenance_reclaims_overwritten_versions() {
    const KEYS: usize = 200;
    const VALUE_BYTES: usize = 100;
    let mut s = CfStore::new(SharedBlockCache::new(1 << 20), FileIdAllocator::new(), 4 << 10);
    s.start_maintenance(hstore::MaintenanceConfig {
        memstore_flush_bytes: 8 << 10,
        compact_min_files: 2,
        compactors: 1,
        ..Default::default()
    });
    let key = |i: usize| hstore::RowKey::from(format!("key{i:03}"));
    for round in 0..50u8 {
        for i in 0..KEYS {
            s.put(key(i), qual(0), Bytes::from(vec![round; VALUE_BYTES]));
        }
    }
    s.drain_maintenance();
    // A cell accounts row + qualifier + value + 24 bytes of timestamp and
    // per-cell overhead.
    let live =
        (KEYS * (key(0).as_bytes().len() + qual(0).as_bytes().len() + VALUE_BYTES + 24)) as u64;
    assert!(s.file_bytes() > 0, "the pipeline flushed");
    assert!(s.file_bytes() <= 2 * live, "files hold {} bytes for {live} live", s.file_bytes());
    for i in 0..KEYS {
        assert_eq!(s.get(&key(i), &qual(0)), Some(Bytes::from(vec![49u8; VALUE_BYTES])));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Blocks flushed from random rows — several three-lane stripes each —
    /// verify when a get first reads them and in recovery's scrub; a
    /// rotted block is reported by both.
    #[test]
    fn flushed_blocks_verify_and_rot_is_reported(
        rows in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 1..40), 0usize..400),
            1..300,
        ),
    ) {
        let rows: BTreeMap<Vec<u8>, usize> = rows.into_iter().collect();
        let load = || {
            let mut s =
                CfStore::new(SharedBlockCache::new(1 << 22), FileIdAllocator::new(), 16 << 10);
            for (r, &len) in &rows {
                s.put(hstore::RowKey::new(r.clone()), qual(0), Bytes::from(vec![r[0]; len]));
            }
            let file = s.flush().expect("rows were written").file;
            (s, file)
        };
        let cache = || SharedBlockCache::new(1 << 22);

        let (s, _) = load();
        for (r, &len) in &rows {
            let (got, _) = s.try_get(&hstore::RowKey::new(r.clone()), &qual(0)).expect("clean");
            prop_assert_eq!(got.map(|v| v.len()), Some(len));
        }
        let (_, report) = CfStore::recover(s.crash(), cache(), FileIdAllocator::new())
            .expect("clean files scrub");
        prop_assert_eq!(report.files_verified, 1);

        // The first row lives in block 0, whose stored CRC now disagrees.
        let (mut s, file) = load();
        prop_assert!(s.corrupt_file_block(file, 0));
        let first = hstore::RowKey::new(rows.keys().next().expect("non-empty").clone());
        let rot = |e: &HStoreError| {
            matches!(e, HStoreError::Corruption { cause: CorruptionKind::BlockChecksum, .. })
        };
        prop_assert!(s.try_get(&first, &qual(0)).is_err_and(|e| rot(&e)));
        prop_assert!(CfStore::recover(s.crash(), cache(), FileIdAllocator::new())
            .is_err_and(|e| rot(&e)));
    }

    /// A cache that admits nothing makes every get a cold read that
    /// verifies its block. Over blocks whose values mix distinct buffers of
    /// 0–300 bytes with runs of rows sharing one handle — the two layouts
    /// the checksum's gather pass tells apart — each get returns its own
    /// row's bytes, and a rotted block fails the next get typed.
    #[test]
    fn cold_gets_verify_blocks_of_shared_and_distinct_values(
        rows in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 1..24), any::<bool>(), 0usize..301),
            1..300,
        ),
    ) {
        let rows: BTreeMap<Vec<u8>, Option<usize>> =
            rows.into_iter().map(|(r, shared, len)| (r, (!shared).then_some(len))).collect();
        let shared = Bytes::from(vec![0x5A; 100]);
        let value = |r: &[u8], len: Option<usize>| match len {
            Some(n) => Bytes::from((0..n).map(|i| r[0] ^ i as u8).collect::<Vec<_>>()),
            None => shared.clone(),
        };
        let mut s = CfStore::new(SharedBlockCache::new(0), FileIdAllocator::new(), 4 << 10);
        for (r, &len) in &rows {
            s.put(hstore::RowKey::new(r.clone()), qual(0), value(r, len));
        }
        let file = s.flush().expect("rows were written").file;
        for (r, &len) in &rows {
            let (got, stats) =
                s.try_get(&hstore::RowKey::new(r.clone()), &qual(0)).expect("clean blocks verify");
            prop_assert_eq!(got, Some(value(r, len)));
            prop_assert_eq!((stats.cache_hits, stats.blocks_read), (0, 1));
        }

        prop_assert!(s.corrupt_file_block(file, 0));
        let first = hstore::RowKey::new(rows.keys().next().expect("non-empty").clone());
        prop_assert!(s.try_get(&first, &qual(0)).is_err_and(|e| matches!(
            e,
            HStoreError::Corruption { cause: CorruptionKind::BlockChecksum, .. }
        )));
    }
}

/// Cell counts on either side of one and two multiples of the HFile search
/// index's 16 top-level segments, plus a single cell.
const SEGMENT_STRADDLING_COUNTS: [usize; 7] = [1, 15, 16, 17, 31, 32, 33];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Point gets over a store of several flushed files agree with a
    /// `BTreeMap` reference on tricky rows, where each flush writes a
    /// number of distinct coordinates that straddles the search index's
    /// segments: with one-byte blocks every cell is a block of its own, so
    /// the count is the file's block count (the index `block_for` reads);
    /// with 64 KiB blocks the file is one block of that many cells (the
    /// index the in-block seek reads). Newer files shadow and delete rows
    /// of older ones, and a few writes stay in the memstore.
    #[test]
    fn point_gets_over_files_straddling_index_segments_match_the_model(
        flushes in prop::collection::vec(
            (0usize..7, prop::collection::vec((any::<u8>(), any::<u8>(), 0u8..8), 48..49)),
            1..5,
        ),
        unflushed in prop::collection::vec((any::<u8>(), any::<u8>()), 0..8),
        one_cell_blocks in any::<bool>(),
    ) {
        let block_size = if one_cell_blocks { 1 } else { 64 << 10 };
        let mut store =
            CfStore::new(SharedBlockCache::new(1 << 20), FileIdAllocator::new(), block_size);
        let mut model: BTreeMap<(hstore::RowKey, hstore::Qualifier), Bytes> = BTreeMap::new();
        for (count, candidates) in flushes {
            let target = SEGMENT_STRADDLING_COUNTS[count];
            let mut written = std::collections::BTreeSet::new();
            for (r, q, v) in candidates {
                let (row, qual) = (tricky_row(r), tricky_qual(q));
                if written.len() == target && !written.contains(&(row.clone(), qual.clone())) {
                    continue;
                }
                written.insert((row.clone(), qual.clone()));
                // One write in eight is a delete.
                if v == 0 {
                    store.delete(row.clone(), qual.clone());
                    model.remove(&(row, qual));
                } else {
                    store.put(row.clone(), qual.clone(), Bytes::from(vec![v; usize::from(v)]));
                    model.insert((row, qual), Bytes::from(vec![v; usize::from(v)]));
                }
            }
            store.flush();
        }
        for (r, q) in unflushed {
            let (row, qual) = (tricky_row(r), tricky_qual(q));
            store.put(row.clone(), qual.clone(), Bytes::from_static(b"mem"));
            model.insert((row, qual), Bytes::from_static(b"mem"));
        }
        for r in 0..=u8::MAX {
            for q in 0..4 {
                let (row, qual) = (tricky_row(r), tricky_qual(q));
                let want = model.get(&(row.clone(), qual.clone())).cloned();
                prop_assert_eq!(store.get(&row, &qual), want, "get({:?}, {:?})", row, qual);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The LSM store agrees with a `BTreeMap` reference under any sequence
    /// of puts, deletes, gets, scans, flushes and compactions.
    #[test]
    fn store_matches_reference_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut store = CfStore::new(SharedBlockCache::new(1 << 18), FileIdAllocator::new(), 256);
        let mut model: BTreeMap<(hstore::RowKey, hstore::Qualifier), Bytes> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Put(r, q, v) => {
                    let (row, qual, v) = (tricky_row(r), tricky_qual(q), Bytes::from(v));
                    store.put(row.clone(), qual.clone(), v.clone());
                    model.insert((row, qual), v);
                }
                Op::Delete(r, q) => {
                    let (row, qual) = (tricky_row(r), tricky_qual(q));
                    store.delete(row.clone(), qual.clone());
                    model.remove(&(row, qual));
                }
                Op::Get(r, q) => {
                    let (row, qual) = (tricky_row(r), tricky_qual(q));
                    let got = store.get(&row, &qual);
                    let want = model.get(&(row.clone(), qual.clone())).cloned();
                    prop_assert_eq!(got, want, "get({:?}, {:?}) diverged", row, qual);
                }
                Op::Scan(r, n) => {
                    let start = tricky_row(r);
                    let got = store.scan(&start, n as usize);
                    // Reference: first n live rows at/after the start key.
                    let mut want_rows: Vec<hstore::RowKey> = model
                        .keys()
                        .filter(|(rk, _)| *rk >= start)
                        .map(|(rk, _)| rk.clone())
                        .collect();
                    want_rows.dedup();
                    want_rows.truncate(n as usize);
                    let got_rows: Vec<hstore::RowKey> =
                        got.iter().map(|(rk, _)| rk.clone()).collect();
                    prop_assert_eq!(&got_rows, &want_rows, "scan rows diverged");
                    // Every returned row carries exactly its live cells.
                    for (rk, cells) in &got {
                        let want_cells: Vec<(hstore::Qualifier, Bytes)> = model
                            .iter()
                            .filter(|((mr, _), _)| mr == rk)
                            .map(|((_, mq), v)| (mq.clone(), v.clone()))
                            .collect();
                        prop_assert_eq!(cells, &want_cells, "cells diverged for {}", rk);
                    }
                }
                Op::Flush => {
                    store.flush();
                }
                Op::CompactMinor => {
                    store.compact_minor(3);
                }
                Op::CompactMajor => {
                    store.compact_major();
                }
            }
        }
    }

    /// The block cache never exceeds its byte capacity and hit/miss counts
    /// add up, under arbitrary access sequences.
    #[test]
    fn block_cache_capacity_invariant(
        capacity in 64u64..4096,
        accesses in prop::collection::vec((0u64..20, 0u32..16, 16u64..512), 1..300),
    ) {
        let mut cache = BlockCache::new(capacity);
        for (file, index, size) in accesses {
            cache.touch(BlockId { file: FileId(file), index }, size);
            prop_assert!(
                cache.used_bytes() <= capacity,
                "cache over capacity: {} > {}",
                cache.used_bytes(),
                capacity
            );
        }
        let stats = cache.stats();
        prop_assert!(stats.hits + stats.misses >= 1);
        prop_assert!(stats.hit_ratio() >= 0.0 && stats.hit_ratio() <= 1.0);
    }

    /// Splitting a region at any interior row partitions the data exactly:
    /// every row lands in exactly one daughter, on the correct side.
    #[test]
    fn region_split_partitions_rows(
        rows in prop::collection::btree_set(0u8..200, 2..60),
        split_sel in 1usize..59,
    ) {
        let cache = SharedBlockCache::new(1 << 20);
        let ids = FileIdAllocator::new();
        let mut region = Region::new(
            RegionId(1),
            "t",
            KeyRange::all(),
            &["cf".into()],
            cache.clone(),
            ids.clone(),
            512,
            1 << 20,
        );
        let fam: hstore::Family = "cf".into();
        for r in &rows {
            region
                .put(&fam, row(*r), qual(0), Bytes::from(vec![*r]))
                .expect("row in open range");
        }
        region.flush_all();
        let rows: Vec<u8> = rows.into_iter().collect();
        // Pick an interior split point (not ≤ the first row).
        let mid_row = rows[split_sel.min(rows.len() - 1).max(1)];
        if mid_row == rows[0] {
            return Ok(()); // split at range start is rejected by design
        }
        let (lo, hi) = region
            .split(row(mid_row), RegionId(2), RegionId(3), cache, ids, 512)
            .expect("interior split point");
        for r in rows {
            let in_lo = lo.get(&fam, &row(r), &qual(0));
            let in_hi = hi.get(&fam, &row(r), &qual(0));
            if r < mid_row {
                prop_assert!(in_lo.expect("lo covers").is_some(), "row{r} lost from lo");
                prop_assert!(
                    matches!(in_hi, Err(StoreError::WrongRegion { .. })),
                    "row{r} readable from hi"
                );
            } else {
                prop_assert!(in_hi.expect("hi covers").is_some(), "row{r} lost from hi");
                prop_assert!(
                    matches!(in_lo, Err(StoreError::WrongRegion { .. })),
                    "row{r} readable from lo"
                );
            }
        }
    }

    /// Major compaction is semantically invisible: any read sequence sees
    /// the same values before and after, and file count drops to one.
    #[test]
    fn major_compaction_is_transparent(
        writes in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..80),
        flush_every in 5usize..20,
    ) {
        let mut store = CfStore::new(SharedBlockCache::new(1 << 18), FileIdAllocator::new(), 256);
        for (i, (r, q, v)) in writes.iter().enumerate() {
            store.put(row(*r), qual(*q), Bytes::from(vec![*v]));
            if i % flush_every == 0 {
                store.flush();
            }
        }
        store.flush();
        let before: Vec<_> = writes
            .iter()
            .map(|(r, q, _)| store.get(&row(*r), &qual(*q)))
            .collect();
        store.compact_major();
        prop_assert!(store.file_count() <= 1);
        let after: Vec<_> = writes
            .iter()
            .map(|(r, q, _)| store.get(&row(*r), &qual(*q)))
            .collect();
        prop_assert_eq!(before, after);
    }
}
