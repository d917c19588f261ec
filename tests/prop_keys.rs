//! The key types — `RowKey`, `Qualifier`, `Family` — hold up to 22 bytes
//! inline and longer keys in a shared buffer. Whichever way a key is held,
//! it must compare, order, hash, print and be found in a map exactly like
//! its byte slice, and a store must carry keys on both sides of the
//! boundary through every stage: memstore, WAL, flush, compaction,
//! recovery.

use bytes::Bytes;
use hstore::types::{CellCoord, InternalKey};
use hstore::WalConfig;
use hstore::{CfStore, Family, FileIdAllocator, KeyRange, Qualifier, RowKey, SharedBlockCache};
use proptest::prelude::*;
use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt::{Debug, Display};
use std::hash::{Hash, Hasher};
use std::mem::size_of;

fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// Bytes biased towards the extremes of the order: `0x00`, `0xFF`, and a
/// small alphabet so keys often share prefixes.
fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![Just(0u8), Just(0xFF), Just(b'a'), Just(b'b'), any::<u8>()]
}

/// Keys cut from one 64-byte stem: its prefixes of 21, 22 and 23 bytes in
/// every case, prefixes of random lengths 0–64 (some with the last byte
/// changed), and the pair `"a"` / `"a\0"`.
fn key_set() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let stem = prop::collection::vec(byte(), 64..65);
    let picks = prop::collection::vec((0usize..65, any::<bool>(), byte()), 0..12);
    (stem, picks).prop_map(|(stem, picks)| {
        let mut keys = vec![b"a".to_vec(), b"a\0".to_vec()];
        keys.extend([21, 22, 23].map(|len| stem[..len].to_vec()));
        for (len, tweak, b) in picks {
            let mut k = stem[..len].to_vec();
            if let (true, Some(last)) = (tweak, k.last_mut()) {
                *last = b;
            }
            keys.push(k);
        }
        keys
    })
}

/// `Bytes`'s `Debug` under the type's name: how every key printed when
/// it was a `Bytes` newtype.
fn bytes_debug(name: &str, k: &[u8]) -> String {
    format!("{name}({:?})", Bytes::copy_from_slice(k))
}

/// UTF-8 as text, anything else as `0x` and lower-case hex.
fn bytes_display(k: &[u8]) -> String {
    match std::str::from_utf8(k) {
        Ok(s) => s.to_owned(),
        Err(_) => format!("0x{}", k.iter().map(|b| format!("{b:02x}")).collect::<String>()),
    }
}

/// Every property of one key type over `keys`; `new` is the type's
/// `new(impl Into<Bytes>)`.
fn behaves_like_bytes<K>(name: &str, keys: &[Vec<u8>], new: fn(Bytes) -> K)
where
    K: for<'a> From<&'a [u8]> + From<String> + Borrow<[u8]> + Ord + Hash + Clone + Debug + Display,
{
    let made: Vec<K> = keys.iter().map(|k| K::from(k.as_slice())).collect();
    for (k, key) in keys.iter().zip(&made) {
        let borrowed: &[u8] = key.borrow();
        assert_eq!(borrowed, k.as_slice());
        assert!(new(Bytes::copy_from_slice(k)) == *key, "{name}::new({k:?})");
        assert!(new(Bytes::from(k.clone())) == *key, "{name}::new(Vec {k:?})");
        if let Ok(s) = String::from_utf8(k.clone()) {
            assert!(K::from(s) == *key, "{name}::from(String {k:?})");
        }
        assert!(key.clone() == *key);
        assert_eq!(hash_of(key), hash_of(k.as_slice()), "{name} hash of {k:?}");
        assert_eq!(format!("{key:?}"), bytes_debug(name, k));
        assert_eq!(key.to_string(), bytes_display(k));
    }
    for (a, ka) in keys.iter().zip(&made) {
        for (b, kb) in keys.iter().zip(&made) {
            assert_eq!(ka.cmp(kb), a.cmp(b), "{name}: {a:?} vs {b:?}");
            assert_eq!(ka == kb, a == b, "{name}: {a:?} == {b:?}");
            assert_eq!(ka.partial_cmp(kb), a.partial_cmp(b));
        }
    }

    let tree: BTreeMap<K, usize> = made.iter().cloned().zip(0..).collect();
    let hashed: HashMap<K, usize> = made.iter().cloned().zip(0..).collect();
    let want: BTreeMap<&[u8], usize> = keys.iter().map(Vec::as_slice).zip(0..).collect();
    let order: Vec<&[u8]> = tree.keys().map(|k| k.borrow()).collect();
    assert_eq!(order, want.keys().copied().collect::<Vec<_>>(), "{name} map order");
    for (k, i) in &want {
        assert_eq!(tree.get(*k), Some(i), "{name} BTreeMap lookup of {k:?}");
        assert_eq!(hashed.get(*k), Some(i), "{name} HashMap lookup of {k:?}");
    }
    assert_eq!(hashed.len(), want.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Inline and shared keys compare, order, hash, print and are found
    /// through `Borrow<[u8]>` exactly like their bytes.
    #[test]
    fn keys_behave_like_their_bytes(keys in key_set()) {
        behaves_like_bytes("RowKey", &keys, RowKey::new);
        behaves_like_bytes("Qualifier", &keys, Qualifier::new);
        behaves_like_bytes("Family", &keys, Family::new);
    }
}

#[test]
fn key_layout_is_pinned() {
    assert_eq!(size_of::<RowKey>(), 24);
    assert_eq!(size_of::<Qualifier>(), 24);
    assert_eq!(size_of::<Family>(), 24);
    assert_eq!(size_of::<Option<RowKey>>(), 24);
    assert_eq!(size_of::<InternalKey>(), 56);
}

#[test]
fn keys_print_as_they_always_have() {
    let long = "user9999999999-and-then-some";
    assert_eq!(format!("{:?}", RowKey::from("user0000000001")), r#"RowKey(b"user0000000001")"#);
    assert_eq!(format!("{:?}", RowKey::from(long)), format!(r#"RowKey(b"{long}")"#));
    assert_eq!(format!("{:?}", Qualifier::from(&b"q\0\xff\n"[..])), r#"Qualifier(b"q\x00\xff\n")"#);
    assert_eq!(format!("{:?}", Family::from("cf")), r#"Family(b"cf")"#);
    assert_eq!(
        format!("{:?}", CellCoord { row: "r".into(), qualifier: "".into() }),
        r#"CellCoord { row: RowKey(b"r"), qualifier: Qualifier(b"") }"#
    );
    assert_eq!(format!("{:#?}", RowKey::from("r")), "RowKey(\n    b\"r\",\n)");
    assert_eq!(RowKey::from("user0000000001").to_string(), "user0000000001");
    assert_eq!(RowKey::from(long).to_string(), long);
    assert_eq!(RowKey::from(&b"\xff\x00"[..]).to_string(), "0xff00");
    assert_eq!(RowKey::from(&[0xFE; 23][..]).to_string(), format!("0x{}", "fe".repeat(23)));
    assert_eq!(
        KeyRange::new(Some("user1".into()), Some(long.into())).to_string(),
        format!("[user1, {long})")
    );
}

/// Rows and qualifiers of 0, 22, 23 and 200 bytes — empty, the longest
/// inline key, the shortest shared one, and a long one — through put,
/// flush, compaction, get, scan, crash and recovery.
#[test]
fn keys_on_both_sides_of_the_inline_limit_survive_every_stage() {
    const LENS: [usize; 4] = [0, 22, 23, 200];
    let mut rows: Vec<Vec<u8>> = vec![Vec::new()];
    for len in &LENS[1..] {
        for last in [0x00, b'r', 0xFF] {
            let mut row = vec![b'r'; *len];
            row[len - 1] = last;
            rows.push(row);
        }
    }
    let quals: Vec<Vec<u8>> = LENS.iter().map(|&len| vec![b'q'; len]).collect();
    let mut model: BTreeMap<Vec<u8>, BTreeMap<Vec<u8>, Bytes>> = BTreeMap::new();
    let mut s = CfStore::new(SharedBlockCache::new(1 << 20), FileIdAllocator::new(), 256);
    s.enable_wal(WalConfig::default());
    let mut put = |s: &mut CfStore, round: usize, r: &Vec<u8>, q: &Vec<u8>| {
        let value = Bytes::from(format!("{round}:{}:{}", r.len(), q.len()));
        s.put(RowKey::from(r.as_slice()), Qualifier::from(q.as_slice()), value.clone());
        model.entry(r.clone()).or_default().insert(q.clone(), value);
    };
    for round in 0..2 {
        for r in &rows {
            for q in &quals {
                put(&mut s, round, r, q);
            }
        }
        assert!(s.flush().is_some(), "round {round} flushed");
    }
    assert!(s.compact_major().is_some());
    // The WAL alone holds the last round: overwrites and a delete.
    for r in rows.iter().step_by(2) {
        put(&mut s, 2, r, &quals[2]);
    }
    let (gone_row, gone_qual) = (rows[1].clone(), quals[3].clone());
    s.delete(RowKey::from(gone_row.as_slice()), Qualifier::from(gone_qual.as_slice()));
    model.get_mut(&gone_row).map(|cells| cells.remove(&gone_qual));

    let mut sorted = rows.clone();
    sorted.sort();
    let check = |s: &CfStore, stage: &str| {
        for r in &rows {
            for q in &quals {
                let got = s.get(&RowKey::from(r.as_slice()), &Qualifier::from(q.as_slice()));
                assert_eq!(got.as_ref(), model[r].get(q), "{stage}: get {r:?}/{q:?}");
            }
        }
        let scanned: Vec<(Vec<u8>, Vec<u8>, Bytes)> = s
            .scan_range(&KeyRange::all(), usize::MAX)
            .into_iter()
            .flat_map(|(r, cells)| {
                cells
                    .into_iter()
                    .map(move |(q, v)| (r.as_bytes().to_vec(), q.as_bytes().to_vec(), v))
            })
            .collect();
        let want: Vec<(Vec<u8>, Vec<u8>, Bytes)> = model
            .iter()
            .flat_map(|(r, cells)| cells.iter().map(|(q, v)| (r.clone(), q.clone(), v.clone())))
            .collect();
        assert_eq!(scanned, want, "{stage}: full scan");
        // A two-row scan from each row start.
        for (at, r) in sorted.iter().enumerate() {
            let from: Vec<Vec<u8>> = s
                .scan(&RowKey::from(r.as_slice()), 2)
                .into_iter()
                .map(|(row, _)| row.as_bytes().to_vec())
                .collect();
            assert_eq!(from, sorted[at..(at + 2).min(sorted.len())], "{stage}: scan from {r:?}");
        }
    };
    check(&s, "before the crash");
    let (recovered, report) =
        CfStore::recover(s.crash(), SharedBlockCache::new(1 << 20), FileIdAllocator::new())
            .expect("clean recovery");
    assert_eq!(report.replayed_records, rows.len().div_ceil(2) as u64 + 1);
    check(&recovered, "after recovery");
}
