//! A per-file row-key Bloom filter, and the row hash every row filter in
//! the store shares.
//!
//! HBase stores optional Bloom filters in each HFile so point reads can skip
//! files that cannot contain the probed row. Our store enables them
//! unconditionally: they matter for read-path cost (a get touches only files
//! whose filter admits the row) and therefore for the cache/IO model.
//!
//! # Layout and sizing
//!
//! The filter is cache-line blocked: an array of 512-bit lines, 64-byte
//! aligned, and all seven bits of a key sit in the one line its hash picks,
//! so a probe reads one cache line where a classic filter reads seven. The
//! line is chosen by the high half of [`row_hash`], the bit positions by a
//! multiplicative sequence over the low half, so a get hashes its row once
//! for every file it probes and for the memstore row filters.
//!
//! [`BloomFilter::with_capacity`]`(n)` allots 10 bits per key rounded *up*
//! to a power of two — between 10 and 20 bits per key, e.g. 2^20 bits
//! (12.6 per key) for the 83 333 rows of a benchmark file — and a filter
//! that would be smaller than one line gets one whole line, so up to 51 keys
//! share 512 bits. Blocking costs a little accuracy, because keys crowd
//! some lines more than others: over a million absent benchmark-shaped
//! rows the false-positive rate is 0.94 % at 10 bits per key, 0.32 % at
//! 12.6 and 0.03 % at 20, where the unblocked seven-probe filter this
//! layout replaced read 0.77 %, 0.27 % and 0.02 %; 51 keys in one line
//! read 0.77 % either way. `false_positive_rate_tracks_the_sizing` holds
//! the rates under bounds.

/// Bits in one line of the filter: one 64-byte cache line.
const LINE_BITS: u64 = 512;

/// Bits set per key, all in one line.
const HASHES: u32 = 7;

/// A 64-byte-aligned block of filter bits.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(64))]
struct Line([u64; 8]);

/// A row's 64-bit hash, read a word at a time; both halves depend on every
/// input bit. The file [`BloomFilter`] and the memstore row filter both
/// take their bit positions from it, so a point get computes it once.
pub(crate) fn row_hash(row: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("an 8-byte chunk"));
    let mut h = row.len() as u64;
    // The last word is the row's last eight bytes, overlapping the words
    // before it: padding a short tail into a buffer costs a `memcpy` call,
    // more than the rest of the hash.
    let last = if row.len() >= 8 {
        for w in row[..row.len() - 1].chunks_exact(8) {
            h = (h ^ word(w)).wrapping_mul(K).rotate_left(29);
        }
        word(&row[row.len() - 8..])
    } else {
        row.iter().rev().fold(0, |t, &b| t << 8 | b as u64)
    };
    h = (h ^ last).wrapping_mul(K);
    // The murmur3 finalizer, so both halves depend on every input bit.
    h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A fixed-size, cache-line-blocked Bloom filter over row keys.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    /// A power-of-two number of lines.
    lines: Box<[Line]>,
    entries: u64,
}

impl BloomFilter {
    /// Creates a filter sized for `expected_entries` (see the module docs
    /// for the sizing and its false-positive rates).
    pub fn with_capacity(expected_entries: usize) -> Self {
        let lines = Self::bits_for(expected_entries) / LINE_BITS;
        BloomFilter { lines: vec![Line::default(); lines as usize].into(), entries: 0 }
    }

    fn bits_for(entries: usize) -> u64 {
        (entries.max(1) as u64 * 10).next_power_of_two().max(LINE_BITS)
    }

    /// Whether [`BloomFilter::with_capacity`]`(entries)` would pick this
    /// filter's size — and so, given the same keys, set the same bits.
    pub(crate) fn sized_for(&self, entries: usize) -> bool {
        self.lines.len() as u64 * LINE_BITS == Self::bits_for(entries)
    }

    /// The line a key hashed to `hash` lives in.
    fn line(&self, hash: u64) -> usize {
        (hash >> 32) as usize & (self.lines.len() - 1)
    }

    /// The key's bit positions within its line: the top nine bits of each
    /// step of a 32-bit multiplicative sequence seeded by the hash's low half.
    fn bits(hash: u64) -> impl Iterator<Item = usize> {
        let mut h = hash as u32;
        (0..HASHES).map(move |_| {
            let bit = (h >> 23) as usize;
            h = h.wrapping_mul(0x9e37_79b9);
            bit
        })
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        self.insert_hash(row_hash(key));
    }

    /// Inserts the key whose [`row_hash`] is `hash`.
    pub(crate) fn insert_hash(&mut self, hash: u64) {
        let line = self.line(hash);
        let words = &mut self.lines[line].0;
        for bit in Self::bits(hash) {
            words[bit / 64] |= 1 << (bit % 64);
        }
        self.entries += 1;
    }

    /// True when the key *may* be present; false means definitely absent.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.may_contain_hash(row_hash(key))
    }

    /// [`BloomFilter::may_contain`] for the key whose [`row_hash`] is `hash`.
    pub(crate) fn may_contain_hash(&self, hash: u64) -> bool {
        let words = &self.lines[self.line(hash)].0;
        Self::bits(hash).all(|bit| words[bit / 64] & (1 << (bit % 64)) != 0)
    }

    /// Number of inserted keys.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Filter size in bytes (part of a file's metadata footprint).
    pub fn byte_size(&self) -> usize {
        self.lines.len() * std::mem::size_of::<Line>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(1_000);
        for i in 0..1_000u32 {
            f.insert(format!("user{i:06}").as_bytes());
        }
        for i in 0..1_000u32 {
            assert!(f.may_contain(format!("user{i:06}").as_bytes()));
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut f = BloomFilter::with_capacity(10_000);
        for i in 0..10_000u32 {
            f.insert(format!("key{i}").as_bytes());
        }
        let fp =
            (10_000..100_000u32).filter(|i| f.may_contain(format!("key{i}").as_bytes())).count();
        let rate = fp as f64 / 90_000.0;
        assert!(rate < 0.03, "false positive rate {rate}");
    }

    /// Inserts `keys` benchmark-shaped rows (`user` + ten digits, at even
    /// indices) into a filter sized for them and returns the share of
    /// 200 000 odd, never-inserted rows it admits.
    fn false_positive_rate(keys: u64) -> f64 {
        let row = |i: u64| format!("user{i:010}");
        let mut f = BloomFilter::with_capacity(keys as usize);
        for i in 0..keys {
            f.insert(row(2 * i).as_bytes());
        }
        let absent = 200_000;
        let admitted = (0..absent).filter(|i| f.may_contain(row(2 * i + 1).as_bytes())).count();
        admitted as f64 / absent as f64
    }

    #[test]
    fn false_positive_rate_tracks_the_sizing() {
        // 6 553 keys get 2^16 bits (10.0 per key), 83 333 — a benchmark
        // file — 2^20 (12.6), 6 554 get 2^17 (20.0); the module docs give
        // the rates measured over a million rows.
        for (keys, bits, below) in [(6_553, 1 << 16, 0.013), (83_333, 1 << 20, 0.005)] {
            let f = BloomFilter::with_capacity(keys as usize);
            assert_eq!(f.byte_size() * 8, bits);
            let rate = false_positive_rate(keys);
            assert!(rate < below, "{keys} keys: false-positive rate {rate}");
        }
        let rate = false_positive_rate(6_554);
        assert!(rate < 0.001, "6 554 keys: false-positive rate {rate}");
    }

    #[test]
    fn a_filter_smaller_than_a_line_gets_one_whole_line() {
        for keys in [0, 1, 13, 51] {
            let f = BloomFilter::with_capacity(keys);
            assert_eq!(f.byte_size(), 64);
            assert!(f.sized_for(keys) && f.sized_for(1));
        }
        let f = BloomFilter::with_capacity(52);
        assert_eq!(f.byte_size(), 128);
        assert!(!f.sized_for(51));
        // 51 keys in one line still reject most absent ones.
        assert!(false_positive_rate(51) < 0.02);
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::with_capacity(10);
        assert!(!f.may_contain(b"anything"));
        assert_eq!(f.entries(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every inserted key is admitted, whichever entry point inserted
        /// it and whichever asks: the hashed and the unhashed ones are the
        /// same filter.
        #[test]
        fn hashed_and_unhashed_entry_points_have_no_false_negatives(
            keys in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 1..300),
            hashed in prop::collection::vec(any::<bool>(), 300..301),
            capacity in 1usize..400,
        ) {
            let mut f = BloomFilter::with_capacity(capacity);
            for (key, &by_hash) in keys.iter().zip(&hashed) {
                if by_hash {
                    f.insert_hash(row_hash(key));
                } else {
                    f.insert(key);
                }
            }
            for key in &keys {
                prop_assert!(f.may_contain(key), "{:?} rejected", key);
                prop_assert!(f.may_contain_hash(row_hash(key)), "{:?} rejected by hash", key);
            }
            for i in 0..200u32 {
                let probe = i.to_le_bytes();
                prop_assert_eq!(f.may_contain(&probe), f.may_contain_hash(row_hash(&probe)));
            }
        }
    }
}
