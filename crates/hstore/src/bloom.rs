//! A per-file row-key Bloom filter.
//!
//! HBase stores optional Bloom filters in each HFile so point reads can skip
//! files that cannot contain the probed row. Our store enables them
//! unconditionally: they matter for read-path cost (a get touches only files
//! whose filter admits the row) and therefore for the cache/IO model.

/// A fixed-size Bloom filter over row keys.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    num_hashes: u32,
    entries: u64,
}

impl BloomFilter {
    /// Creates a filter sized for `expected_entries` at roughly 1 % false
    /// positives (10 bits/key, 7 hashes — the classic sizing).
    pub fn with_capacity(expected_entries: usize) -> Self {
        let num_bits = Self::bits_for(expected_entries);
        BloomFilter {
            bits: vec![0u64; (num_bits as usize).div_ceil(64)],
            num_bits,
            num_hashes: 7,
            entries: 0,
        }
    }

    fn bits_for(entries: usize) -> u64 {
        (entries.max(1) as u64 * 10).next_power_of_two()
    }

    /// Whether [`BloomFilter::with_capacity`]`(entries)` would pick this
    /// filter's size — and so, given the same keys, set the same bits.
    pub(crate) fn sized_for(&self, entries: usize) -> bool {
        self.num_bits == Self::bits_for(entries)
    }

    fn hashes(&self, key: &[u8]) -> (u64, u64) {
        // Two independent FNV-style hashes; double hashing generates the rest.
        let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
        let mut h2: u64 = 0x84222325_cbf29ce4;
        for &b in key {
            h1 = (h1 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            h2 = (h2 ^ b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (h2 >> 29);
        }
        (h1, h2 | 1)
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        let (h1, h2) = self.hashes(key);
        for i in 0..self.num_hashes {
            let bit = h1.wrapping_add(h2.wrapping_mul(i as u64)) & (self.num_bits - 1);
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
        self.entries += 1;
    }

    /// True when the key *may* be present; false means definitely absent.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let (h1, h2) = self.hashes(key);
        (0..self.num_hashes).all(|i| {
            let bit = h1.wrapping_add(h2.wrapping_mul(i as u64)) & (self.num_bits - 1);
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// Number of inserted keys.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Filter size in bytes (part of a file's metadata footprint).
    pub fn byte_size(&self) -> usize {
        self.bits.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::with_capacity(10);
        assert!(!f.may_contain(b"anything"));
        assert_eq!(f.entries(), 0);
    }
}
