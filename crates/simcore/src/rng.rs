//! Seeded, splittable random-number streams.
//!
//! Every stochastic component in the simulation (key distributions, the
//! randomized HBase balancer, service-time jitter, VM boot-time jitter)
//! derives its own independent stream from a single experiment seed. This
//! guarantees that adding a new consumer of randomness does not perturb the
//! draws seen by existing components, which keeps regression tests and the
//! paper-figure experiments stable.
//!
//! The generator is SplitMix64 (Steele et al., "Fast splittable pseudorandom
//! number generators") — tiny, fast, and good enough for workload synthesis;
//! we do not need cryptographic quality.

use rand::{Error, RngCore, SeedableRng};

/// A deterministic 64-bit PRNG with cheap stream derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from an experiment seed.
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point by mixing in a constant.
        SimRng { state: seed ^ 0x9e37_79b9_7f4a_7c15 }
    }

    /// Derives an independent sub-stream identified by `label`.
    ///
    /// Equal `(seed, label)` pairs always produce identical streams; distinct
    /// labels produce streams that are uncorrelated for practical purposes.
    pub fn derive(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        SimRng::new(self.state.wrapping_add(h))
    }

    /// Derives an independent sub-stream identified by an index.
    pub fn derive_idx(&self, idx: u64) -> SimRng {
        SimRng::new(self.state ^ splitmix(idx.wrapping_add(0x51ed_270b)))
    }

    /// Forks a keyed sub-stream for an independent owner (e.g. one simulated
    /// server), without consuming any draws from `self`.
    ///
    /// Every owner gets exactly one forked stream, keyed by a stable
    /// identifier, so the draws made on its behalf do not depend on what
    /// any sibling drew or on the order siblings are visited in. The
    /// forking rules (see DESIGN.md "Determinism"):
    ///
    /// 1. fork from an *immutable* base stream, keyed by a stable ID — never
    ///    from a mutable parent (that would make the child depend on how
    ///    many siblings were forked before it);
    /// 2. equal `(base, label)` always yields the identical stream;
    /// 3. `fork` uses a finalized SplitMix64 mix of the label hash, a
    ///    different construction than [`SimRng::derive`], so forked streams
    ///    never collide with derived streams for the same label.
    pub fn fork(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        SimRng { state: splitmix(self.state ^ h).wrapping_add(0x9e37_79b9_7f4a_7c15) }
    }

    /// Next raw 64-bit draw.
    // The name intentionally mirrors `RngCore::next_u64`; `SimRng` is not an
    // iterator and is never used through one.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix(self.state)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 top bits → uniform double in [0,1).
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in `[0, n)`. Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0)");
        // Multiply-shift rejection-free mapping (Lemire); bias is < 2^-64·n,
        // which is negligible for simulation purposes.
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    /// A uniform draw in the inclusive range `[lo, hi]`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "next_range lo > hi");
        lo + self.next_below(hi - lo + 1)
    }

    /// A Bernoulli trial with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        let n = items.len();
        for i in (1..n).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.next_below(items.len() as u64) as usize]
    }

    /// An approximately normal draw via the sum of 12 uniforms
    /// (Irwin–Hall); ample accuracy for service-time jitter.
    pub fn next_gaussian(&mut self, mean: f64, stddev: f64) -> f64 {
        let s: f64 = (0..12).map(|_| self.next_f64()).sum();
        mean + (s - 6.0) * stddev
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.next()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for SimRng {
    type Seed = [u8; 8];
    fn from_seed(seed: Self::Seed) -> Self {
        SimRng::new(u64::from_le_bytes(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn derived_streams_do_not_interfere() {
        let root = SimRng::new(7);
        let mut x1 = root.derive("ycsb");
        let mut y = root.derive("balancer");
        let _ = y.next(); // Consuming one stream...
        let mut x2 = root.derive("ycsb");
        // ...must not change the other.
        assert_eq!(x1.next(), x2.next());
    }

    #[test]
    fn distinct_labels_give_distinct_streams() {
        let root = SimRng::new(7);
        let a = root.derive("a").next();
        let b = root.derive("b").next();
        assert_ne!(a, b);
    }

    #[test]
    fn forked_streams_are_stable_and_independent() {
        let base = SimRng::new(7).derive("server-streams");
        let mut a1 = base.fork("server-3");
        let mut other = base.fork("server-4");
        let _ = other.next(); // Consuming a sibling...
        let mut a2 = base.fork("server-3");
        // ...must not change this stream.
        assert_eq!(a1.next(), a2.next());
    }

    #[test]
    fn fork_differs_from_derive_for_same_label() {
        let base = SimRng::new(7);
        let f = base.fork("server-1").next();
        let d = base.derive("server-1").next();
        assert_ne!(f, d, "fork and derive must occupy disjoint stream spaces");
    }

    #[test]
    fn distinct_fork_labels_give_distinct_streams() {
        let base = SimRng::new(7);
        let a = base.fork("server-1").next();
        let b = base.fork("server-2").next();
        assert_ne!(a, b);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::new(1);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_below_respects_bound_and_is_roughly_uniform() {
        let mut r = SimRng::new(3);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[r.next_below(5) as usize] += 1;
        }
        for c in counts {
            // Each bucket expects 10 000; allow ±10 %.
            assert!((9_000..11_000).contains(&c), "skewed bucket: {c}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn gaussian_moments_are_close() {
        let mut r = SimRng::new(13);
        let n = 100_000;
        let draws: Vec<f64> = (0..n).map(|_| r.next_gaussian(10.0, 2.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }
}
