//! Seeded operation streams.
//!
//! `--seed` reaches exactly two things: the YCSB mix/key draws here and
//! the scenario seeds of the control-loop workload. The engine under test
//! only ever receives the generated operations. Streams are generated in
//! batches *outside* the timed call, so generation cost never shows up in
//! a latency or throughput figure (it is reported on its own as
//! `ycsb.client.gen_ns`).

use bytes::Bytes;
use hstore::{Qualifier, RowKey};
use simcore::dist::{Dist, KeyDistribution};
use simcore::SimRng;
use ycsb::{Proportions, RequestDistribution, WorkloadSpec};

/// Bytes per stored value (YCSB's 100-byte field).
pub const VALUE_BYTES: usize = 100;

/// The column every benchmark cell lives in — the one
/// `ycsb::FunctionalClient` addresses with `field_count == 1`.
pub fn qualifier() -> Qualifier {
    Qualifier::from("field0")
}

/// Bytes the engine accounts for one benchmark cell (`CellVersion::
/// heap_size`: 14-byte row key, 6-byte qualifier, 8-byte timestamp, the
/// value and 16 bytes of framing) — the "user byte" every amplification
/// figure divides by.
pub const fn cell_bytes() -> u64 {
    14 + 6 + 8 + VALUE_BYTES as u64 + 16
}

/// A 100-byte value whose first 8 bytes carry `seq` (little endian), so a
/// read can be checked against the last acknowledged write of its key.
pub fn value_with_seq(seq: u64) -> Bytes {
    let mut v = vec![b'v'; VALUE_BYTES];
    v[..8].copy_from_slice(&seq.to_le_bytes());
    Bytes::from(v)
}

/// The sequence number a value carries, if it has the benchmark's shape.
pub fn seq_of(value: &[u8]) -> Option<u64> {
    if value.len() != VALUE_BYTES {
        return None;
    }
    value[..8].try_into().ok().map(u64::from_le_bytes)
}

/// One client operation, fully materialized before the timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Point read of record `idx`.
    Get {
        /// Record index (routes mirrors and models without string work).
        idx: u64,
        /// The record's row key.
        row: RowKey,
    },
    /// Scan of up to `len` rows from `start`.
    Scan {
        /// Record index of the start key.
        idx: u64,
        /// Inclusive start row.
        start: RowKey,
        /// Row limit, drawn uniformly from `1..=max_scan_len`.
        len: usize,
    },
    /// Write of record `idx` (an update, or an insert past the loaded
    /// key space) carrying sequence number `seq` in its value.
    Put {
        /// Record index.
        idx: u64,
        /// The record's row key.
        row: RowKey,
        /// Stream-wide write sequence number (1-based).
        seq: u64,
        /// The 100-byte value, `seq` embedded.
        value: Bytes,
    },
}

/// The benchmark's YCSB workload shapes over `records` loaded rows of one
/// 100-byte field each. `name` picks the mix: `"C"` (100 % read, the
/// paper's hotspot distribution), `"E"` (95 % scan of 1..=100 rows, 5 %
/// insert, hotspot) or `"RW"` (50 % read, 50 % update, uniform keys).
pub fn spec(name: &str, records: u64) -> WorkloadSpec {
    let (proportions, request_dist, max_scan_len) = match name {
        "C" => (prop(1.0, 0.0, 0.0, 0.0), RequestDistribution::HotspotPaper, 1),
        "E" => (prop(0.0, 0.0, 0.05, 0.95), RequestDistribution::HotspotPaper, 100),
        "RW" => (prop(0.5, 0.5, 0.0, 0.0), RequestDistribution::Uniform, 1),
        other => panic!("unknown benchmark mix '{other}'"),
    };
    proportions.validate();
    WorkloadSpec {
        name: name.into(),
        table: "usertable".into(),
        records,
        field_count: 1,
        field_bytes: VALUE_BYTES as u32,
        proportions,
        request_dist,
        max_scan_len,
        threads: 1,
        target_ops_per_sec: None,
        partitions: 4,
    }
}

fn prop(read: f64, update: f64, insert: f64, scan: f64) -> Proportions {
    Proportions { read, update, insert, scan, read_modify_write: 0.0 }
}

/// The row key of record `idx` under `spec`.
pub fn row_key(spec: &WorkloadSpec, idx: u64) -> RowKey {
    RowKey::from(spec.row_key(idx))
}

/// A seeded generator of [`Op`]s following a [`WorkloadSpec`], drawing
/// exactly as `ycsb::FunctionalClient::run_ops` does (mix draw, then key,
/// then scan length) but emitting the operation instead of executing it.
pub struct OpGen {
    spec: WorkloadSpec,
    dist: Dist,
    rng: SimRng,
    record_count: u64,
    next_seq: u64,
}

impl OpGen {
    /// A generator for `spec` seeded from `seed`; `stream` separates the
    /// independent streams of one run (measured window, replay, ...).
    pub fn new(spec: WorkloadSpec, seed: u64, stream: &str) -> Self {
        let dist = spec.request_dist.build(spec.records.max(1));
        let rng = SimRng::new(seed).derive(&format!("met-benchmark/{}/{stream}", spec.name));
        OpGen { record_count: spec.records, dist, rng, spec, next_seq: 1 }
    }

    fn next_idx(&mut self) -> u64 {
        self.dist.next_index(&mut self.rng).min(self.record_count - 1)
    }

    fn put(&mut self, idx: u64) -> Op {
        let seq = self.next_seq;
        self.next_seq += 1;
        Op::Put { idx, row: row_key(&self.spec, idx), seq, value: value_with_seq(seq) }
    }

    /// The next operation of the stream.
    pub fn next_op(&mut self) -> Op {
        let p = self.spec.proportions;
        let r = self.rng.next_f64();
        if r < p.read {
            let idx = self.next_idx();
            Op::Get { idx, row: row_key(&self.spec, idx) }
        } else if r < p.read + p.update {
            let idx = self.next_idx();
            self.put(idx)
        } else if r < p.read + p.update + p.insert {
            let idx = self.record_count;
            self.record_count += 1;
            self.dist.grow(self.record_count);
            self.put(idx)
        } else {
            let idx = self.next_idx();
            let len = self.rng.next_range(1, self.spec.max_scan_len.max(1) as u64) as usize;
            Op::Scan { idx, start: row_key(&self.spec, idx), len }
        }
    }

    /// The next `n` operations.
    pub fn batch(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        for mix in ["C", "E", "RW"] {
            let a = OpGen::new(spec(mix, 10_000), 42, "t").batch(2_000);
            let b = OpGen::new(spec(mix, 10_000), 42, "t").batch(2_000);
            assert_eq!(a, b, "mix {mix}");
            let c = OpGen::new(spec(mix, 10_000), 43, "t").batch(2_000);
            assert_ne!(a, c, "mix {mix}: another seed gives another stream");
        }
    }

    #[test]
    fn streams_of_one_seed_are_independent() {
        let a = OpGen::new(spec("C", 10_000), 1, "window").batch(500);
        let b = OpGen::new(spec("C", 10_000), 1, "replay").batch(500);
        assert_ne!(a, b);
    }

    #[test]
    fn mixes_have_the_declared_shape() {
        let ops = OpGen::new(spec("E", 10_000), 7, "t").batch(20_000);
        let scans = ops.iter().filter(|o| matches!(o, Op::Scan { .. })).count();
        let puts: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Put { idx, .. } => Some(*idx),
                _ => None,
            })
            .collect();
        assert!((18_500..19_500).contains(&scans), "{scans} scans");
        assert_eq!(scans + puts.len(), ops.len());
        // Inserts extend the key space one record at a time.
        assert!(puts.iter().enumerate().all(|(i, idx)| *idx == 10_000 + i as u64));
        assert!(ops.iter().all(|o| match o {
            Op::Scan { len, .. } => (1..=100).contains(len),
            _ => true,
        }));

        let ops = OpGen::new(spec("RW", 1_000), 7, "t").batch(10_000);
        let gets = ops.iter().filter(|o| matches!(o, Op::Get { .. })).count();
        assert!((4_700..5_300).contains(&gets), "{gets} gets");
        assert!(ops.iter().all(|o| match o {
            Op::Get { idx, .. } | Op::Put { idx, .. } => *idx < 1_000,
            Op::Scan { .. } => false,
        }));
    }

    #[test]
    fn values_carry_their_sequence_number() {
        let ops = OpGen::new(spec("RW", 100), 3, "t").batch(200);
        let mut expect = 1;
        for op in &ops {
            if let Op::Put { seq, value, .. } = op {
                assert_eq!(*seq, expect);
                assert_eq!(seq_of(value), Some(expect));
                expect += 1;
            }
        }
        assert_eq!(seq_of(b"short"), None);
    }
}
