#![warn(missing_docs)]

//! An HBase-like storage engine, built from scratch for the MeT
//! reproduction.
//!
//! This crate provides the single-node storage substrate the paper's system
//! manages: the HBase data model (§2.1 of the paper) — a multi-dimensional
//! sorted map indexed by row key, column and timestamp — implemented as a
//! real LSM engine:
//!
//! * [`memstore`] — the in-memory write buffer, flushed at a threshold.
//! * [`hfile`] — immutable block-structured sorted files with Bloom
//!   filters ([`bloom`]).
//! * [`block_cache`] — the per-server LRU block cache, the read-path knob
//!   MeT tunes per node profile.
//! * [`store`] — the per-column-family LSM store: merge reads, scans,
//!   flushes, minor/major compactions.
//! * [`maintenance`] — the background maintenance pipeline: async flush
//!   and parallel compaction off the write path, with HBase-style
//!   backpressure (bounded frozen queue, blocking-store-files limit) and
//!   stall/queue/debt accounting for the monitor.
//! * [`region`] — key-range partitions with per-type request counters, the
//!   unit of placement MeT moves between servers.
//! * [`config`] — RegionServer configuration with the documented
//!   cache+memstore ≤ 65 % heap rule.
//!
//! * [`wal`] — the per-store write-ahead log: length-prefixed,
//!   CRC-32C-checksummed records, group commit with a modeled fsync cost,
//!   rotation on flush and truncation once the flush is durable. Paired
//!   with [`store::CfStore::recover`], which replays surviving records
//!   into a fresh memstore (truncating a torn tail, never panicking) and
//!   verifies HFile block checksums so bit-rot surfaces as a typed
//!   [`error::HStoreError::Corruption`].
//!
//! What is intentionally *not* here: compression (a constant factor the
//! paper does not vary).

pub mod block_cache;
pub mod bloom;
pub mod config;
pub mod error;
pub mod hfile;
pub mod maintenance;
pub mod memstore;
pub mod region;
pub mod store;
pub mod types;
pub mod wal;

pub use block_cache::{
    Access, AccessCounter, BlockCache, BlockId, CacheStats, FileId, SharedBlockCache,
};
pub use config::{ConfigError, StoreConfig, HEAP_BUDGET_CAP};
pub use error::{CorruptionKind, HStoreError, Result, StoreError};
pub use maintenance::{MaintenanceConfig, MaintenanceSnapshot};
pub use region::{Region, RegionCounters, RegionId};
pub use store::{
    CfStore, CompactionOutcome, DurableState, FileIdAllocator, FlushOutcome, OpStats,
    RecoveryReport, StoreReader, StoreSnapshot, WAL_FILE_ID_BASE,
};
pub use types::{Family, KeyRange, Qualifier, RowKey, Timestamp};
pub use wal::{ReplayStop, Wal, WalConfig, WalRecord, WalReplay, WalStats};
