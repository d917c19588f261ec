//! `met-benchmark`: five named workloads with end-to-end and per-layer
//! metrics for the two pipelines of this repository — a YCSB operation
//! through `FunctionalCluster` → `Region` → `CfStore` → WAL / maintenance,
//! and a MeT control tick over `SimCluster`.
//!
//! The benchmark is a package of its own (own `[workspace]`, own lock
//! file) and only calls the engine's public functions: spans are recorded
//! here, around those calls, never inside the program. See `README.md`
//! for the layer list and which end-to-end metric each layer metric is
//! expected to move.

pub mod cli;
pub mod gen;
pub mod harness;
pub mod host;
pub mod metrics;
pub mod stats;
pub mod workloads;
