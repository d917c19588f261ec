//! Umbrella crate for the MeT reproduction workspace.
//!
//! Re-exports every member crate so examples and integration tests can use a
//! single dependency. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record.

#![forbid(unsafe_code)]

pub use baselines;
pub use cluster;
pub use dfs;
pub use hstore;
pub use iaas;
pub use met;
pub use simcore;
pub use tpcc;
pub use ycsb;
