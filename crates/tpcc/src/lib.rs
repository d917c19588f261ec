#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! A PyTPCC-style TPC-C implementation over the MeT reproduction's store.
//!
//! §6.3 of the paper evaluates MeT's versatility with PyTPCC, an HBase port
//! of TPC-C offering record-level atomicity only. This crate mirrors it:
//!
//! * [`schema`] — the nine tables with warehouse-prefixed composite keys.
//! * [`loader`] — database population (30 warehouses ≈ 15 GB at paper
//!   scale; a tiny scale for tests).
//! * [`txn`] — the five transactions with the standard 45/43/4/4/4 mix and
//!   the paper's 8 % read-only / 92 % update profile, executed for real
//!   against the functional cluster.
//! * [`demand`] — the simulation deployment used by the Table 2
//!   experiment, with per-kind partition weights derived from the
//!   transactions' storage footprints.

pub mod demand;
pub mod loader;
pub mod schema;
pub mod txn;

pub use demand::{deploy, tpmc_from_txn_rate, TpccDeployment};
pub use schema::{Table, TpccScale};
pub use txn::{TxnCounts, TxnExecutor, TxnKind};
