#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! A YCSB-style workload generator for the MeT reproduction.
//!
//! Implements the core-workload model of Cooper et al. (SoCC'10) with the
//! six workloads of the paper's §3.1 (including the authors' modifications
//! to B and D), the hotspot request distribution, per-workload thread
//! counts and throughput caps from §3.2, and two execution paths:
//!
//! * [`client`] — a functional client running real operations against the
//!   functional cluster layer (semantic validation).
//! * [`demand`] — deployment into the cluster simulation as closed-loop
//!   client groups (the path the paper-figure experiments use).

pub mod client;
pub mod demand;
pub mod measurement;
pub mod presets;
pub mod workload;

pub use client::{FunctionalClient, OpStats};
pub use demand::{deploy, partition_heat, DeployedWorkload};
pub use measurement::{LatencyStats, WorkloadReport};
pub use workload::{Proportions, RequestDistribution, WorkloadSpec};
