#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! The distributed NoSQL cluster substrate of the MeT reproduction.
//!
//! Two cooperating layers:
//!
//! * [`functional`] — a real distributed table store over
//!   [`hstore`] regions: routing by row key, region splits, moves, per-server
//!   block caches. Used by the YCSB/TPC-C drivers and examples to prove the
//!   substrate actually stores and serves data.
//! * [`sim`] — the tick-driven cluster simulation used by the experiments:
//!   metadata partitions, the mechanistic performance model of [`model`],
//!   simulated HDFS locality, and the management actions whose costs the
//!   paper measures (restarts, moves, major compactions, provisioning).
//!
//! Control planes (MeT, tiramola, the manual strategies) drive either layer
//! through the [`admin::ElasticCluster`] trait — Fig. 2's NoSQL interface.

pub mod admin;
pub mod functional;
pub mod functional_elastic;
pub mod latency;
pub mod model;
pub mod sim;
pub mod types;

pub use admin::{
    AdminError, ClusterSnapshot, ElasticCluster, HealthView, PartitionMetrics, ServerHealth,
    ServerMetrics, ServerStatus,
};
pub use functional_elastic::FunctionalElastic;
pub use latency::{op_service_ms, LatencyMixture, LatencySummary};
pub use model::{CostParams, PartitionDemand};
pub use sim::{ClientGroup, PartitionSpec, SimCluster};
pub use types::{OpKind, OpMix, PartitionCounters, PartitionId, ServerId};
