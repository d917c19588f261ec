#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! A simulated HDFS for the MeT reproduction.
//!
//! HBase stores each region's files in HDFS (§2.1 of the paper);
//! RegionServers are co-located with DataNodes so that, right after a flush
//! or major compaction, a region's data is locally readable. When the
//! balancer (or MeT) moves a region to another server, its files stay where
//! they were written and reads cross the network until a *major compact*
//! rewrites them locally — this is exactly the locality-index signal MeT's
//! actuator watches (70 % threshold for write-profile nodes, 90 % for the
//! rest, §5).
//!
//! The simulation tracks, per store file, which DataNodes hold replicas.
//! Placement follows HDFS defaults: first replica on the writer's local
//! DataNode, the rest on distinct random nodes. Decommissioning a node
//! re-replicates its blocks elsewhere.

pub mod namenode;

pub use namenode::{DataNodeId, DfsError, DfsFileId, Namenode};
