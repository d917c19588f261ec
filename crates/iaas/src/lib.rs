#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! An OpenStack-like IaaS simulation.
//!
//! MeT's prototype drives OpenStack to start and stop the virtual machines
//! that host RegionServers (§5 of the paper). This crate wraps a
//! [`cluster::SimCluster`] with exactly that surface: named flavors, an
//! instance quota, asynchronous boot with a provisioning delay and VM
//! termination. The system metrics MeT reads through Ganglia (§4.1) are
//! the per-server rows of the wrapped cluster's
//! [`cluster::admin::ClusterSnapshot`].
//!
//! The wrapper itself implements [`cluster::ElasticCluster`], so a control
//! plane is oblivious to whether it manages the database directly (zero
//! boot delay) or through the cloud (§4.3: "if we are using a IaaS system
//! it means first starting a virtual machine, and only after the NoSQL
//! database").

pub mod cloud;

pub use cloud::{CloudCluster, CloudError, Flavor, Quota, VmId, VmRecord, VmState};
