#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! An OpenStack-like IaaS simulation.
//!
//! MeT's prototype drives OpenStack to start and stop the virtual machines
//! that host RegionServers (§5 of the paper), and reads system metrics
//! (CPU, memory, I/O wait) through Ganglia (§4.1). This crate wraps a
//! [`cluster::SimCluster`] with exactly that surface: named flavors, an
//! instance quota, asynchronous boot with a provisioning delay, VM
//! termination, and a Ganglia-style system-metrics view.
//!
//! The wrapper itself implements [`cluster::ElasticCluster`], so a control
//! plane is oblivious to whether it manages the database directly (zero
//! boot delay) or through the cloud (§4.3: "if we are using a IaaS system
//! it means first starting a virtual machine, and only after the NoSQL
//! database").

pub mod cloud;
pub mod ganglia;

pub use cloud::{CloudCluster, CloudError, Flavor, Quota, VmId, VmRecord, VmState};
pub use ganglia::{GangliaReport, SystemMetrics};
