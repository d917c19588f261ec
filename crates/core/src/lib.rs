#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! MeT: workload-aware elasticity for NoSQL — the control plane.
//!
//! This crate is the paper's contribution (Cruz et al., EuroSys 2013),
//! implemented exactly as specified:
//!
//! * [`monitor`] — §4.1: system metrics (Ganglia path) + NoSQL metrics
//!   (JMX path: per-partition read/write/scan counters, locality index),
//!   exponentially smoothed, reset after every actuator action.
//! * [`decision`] — §4.2: stages A–D. Algorithm 1 (quadratic node
//!   addition, linear removal, `SubOptimalNodesThreshold` fast path,
//!   InitialReconfiguration), the distribution algorithm
//!   (classification → grouping → Algorithm 2 LPT assignment), and
//!   Algorithm 3 output computation.
//! * [`mod@classify`] / [`grouping`] / [`assignment`] / [`output`] — the
//!   stage implementations, individually testable.
//! * [`actuator`] — §4.3/§5: incremental reconfiguration (drain, restart,
//!   move in), locality-triggered major compactions (70 % / 90 %),
//!   provisioning and decommissioning through the IaaS or directly.
//! * [`profiles`] — Table 1's four node configuration profiles.
//! * [`framework`] — the assembled loop with the paper's timing (30 s
//!   samples, 6-sample decisions).
//!
//! MeT is generic over [`cluster::ElasticCluster`], the paper's Fig. 2
//! NoSQL/IaaS interface — it runs identically against the raw simulated
//! cluster or the OpenStack-like wrapper in the `iaas` crate.

pub mod actuator;
pub mod assignment;
pub mod classify;
pub mod config;
pub mod decision;
pub mod framework;
pub mod grouping;
pub mod monitor;
pub mod output;
pub mod profiles;
pub mod properties;

pub use actuator::{Actuator, ActuatorStats};
pub use classify::{classify, PartitionRates};
pub use config::MetConfig;
pub use decision::{Decision, DecisionMaker, HealthAssessment};
pub use framework::{Met, MetEvent};
pub use monitor::{Monitor, MonitorReport};
pub use output::{compute_output, CurrentNode, OutputPlan, SuggestedNode};
pub use profiles::ProfileKind;
pub use properties::{parse_properties, to_properties, PropertiesError};
