#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Simulation kernel shared by every crate in the MeT reproduction.
//!
//! The original MeT system (EuroSys 2013) drives a physical HBase/OpenStack
//! cluster. This workspace replaces that infrastructure with a deterministic
//! discrete-time simulation; `simcore` provides the primitives everything
//! else is built on:
//!
//! * [`clock`] — simulated time ([`SimTime`], [`SimDuration`]).
//! * [`fault`] — deterministic fault injection: seeded [`FaultPlan`]
//!   scripts consumed through the shared [`FaultInjector`] handle.
//! * [`rng`] — seeded, splittable random-number streams so that every
//!   experiment is reproducible from a single `u64` seed.
//! * [`dist`] — the YCSB key-request distributions (uniform, zipfian,
//!   latest, hotspot).
//! * [`smoothing`] — Brown's exponential smoothing, used by MeT's monitor
//!   (§4.1 of the paper).
//! * [`stats`] — percentile/CDF summaries.
//! * [`timeseries`] — time-stamped series recording for the experiment
//!   figures.

pub mod clock;
pub mod dist;
pub mod fault;
pub mod rng;
pub mod smoothing;
pub mod stats;
pub mod timeseries;

pub use clock::{SimDuration, SimTime};
pub use fault::{
    FaultInjector, FaultOp, FaultPlan, FaultSpec, ProvisionFault, RandomFaultConfig, ScheduledFault,
};
pub use rng::SimRng;
