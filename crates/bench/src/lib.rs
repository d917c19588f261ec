//! The experiment harness regenerating every table and figure of the MeT
//! paper (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
//! paper-vs-measured).

#![forbid(unsafe_code)]

pub mod ablations;
pub mod chaos;
pub mod config;
pub mod crash;
pub mod elastic;
pub mod exp;
pub mod fig1;
pub mod fig4;
pub mod latency;
pub mod report;
pub mod scenario;
pub mod spec;
pub mod table2;

pub use spec::{ScenarioRun, ScenarioSpec, ScenarioStrategy};
