#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Baselines the paper compares MeT against.
//!
//! * [`manual`] — the three §3.3 placement/configuration strategies
//!   (Random-Homogeneous, Manual-Homogeneous, Manual-Heterogeneous),
//!   needed by the Figure 1 and Figure 4 experiments.
//! * [`tiramola`] — the system-metric-threshold autoscaler of
//!   Konstantinou et al. (CIKM'11), MeT's elastic competitor in the
//!   Figure 5/6 experiments: homogeneous nodes, add/remove only, no
//!   reconfiguration, removal only when every node idles.

pub mod manual;
pub mod tiramola;

pub use manual::{
    build_manual_heterogeneous, build_manual_homogeneous, build_random_homogeneous,
    search_balanced_placement, MANUAL_SEARCH_CANDIDATES,
};
pub use tiramola::{Tiramola, TiramolaConfig};
