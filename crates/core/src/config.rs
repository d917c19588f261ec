//! MeT's tunables — what §5's prototype read from a properties file.

use serde::{Deserialize, Serialize};
use simcore::SimDuration;

/// All MeT parameters, with the paper's evaluation values as defaults.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetConfig {
    /// How often the monitor samples the cluster (§6.1: 30 s).
    pub monitor_interval: SimDuration,
    /// Samples required before the decision maker acts (§6.1: 6, i.e. a
    /// 3-minute decision period, smoothing out spikes).
    pub min_samples: usize,
    /// Exponential-smoothing factor for monitor metrics (§4.1).
    pub smoothing_alpha: f64,
    /// CPU utilization above which a node is overloaded.
    pub cpu_high: f64,
    /// I/O wait above which a node is overloaded.
    pub io_high: f64,
    /// CPU utilization below which a node counts as underloaded.
    pub cpu_low: f64,
    /// I/O wait below which a node counts as underloaded.
    pub io_low: f64,
    /// `SubOptimalNodesThreshold` (§5: 50 % — "if half of the cluster is
    /// under heavy load MeT will proceed straightway to the addition of a
    /// new node").
    pub suboptimal_nodes_threshold: f64,
    /// Classification threshold (§5: 60 %).
    pub classify_threshold: f64,
    /// Minimum interval between scale-down actions, to avoid continuous
    /// addition/removal oscillation (§6.4: "such behavior is parameterized").
    pub remove_cooldown: SimDuration,
    /// Whether MeT may add/remove nodes. §6.2's convergence experiment
    /// runs MeT against the database alone (no IaaS), where it can only
    /// reconfigure the fixed fleet; §6.4 enables scaling.
    pub allow_scaling: bool,
    /// Scale-down floor: MeT releases underutilized machines "until the
    /// number of nodes is equal to the initial cluster" (§6.4).
    pub min_nodes: usize,
    /// Scale-up ceiling (the tenant's instance quota).
    pub max_nodes: usize,
    /// Minimum fraction of overloaded nodes for *adding* capacity when
    /// below `suboptimal_nodes_threshold`; a lone hot node below this is a
    /// placement problem the distribution algorithm fixes without new
    /// machines.
    pub add_fraction: f64,
    /// Age of monitoring data past which the decision maker enters
    /// degraded mode: it holds the last-known-good configuration and
    /// vetoes scale-in until fresh samples arrive (defence against
    /// dropped or delayed Ganglia rounds).
    pub stale_metrics_after: SimDuration,
    /// Latency SLO: a server whose smoothed p99 response time exceeds
    /// this many milliseconds counts as overloaded — which vetoes
    /// scale-in outright and steers Stage B toward scale-out — even when
    /// its CPU and I/O look fine (a queue can be long while the CPU naps,
    /// e.g. disk-bound tails). `None` (the default) disables the gate;
    /// utilization thresholds alone decide, exactly as before.
    pub slo_p99_ms: Option<f64>,
}

impl Default for MetConfig {
    fn default() -> Self {
        MetConfig {
            monitor_interval: SimDuration::from_secs(30),
            min_samples: 6,
            smoothing_alpha: 0.5,
            cpu_high: 0.85,
            io_high: 0.90,
            cpu_low: 0.30,
            io_low: 0.35,
            suboptimal_nodes_threshold: 0.5,
            classify_threshold: 0.6,
            remove_cooldown: SimDuration::from_mins(4),
            allow_scaling: true,
            min_nodes: 1,
            max_nodes: usize::MAX,
            add_fraction: 0.25,
            stale_metrics_after: SimDuration::from_secs(90),
            slo_p99_ms: None,
        }
    }
}

impl MetConfig {
    /// Validates threshold sanity.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.suboptimal_nodes_threshold) {
            return Err("suboptimal_nodes_threshold outside [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.classify_threshold) {
            return Err("classify_threshold outside [0,1]".into());
        }
        if self.cpu_low >= self.cpu_high {
            return Err("cpu_low must be below cpu_high".into());
        }
        if self.io_low >= self.io_high {
            return Err("io_low must be below io_high".into());
        }
        if !(0.0 < self.smoothing_alpha && self.smoothing_alpha <= 1.0) {
            return Err("smoothing_alpha outside (0,1]".into());
        }
        if self.min_samples == 0 {
            return Err("min_samples must be positive".into());
        }
        if self.min_nodes == 0 {
            return Err("min_nodes must be at least 1".into());
        }
        if self.max_nodes < self.min_nodes {
            return Err("max_nodes below min_nodes".into());
        }
        if !(0.0..=1.0).contains(&self.add_fraction) {
            return Err("add_fraction outside [0,1]".into());
        }
        if self.stale_metrics_after < self.monitor_interval {
            return Err("stale_metrics_after below monitor_interval".into());
        }
        if let Some(slo) = self.slo_p99_ms {
            if !(slo > 0.0 && slo.is_finite()) {
                return Err("slo_p99_ms must be a positive finite duration".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MetConfig::default();
        c.validate().unwrap();
        assert_eq!(c.monitor_interval, SimDuration::from_secs(30));
        assert_eq!(c.min_samples, 6);
        assert_eq!(c.suboptimal_nodes_threshold, 0.5);
        assert_eq!(c.classify_threshold, 0.6);
    }

    #[test]
    fn validation_catches_inversions() {
        let c = MetConfig { cpu_low: 0.9, ..MetConfig::default() };
        assert!(c.validate().is_err());
        let c = MetConfig { smoothing_alpha: 0.0, ..MetConfig::default() };
        assert!(c.validate().is_err());
        let c = MetConfig { min_samples: 0, ..MetConfig::default() };
        assert!(c.validate().is_err());
        let c = MetConfig { max_nodes: 0, min_nodes: 2, ..MetConfig::default() };
        assert!(c.validate().is_err());
        let c = MetConfig { add_fraction: 1.5, ..MetConfig::default() };
        assert!(c.validate().is_err());
        let c =
            MetConfig { stale_metrics_after: SimDuration::from_secs(5), ..MetConfig::default() };
        assert!(c.validate().is_err());
        let c = MetConfig { slo_p99_ms: Some(0.0), ..MetConfig::default() };
        assert!(c.validate().is_err());
        let c = MetConfig { slo_p99_ms: Some(f64::NAN), ..MetConfig::default() };
        assert!(c.validate().is_err());
        let c = MetConfig { slo_p99_ms: Some(150.0), ..MetConfig::default() };
        assert!(c.validate().is_ok());
    }
}
