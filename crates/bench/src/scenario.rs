//! Shared experiment scaffolding: the §3 multi-tenant YCSB scenario and
//! the strategy builders used across figures.

use baselines::manual::LoadedPartition;
use cluster::{CostParams, SimCluster};
use met::classify::{classify, PartitionRates};
use met::profiles::ProfileKind;
use simcore::SimRng;
use ycsb::{deploy, DeployedWorkload, WorkloadSpec};

/// The cost-model parameters used by every paper experiment (calibrated so
/// the §3 cluster magnitudes land near the paper's; see EXPERIMENTS.md).
pub fn paper_params() -> CostParams {
    CostParams::default()
}

/// The paper's RegionServer count for the §3/§6.2 experiments.
pub const FIG1_SERVERS: usize = 5;

/// A deployed multi-tenant YCSB scenario (partitions created, unassigned).
pub struct YcsbScenario {
    /// The simulation.
    pub sim: SimCluster,
    /// One deployment per workload A–F.
    pub deployments: Vec<DeployedWorkload>,
}

/// Creates the simulation and deploys the six §3.1 workloads (partitions
/// remain unassigned; the strategy under test places them).
pub fn ycsb_scenario(seed: u64) -> YcsbScenario {
    ycsb_scenario_scaled(seed, 1.0)
}

/// [`ycsb_scenario`] with every workload's offered load scaled by
/// `load_factor`: unthrottled workloads get proportionally more (or fewer)
/// client threads, throttled ones a proportionally moved rate cap. A
/// factor of exactly 1.0 leaves the specs untouched, so the default path
/// is byte-identical to the historical one. The `exp-latency` sweep uses
/// this to push the same cluster through its saturation knee.
pub fn ycsb_scenario_scaled(seed: u64, load_factor: f64) -> YcsbScenario {
    assert!(load_factor > 0.0 && load_factor.is_finite(), "load factor must be positive");
    let mut sim = SimCluster::new(paper_params(), seed);
    let mut rng = SimRng::new(seed).derive("scenario");
    let deployments: Vec<DeployedWorkload> = ycsb::presets::paper_suite()
        .into_iter()
        .map(|mut spec| {
            if load_factor != 1.0 {
                spec.threads = ((spec.threads as f64 * load_factor).round() as u32).max(1);
                spec.target_ops_per_sec = spec.target_ops_per_sec.map(|r| r * load_factor);
            }
            deploy(&spec, &mut sim, &mut rng)
        })
        .collect();
    YcsbScenario { sim, deployments }
}

impl YcsbScenario {
    /// Registers every workload's client group.
    pub fn start_clients(&mut self) {
        for d in &self.deployments {
            self.sim.add_group(d.client_group());
        }
    }

    /// All partitions with a static load proxy: the workload's offered
    /// load (thread count, with D's throughput cap expressed relative to
    /// the others) spread by the partition weights. This is what a human
    /// administrator balancing "the number of requests" would use (§3.3).
    pub fn loaded_partitions(&self) -> Vec<LoadedPartition> {
        self.deployments
            .iter()
            .flat_map(|d| {
                let rate_proxy = offered_load_proxy(&d.spec);
                d.partitions.iter().zip(&d.weights).map(move |(p, w)| (*p, rate_proxy * w))
            })
            .collect()
    }

    /// Partitions grouped by the access pattern their workload *declares* —
    /// the knowledge a human administrator used in §3.3.
    pub fn grouped_partitions(&self) -> Vec<(ProfileKind, Vec<LoadedPartition>)> {
        let mut out: Vec<(ProfileKind, Vec<LoadedPartition>)> = Vec::new();
        for d in &self.deployments {
            let kind = expected_profile(&d.spec);
            let rate_proxy = offered_load_proxy(&d.spec);
            let parts: Vec<LoadedPartition> =
                d.partitions.iter().zip(&d.weights).map(|(p, w)| (*p, rate_proxy * w)).collect();
            match out.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, v)) => v.extend(parts),
                None => out.push((kind, parts)),
            }
        }
        out
    }
}

/// A proxy for how much load a workload offers, for placement decisions:
/// thread count, scaled down for throughput-capped workloads.
pub fn offered_load_proxy(spec: &WorkloadSpec) -> f64 {
    match spec.target_ops_per_sec {
        // WorkloadD: 1 500 ops/s cap ≈ a tenth of an unthrottled 50-thread
        // workload's offered load.
        Some(cap) => cap / 300.0,
        None => spec.threads as f64,
    }
}

/// The access-pattern group the §3.3 human administrator assigned each
/// workload: A, F → read/write mix; B, D → write; C → read; E → scan.
/// Unknown workloads fall back to MeT's automated classifier over their
/// declared mix.
pub fn expected_profile(spec: &WorkloadSpec) -> ProfileKind {
    match spec.name.as_str() {
        "A" | "F" => ProfileKind::ReadWrite,
        "B" | "D" => ProfileKind::Write,
        "C" => ProfileKind::Read,
        "E" => ProfileKind::Scan,
        _ => {
            let mix = spec.proportions.to_op_mix();
            classify(
                PartitionRates {
                    reads: mix.read * 100.0,
                    writes: mix.write * 100.0,
                    scans: mix.scan * 100.0,
                },
                0.6,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_creates_21_partitions() {
        let s = ycsb_scenario(1);
        let total: usize = s.deployments.iter().map(|d| d.partitions.len()).sum();
        // 5 workloads × 4 partitions + WorkloadD's single partition.
        assert_eq!(total, 21);
    }

    #[test]
    fn declared_groups_match_section_3() {
        let s = ycsb_scenario(2);
        let groups = s.grouped_partitions();
        let count_of = |k: ProfileKind| {
            groups.iter().find(|(g, _)| *g == k).map(|(_, v)| v.len()).unwrap_or(0)
        };
        // §3.3: read 4 (C), write 5 (B + D), read/write 8 (A + F),
        // scan 4 (E).
        assert_eq!(count_of(ProfileKind::Read), 4);
        assert_eq!(count_of(ProfileKind::Write), 5);
        assert_eq!(count_of(ProfileKind::ReadWrite), 8);
        assert_eq!(count_of(ProfileKind::Scan), 4);
    }
}
