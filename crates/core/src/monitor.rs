//! The Monitor component (§4.1).
//!
//! Periodically samples system metrics (CPU, I/O wait, memory — the
//! Ganglia path) and NoSQL metrics (per-partition read/write/scan counters
//! and per-node locality — the JMX path), applies Brown's exponential
//! smoothing so "temporary load spikes" do not drive decisions, and resets
//! its smoothing state after every actuator action so only post-action
//! observations feed the next decision.

use crate::classify::PartitionRates;
use cluster::admin::{ClusterSnapshot, ServerHealth};
use cluster::{PartitionCounters, PartitionId, ServerId};
use simcore::smoothing::ExpSmoother;
use std::collections::BTreeMap;
use telemetry::{Telemetry, TelemetryEvent};

/// Smoothed per-server load.
#[derive(Debug, Clone, Copy)]
pub struct ServerLoad {
    /// Server identity.
    pub server: ServerId,
    /// Smoothed CPU utilization.
    pub cpu: f64,
    /// Smoothed I/O wait.
    pub io: f64,
    /// Smoothed memory utilization.
    pub mem: f64,
    /// Smoothed 99th-percentile response time, ms (zero when the cluster
    /// layer does not model latency).
    pub p99_ms: f64,
    /// Last observed locality index.
    pub locality: f64,
}

/// Smoothed per-partition state.
#[derive(Debug, Clone, Copy)]
pub struct PartitionLoad {
    /// Partition identity.
    pub partition: PartitionId,
    /// Smoothed per-interval request rates.
    pub rates: PartitionRates,
    /// Current size in bytes.
    pub size_bytes: u64,
    /// Current host, if assigned.
    pub assigned_to: Option<ServerId>,
}

/// A report handed to the decision maker.
#[derive(Debug, Clone, Default)]
pub struct MonitorReport {
    /// Per-server smoothed load (online servers only).
    pub servers: Vec<ServerLoad>,
    /// Per-partition smoothed rates.
    pub partitions: Vec<PartitionLoad>,
    /// How old the newest good sample is. Zero when this report was built
    /// from a fresh observation; grows while monitoring rounds are dropped
    /// (lost Ganglia samples), so the decision maker can degrade instead
    /// of mistaking stale data for current.
    pub age: simcore::SimDuration,
}

#[derive(Debug)]
struct ServerSmooth {
    cpu: ExpSmoother,
    io: ExpSmoother,
    mem: ExpSmoother,
    p99: ExpSmoother,
    locality: f64,
}

#[derive(Debug)]
struct PartitionSmooth {
    reads: ExpSmoother,
    writes: ExpSmoother,
    scans: ExpSmoother,
}

/// The monitor: smoothing state plus the counter baselines of the last
/// observation.
#[derive(Debug)]
pub struct Monitor {
    alpha: f64,
    servers: BTreeMap<ServerId, ServerSmooth>,
    partitions: BTreeMap<PartitionId, PartitionSmooth>,
    prev_counters: BTreeMap<PartitionId, PartitionCounters>,
    /// Per-partition stall time at the previous observation, so writer
    /// stalls surface as interval deltas (events + counter increments).
    prev_stall_ms: BTreeMap<PartitionId, u64>,
    samples: usize,
    last_good_at: Option<simcore::SimTime>,
    missed: u64,
    telemetry: Telemetry,
}

impl Monitor {
    /// Creates a monitor with smoothing factor `alpha`.
    pub fn new(alpha: f64) -> Self {
        Monitor {
            alpha,
            servers: BTreeMap::new(),
            partitions: BTreeMap::new(),
            prev_counters: BTreeMap::new(),
            prev_stall_ms: BTreeMap::new(),
            samples: 0,
            last_good_at: None,
            missed: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Routes monitor telemetry (per-sample smoothed loads) to `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Samples observed since the last reset.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// When the newest good sample was collected, if any.
    pub fn last_good_at(&self) -> Option<simcore::SimTime> {
        self.last_good_at
    }

    /// Monitoring rounds lost over the monitor's lifetime.
    pub fn missed(&self) -> u64 {
        self.missed
    }

    /// Records a monitoring round that never delivered (dropped Ganglia
    /// samples): the smoothed state is untouched and subsequent reports
    /// carry a growing [`MonitorReport::age`].
    pub fn note_missed(&mut self, now: simcore::SimTime) {
        self.missed += 1;
        self.telemetry.counter_add("met_monitor_missed_total", &[], 1);
        self.telemetry.gauge_set(
            "met_monitor_data_age_ms",
            &[],
            now.since(self.last_good_at.unwrap_or(now)).as_millis() as f64,
        );
    }

    /// Feeds one snapshot (called every monitoring interval).
    pub fn observe(&mut self, snapshot: &ClusterSnapshot) {
        let alpha = self.alpha;
        for s in &snapshot.servers {
            if s.health != ServerHealth::Online {
                continue;
            }
            let entry = self.servers.entry(s.server).or_insert_with(|| ServerSmooth {
                cpu: ExpSmoother::new(alpha),
                io: ExpSmoother::new(alpha),
                mem: ExpSmoother::new(alpha),
                p99: ExpSmoother::new(alpha),
                locality: 1.0,
            });
            entry.cpu.observe(s.cpu_util);
            entry.io.observe(s.io_wait);
            entry.mem.observe(s.mem_util);
            entry.p99.observe(s.p99_latency_ms);
            entry.locality = s.locality;
            self.telemetry.emit(
                snapshot.at,
                TelemetryEvent::MonitorSample {
                    server: s.server.0,
                    cpu: entry.cpu.value().unwrap_or(s.cpu_util),
                    io_wait: entry.io.value().unwrap_or(s.io_wait),
                    mem: entry.mem.value().unwrap_or(s.mem_util),
                    locality: s.locality,
                },
            );
            self.telemetry.gauge_set(
                "met_server_cpu",
                &[("server", &s.server.0.to_string())],
                entry.cpu.value().unwrap_or(s.cpu_util),
            );
            self.telemetry.gauge_set(
                "met_server_io_wait",
                &[("server", &s.server.0.to_string())],
                entry.io.value().unwrap_or(s.io_wait),
            );
            self.telemetry.gauge_set(
                "met_server_locality",
                &[("server", &s.server.0.to_string())],
                s.locality,
            );
            self.telemetry.gauge_set(
                "met_server_p99_ms",
                &[("server", &s.server.0.to_string())],
                entry.p99.value().unwrap_or(s.p99_latency_ms),
            );
        }
        self.telemetry.counter_add("met_monitor_samples_total", &[], 1);
        // Drop servers that left the cluster.
        let live: Vec<ServerId> = snapshot
            .servers
            .iter()
            .filter(|s| s.health != ServerHealth::Stopped)
            .map(|s| s.server)
            .collect();
        self.servers.retain(|id, _| live.contains(id));

        for p in &snapshot.partitions {
            // Maintenance pressure: the background pipeline's stall time is
            // a counter (publish the interval delta), queue depth and debt
            // are gauges (publish the level).
            let prev_stall = self.prev_stall_ms.insert(p.partition, p.stall_ms).unwrap_or(0);
            let stall_delta = p.stall_ms.saturating_sub(prev_stall);
            let partition_label = p.partition.0.to_string();
            if stall_delta > 0 {
                self.telemetry.counter_add(
                    "met_store_stall_ms_total",
                    &[("partition", &partition_label)],
                    stall_delta,
                );
                self.telemetry.emit(
                    snapshot.at,
                    TelemetryEvent::WriterStalled {
                        server: p.assigned_to.map(|s| s.0).unwrap_or(0),
                        region: p.partition.0,
                        stall_ms: stall_delta,
                        reason: "maintenance_backpressure".to_string(),
                    },
                );
            }
            if p.frozen_memstores > 0 || p.maintenance_debt_bytes > 0 || p.stall_ms > 0 {
                self.telemetry.gauge_set(
                    "met_store_frozen_memstores",
                    &[("partition", &partition_label)],
                    p.frozen_memstores as f64,
                );
                self.telemetry.gauge_set(
                    "met_store_maintenance_debt_bytes",
                    &[("partition", &partition_label)],
                    p.maintenance_debt_bytes as f64,
                );
            }
            let prev = self.prev_counters.insert(p.partition, p.counters);
            let (dr, dw, ds) = match prev {
                Some(prev) => (
                    p.counters.reads.saturating_sub(prev.reads) as f64,
                    p.counters.writes.saturating_sub(prev.writes) as f64,
                    p.counters.scans.saturating_sub(prev.scans) as f64,
                ),
                // First observation: no interval to diff yet.
                None => continue,
            };
            let entry = self.partitions.entry(p.partition).or_insert_with(|| PartitionSmooth {
                reads: ExpSmoother::new(alpha),
                writes: ExpSmoother::new(alpha),
                scans: ExpSmoother::new(alpha),
            });
            entry.reads.observe(dr);
            entry.writes.observe(dw);
            entry.scans.observe(ds);
        }
        self.samples += 1;
        self.last_good_at = Some(snapshot.at);
    }

    /// Builds the decision maker's report from the latest snapshot plus the
    /// smoothed state. Returns `None` before any sample.
    pub fn report(&self, snapshot: &ClusterSnapshot) -> Option<MonitorReport> {
        if self.samples == 0 {
            return None;
        }
        let servers = snapshot
            .servers
            .iter()
            .filter(|s| s.health == ServerHealth::Online)
            .filter_map(|s| {
                let smooth = self.servers.get(&s.server)?;
                Some(ServerLoad {
                    server: s.server,
                    cpu: smooth.cpu.value()?,
                    io: smooth.io.value()?,
                    mem: smooth.mem.value()?,
                    p99_ms: smooth.p99.value().unwrap_or(0.0),
                    locality: smooth.locality,
                })
            })
            .collect();
        let partitions = snapshot
            .partitions
            .iter()
            .map(|p| {
                let rates = self
                    .partitions
                    .get(&p.partition)
                    .map(|s| PartitionRates {
                        reads: s.reads.value().unwrap_or(0.0),
                        writes: s.writes.value().unwrap_or(0.0),
                        scans: s.scans.value().unwrap_or(0.0),
                    })
                    .unwrap_or_default();
                PartitionLoad {
                    partition: p.partition,
                    rates,
                    size_bytes: p.size_bytes,
                    assigned_to: p.assigned_to,
                }
            })
            .collect();
        let age = snapshot.at.since(self.last_good_at.unwrap_or(snapshot.at));
        Some(MonitorReport { servers, partitions, age })
    }

    /// Discards the smoothing state and the sample count — called after each
    /// actuator action (§4.1: "storing only the observations after each
    /// Actuator's action"). Counter baselines are kept so the next interval
    /// rate is still a one-interval diff.
    pub fn reset(&mut self) {
        self.servers.clear();
        self.partitions.clear();
        self.samples = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::admin::{PartitionMetrics, ServerMetrics};
    use hstore::StoreConfig;
    use simcore::SimTime;

    fn snap(t: u64, cpu: f64, counters: PartitionCounters) -> ClusterSnapshot {
        ClusterSnapshot {
            at: SimTime::from_secs(t),
            servers: vec![ServerMetrics {
                server: ServerId(1),
                health: ServerHealth::Online,
                cpu_util: cpu,
                io_wait: 0.1,
                mem_util: 0.5,
                requests_per_sec: 100.0,
                p99_latency_ms: 0.0,
                locality: 0.95,
                partitions: vec![PartitionId(1)],
                config: StoreConfig::default_homogeneous(),
            }],
            partitions: vec![PartitionMetrics {
                partition: PartitionId(1),
                table: "t".into(),
                counters,
                size_bytes: 1_000,
                assigned_to: Some(ServerId(1)),
                locality: 0.95,
                wal_backlog_bytes: 0,
                stall_ms: 0,
                frozen_memstores: 0,
                maintenance_debt_bytes: 0,
            }],
        }
    }

    fn counters(reads: u64, writes: u64) -> PartitionCounters {
        PartitionCounters { reads, writes, scans: 0 }
    }

    #[test]
    fn maintenance_stall_deltas_reach_telemetry() {
        let mut m = Monitor::new(0.5);
        let t = telemetry::Telemetry::with_ring(telemetry::Verbosity::Info, 64);
        m.set_telemetry(t.clone());
        let mut s1 = snap(0, 0.5, counters(0, 0));
        s1.partitions[0].stall_ms = 100;
        s1.partitions[0].frozen_memstores = 2;
        m.observe(&s1);
        let mut s2 = snap(30, 0.5, counters(10, 10));
        s2.partitions[0].stall_ms = 250;
        m.observe(&s2);
        // Counter totals are interval deltas: 100 then 150.
        assert_eq!(t.counter_total("met_store_stall_ms_total"), 250);
        // Gauges track the latest level (drained by the second sample).
        assert_eq!(t.gauge_value("met_store_frozen_memstores", &[("partition", "1")]), Some(0.0));
        let stalls = t
            .events()
            .into_iter()
            .filter(|e| matches!(e.data, TelemetryEvent::WriterStalled { .. }))
            .count();
        assert_eq!(stalls, 2, "each interval with stall growth emits one event");
    }

    #[test]
    fn rates_come_from_counter_diffs() {
        let mut m = Monitor::new(0.5);
        m.observe(&snap(0, 0.5, counters(1_000, 0)));
        m.observe(&snap(30, 0.5, counters(1_600, 300)));
        let report = m.report(&snap(30, 0.5, counters(1_600, 300))).unwrap();
        let p = &report.partitions[0];
        assert!((p.rates.reads - 600.0).abs() < 1e-9, "{:?}", p.rates);
        assert!((p.rates.writes - 300.0).abs() < 1e-9);
    }

    #[test]
    fn smoothing_dampens_spikes() {
        let mut m = Monitor::new(0.5);
        m.observe(&snap(0, 0.2, counters(0, 0)));
        m.observe(&snap(30, 0.2, counters(100, 0)));
        // A single CPU spike to 1.0.
        m.observe(&snap(60, 1.0, counters(200, 0)));
        let report = m.report(&snap(60, 1.0, counters(200, 0))).unwrap();
        let cpu = report.servers[0].cpu;
        assert!(cpu < 0.7, "spike insufficiently dampened: {cpu}");
        assert!(cpu > 0.2, "spike over-dampened: {cpu}");
    }

    #[test]
    fn reset_clears_smoothing_but_keeps_baseline() {
        let mut m = Monitor::new(0.5);
        m.observe(&snap(0, 0.9, counters(1_000, 0)));
        m.observe(&snap(30, 0.9, counters(2_000, 0)));
        assert_eq!(m.samples(), 2);
        m.reset();
        assert_eq!(m.samples(), 0);
        assert!(m.report(&snap(30, 0.9, counters(2_000, 0))).is_none());
        // Next interval's rate is a clean one-interval diff, not a jump
        // from zero.
        m.observe(&snap(60, 0.3, counters(2_500, 0)));
        let report = m.report(&snap(60, 0.3, counters(2_500, 0))).unwrap();
        assert!((report.partitions[0].rates.reads - 500.0).abs() < 1e-9);
        // Server smoothing restarted from the fresh observation.
        assert!((report.servers[0].cpu - 0.3).abs() < 1e-9);
    }

    #[test]
    fn report_age_tracks_missed_rounds() {
        let mut m = Monitor::new(0.5);
        m.observe(&snap(0, 0.5, counters(100, 0)));
        m.observe(&snap(30, 0.5, counters(200, 0)));
        let fresh = m.report(&snap(30, 0.5, counters(200, 0))).unwrap();
        assert_eq!(fresh.age, simcore::SimDuration::ZERO);
        // Two dropped rounds: no observe, age grows with the clock.
        m.note_missed(SimTime::from_secs(60));
        m.note_missed(SimTime::from_secs(90));
        assert_eq!(m.missed(), 2);
        let stale = m.report(&snap(90, 0.5, counters(200, 0))).unwrap();
        assert_eq!(stale.age, simcore::SimDuration::from_secs(60));
        // A good round resets the age.
        m.observe(&snap(120, 0.5, counters(300, 0)));
        let recovered = m.report(&snap(120, 0.5, counters(300, 0))).unwrap();
        assert_eq!(recovered.age, simcore::SimDuration::ZERO);
    }

    #[test]
    fn restarting_servers_are_not_sampled() {
        let mut m = Monitor::new(0.5);
        let mut s = snap(0, 0.5, counters(100, 0));
        s.servers[0].health = ServerHealth::Restarting;
        m.observe(&s);
        let report = m.report(&s).unwrap();
        assert!(report.servers.is_empty());
    }
}
