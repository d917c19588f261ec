//! `control-loop`: the second pipeline — monitor → decision → actuator
//! over the modelled cluster. No storage-engine workload touches it, and
//! it must not move when `hstore` changes.
//!
//! One repetition is figure 4's run: the six-tenant YCSB scenario on five
//! Random-Homogeneous servers, one simulation thread, MeT (scaling off)
//! attached at tick 120, 2 040 one-second ticks (34 simulated minutes).
//! Repetitions use scenario seeds derived from `--seed` and run until the
//! measured window is over; throughput and median tick latency are medians
//! over repetitions, the tick p99 is that of the quietest repetition (see
//! [`quietest`]).

use super::{Outcome, RunConfig, SPANS_KEPT_PER_NAME};
use crate::harness::SpanRecorder;
use crate::host::peak_rss_mib;
use crate::stats::{median, percentile_ns, ratio};
use baselines::build_random_homogeneous;
use cluster::admin::ElasticCluster;
use hstore::StoreConfig;
use met::{DecisionMaker, Met, MetConfig, Monitor};
use met_bench::scenario::{ycsb_scenario, FIG1_SERVERS};
use simcore::{SimRng, SimTime};
use std::time::Instant;
use telemetry::{Telemetry, Verbosity};

/// Ticks per repetition: 2 ramp minutes + figure 4's 32 measured minutes.
const TICKS: u64 = 2_040;
/// Tick at which MeT attaches (minute 2).
const ATTACH_TICK: u64 = 120;
/// Ticks per repetition of a smoke run: 15 simulated minutes, enough for
/// MeT's first plan (decided at tick 300) to complete and the cluster to
/// recover.
const SMOKE_TICKS: u64 = 900;
/// Ticks of the paired legs (thread speed-up, telemetry overhead).
const PAIR_TICKS: u64 = 600;
/// Pairs per paired leg (one in a smoke run).
const PAIRS: u64 = 3;
/// The final five minutes must out-deliver the reconfiguration floor —
/// the lowest 30-second mean between minutes 2 and 12, read off the curve
/// as figure 4 is — by this factor (the paper's run dips to ~7.5 k and
/// passes ~20 k ops/s before settling near 34 k). The floor, not "minute
/// 4": which minute the dip falls in depends on the scenario seed.
const RECOVERY_FACTOR: f64 = 1.4;

fn met_config() -> MetConfig {
    MetConfig { allow_scaling: false, ..MetConfig::default() }
}

/// Scenario seed of repetition `i`.
fn rep_seed(seed: u64, i: u64) -> u64 {
    SimRng::new(seed).derive("met-benchmark/control-loop").derive_idx(i).next()
}

#[derive(Clone, Copy)]
struct RepOpts<'a> {
    ticks: u64,
    met: bool,
    threads: usize,
    telemetry: &'a Telemetry,
    /// Time `SimCluster::step` and `Met::tick` separately and feed a
    /// shadow monitor and decision maker the same snapshots.
    split: bool,
}

#[derive(Default)]
struct Rep {
    setup_s: f64,
    /// Wall time of the tick loop, shadow work excluded, ns.
    loop_ns: u64,
    /// Per-tick latency (step + MeT), ns.
    tick_ns: Vec<u32>,
    step_ns: Vec<u32>,
    met_ns: Vec<u32>,
    snapshot_ns: Vec<f64>,
    observe_ns: Vec<f64>,
    decide_ns: Vec<f64>,
    series: Vec<(SimTime, f64)>,
    reconfigurations: u64,
    actions: u64,
    floor: f64,
    final5: f64,
}

impl Rep {
    fn ticks_per_s(&self) -> f64 {
        ratio(self.tick_ns.len() as f64 * 1e9, self.loop_ns as f64)
    }
}

fn clamp_ns(ns: u128) -> u32 {
    ns.min(u32::MAX as u128) as u32
}

fn run_rep(seed: u64, opts: RepOpts<'_>, mut spans: Option<(&mut SpanRecorder, u64)>) -> Rep {
    let mut rep = Rep::default();
    let t = Instant::now();
    let mut scenario = ycsb_scenario(seed);
    build_random_homogeneous(&mut scenario.sim, FIG1_SERVERS);
    scenario.sim.set_threads(opts.threads);
    scenario.start_clients();
    scenario.sim.set_telemetry(opts.telemetry.clone());
    let mut met = opts.met.then(|| {
        Met::with_telemetry(
            met_config(),
            StoreConfig::default_homogeneous(),
            opts.telemetry.clone(),
        )
    });
    rep.setup_s = t.elapsed().as_secs_f64();

    let mut shadow = opts.split.then(|| {
        let cfg = met_config();
        (Monitor::new(cfg.smoothing_alpha), DecisionMaker::new(cfg.clone()), cfg)
    });
    let kinds = spans.as_mut().map(|(rec, _)| {
        (rec.register("cluster.sim.step", ""), rec.register("met.framework.tick", ""))
    });
    rep.tick_ns.reserve(opts.ticks as usize);
    let sim = &mut scenario.sim;
    let mut prev = Instant::now();
    for tick in 0..opts.ticks {
        let attached = tick >= ATTACH_TICK;
        sim.step();
        let stepped = if opts.split { Instant::now() } else { prev };
        if attached {
            if let Some(met) = &mut met {
                met.tick(sim);
            }
        }
        let done = Instant::now();
        let total = done.duration_since(prev).as_nanos();
        rep.tick_ns.push(clamp_ns(total));
        rep.loop_ns += total as u64;
        if opts.split {
            let step = stepped.duration_since(prev).as_nanos();
            rep.step_ns.push(clamp_ns(step));
            if attached {
                rep.met_ns.push(clamp_ns(total - step));
            }
            if let (Some((rec, op_base)), Some((k_step, k_met))) = (&mut spans, kinds) {
                rec.record(k_step, *op_base + tick, prev, step as u64);
                rec.record(k_met, *op_base + tick, stepped, (total - step) as u64);
            }
        }
        prev = done;
        // Shadow monitor and decision maker: the same snapshots the real
        // ones see, at the monitor interval, outside the timed tick.
        if let Some((monitor, decision, cfg)) = &mut shadow {
            let every = (cfg.monitor_interval.as_millis() / 1_000).max(1);
            if attached && (tick - ATTACH_TICK).is_multiple_of(every) {
                let t0 = Instant::now();
                let snapshot = ElasticCluster::snapshot(sim);
                let t1 = Instant::now();
                monitor.observe(&snapshot);
                let t2 = Instant::now();
                rep.snapshot_ns.push(t1.duration_since(t0).as_nanos() as f64);
                rep.observe_ns.push(t2.duration_since(t1).as_nanos() as f64);
                if monitor.samples() >= cfg.min_samples {
                    if let Some(report) = monitor.report(&snapshot) {
                        let t3 = Instant::now();
                        std::hint::black_box(decision.decide(sim.time(), &report, &snapshot));
                        rep.decide_ns.push(t3.elapsed().as_nanos() as f64);
                    }
                }
            }
            prev = Instant::now();
        }
    }

    let series = sim.total_series();
    rep.floor = series
        .resample_avg(30_000)
        .min_between(SimTime::from_mins(2), SimTime::from_mins(12))
        .unwrap_or(0.0);
    let end_min = opts.ticks / 60;
    rep.final5 = series
        .mean_between(SimTime::from_mins(end_min.saturating_sub(5)), SimTime::from_mins(end_min))
        .unwrap_or(0.0);
    rep.series = series.points().to_vec();
    if let Some(met) = &met {
        rep.reconfigurations = met.reconfigurations();
        let a = met.actuator_stats();
        rep.actions = a.moves + a.restarts + a.compactions + a.provisions + a.decommissions;
    }
    rep
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::new(cfg.trace);
    let off = Telemetry::disabled();
    let ticks = if cfg.smoke { SMOKE_TICKS } else { TICKS };
    let full = RepOpts { ticks, met: true, threads: 1, telemetry: &off, split: false };
    out.note(format!(
        "control-loop: {ticks} ticks per repetition, MeT (scaling off) from tick {ATTACH_TICK}, \
         {FIG1_SERVERS} servers, 1 simulation thread"
    ));

    // Warm-up repetition; also the reference for the determinism check.
    let reference = run_rep(rep_seed(cfg.seed, 0), full, None);

    let budget = if cfg.trace { cfg.share(0.25) } else { cfg.window() };
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let i = reps.len() as u64;
        let rep = run_rep(rep_seed(cfg.seed, i), full, None);
        check_rep(&mut out, i, &rep);
        reps.push(rep);
        if start.elapsed() >= budget {
            break;
        }
    }
    out.check(reps[0].series == reference.series, || {
        "two repetitions at one seed gave different total_series".into()
    });
    let plain_tps = median(&mut reps.iter().map(Rep::ticks_per_s).collect::<Vec<_>>());
    let mut p50: Vec<f64> = reps.iter_mut().map(|r| percentile_ns(&mut r.tick_ns, 50.0)).collect();
    let p99: Vec<f64> = reps.iter_mut().map(|r| percentile_ns(&mut r.tick_ns, 99.0)).collect();
    out.note(format!(
        "untraced: {} repetitions of {ticks} ticks, median {plain_tps:.1} ticks/s, \
         tick p50 {:.3} us (median), p99 {:.3} us (quietest repetition; median {:.3} us; \
         n={} per repetition); seed-0 repetition: \
         {} reconfigurations, {} actuator actions, floor {:.0} ops/s -> final 5 min {:.0} ops/s",
        reps.len(),
        median(&mut p50.clone()) / 1e3,
        quietest(&p99) / 1e3,
        median(&mut p99.clone()) / 1e3,
        ticks,
        reps[0].reconfigurations,
        reps[0].actions,
        reps[0].floor,
        reps[0].final5,
    ));

    if !cfg.trace {
        let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        out.metrics.set("setup_s", median(&mut setups));
        out.metrics.set("ops_per_s", plain_tps);
        out.metrics.set("lat_p50_us", median(&mut p50) / 1e3);
        out.metrics.set("lat_p99_us", quietest(&p99) / 1e3);
        out.metrics.set("peak_rss_mb", peak_rss_mib());
        return Ok(out);
    }

    // Traced repetitions: step and MeT timed apart, shadow layers fed.
    let mut rec = SpanRecorder::new(SPANS_KEPT_PER_NAME);
    let split = RepOpts { split: true, ..full };
    let start = Instant::now();
    let mut traced: Vec<Rep> = Vec::new();
    loop {
        let i = traced.len() as u64;
        let rep = run_rep(rep_seed(cfg.seed, i), split, Some((&mut rec, i * ticks)));
        check_rep(&mut out, i, &rep);
        traced.push(rep);
        if start.elapsed() >= cfg.share(0.4) {
            break;
        }
    }
    let traced_tps = median(&mut traced.iter().map(Rep::ticks_per_s).collect::<Vec<_>>());
    let med_pct = |pick: fn(&mut Rep) -> &mut Vec<u32>, p: f64, reps: &mut [Rep]| {
        median(&mut reps.iter_mut().map(|r| percentile_ns(pick(r), p)).collect::<Vec<_>>())
    };
    let mean_of = |pick: fn(&Rep) -> &Vec<f64>| {
        let all: Vec<f64> = traced.iter().flat_map(|r| pick(r).iter().copied()).collect();
        crate::stats::mean(&all)
    };
    let step_total: u64 = traced.iter().flat_map(|r| &r.step_ns).map(|v| *v as u64).sum();
    let loop_total: u64 = traced.iter().map(|r| r.loop_ns).sum();
    let (snapshot_us, observe_us, decide_us) = (
        mean_of(|r| &r.snapshot_ns) / 1e3,
        mean_of(|r| &r.observe_ns) / 1e3,
        mean_of(|r| &r.decide_ns) / 1e3,
    );
    let m = &mut out.metrics;
    m.set("trace.overhead_frac", ratio(traced_tps, plain_tps) - 1.0);
    m.set("cluster.sim.step_share", ratio(step_total as f64, loop_total as f64));
    m.set("cluster.sim.snapshot_us", snapshot_us);
    m.set("met.monitor.observe_us", observe_us);
    m.set("met.decision.decide_us", decide_us);
    m.set("met.reconfigurations", traced[0].reconfigurations as f64);
    m.set("met.actuator.actions", traced[0].actions as f64);
    m.set("cluster.sim.step_p50_us", med_pct(|r| &mut r.step_ns, 50.0, &mut traced) / 1e3);
    m.set("cluster.sim.step_p99_us", med_pct(|r| &mut r.step_ns, 99.0, &mut traced) / 1e3);
    m.set("met.framework.tick_p50_us", med_pct(|r| &mut r.met_ns, 50.0, &mut traced) / 1e3);
    m.set("met.framework.tick_p99_us", med_pct(|r| &mut r.met_ns, 99.0, &mut traced) / 1e3);

    // Paired legs, interleaved so host drift cancels: two simulation
    // threads against one, and full-verbosity ring-sink telemetry against
    // none.
    let ring = Telemetry::with_ring(Verbosity::Debug, 1 << 16);
    let pair = RepOpts { ticks: cfg.scaled(PAIR_TICKS, 300), ..full };
    let (mut t1, mut t2, mut tel_off, mut tel_on) = (vec![], vec![], vec![], vec![]);
    let pairs = if cfg.smoke { 1 } else { PAIRS };
    for i in 0..pairs {
        let seed = rep_seed(cfg.seed, i);
        t1.push(run_rep(seed, RepOpts { met: false, ..pair }, None).loop_ns as f64);
        t2.push(run_rep(seed, RepOpts { met: false, threads: 2, ..pair }, None).loop_ns as f64);
        tel_off.push(run_rep(seed, pair, None).loop_ns as f64);
        tel_on.push(run_rep(seed, RepOpts { telemetry: &ring, ..pair }, None).loop_ns as f64);
    }
    out.attempted += 4 * pairs * pair.ticks;
    let m = &mut out.metrics;
    m.set("simcore.par.speedup_t2", ratio(median(&mut t1), median(&mut t2)));
    m.set("telemetry.overhead_frac", ratio(median(&mut tel_on), median(&mut tel_off)) - 1.0);
    out.note(format!(
        "traced: {} repetitions, median {traced_tps:.1} ticks/s; snapshot {snapshot_us:.1} us, \
         observe {observe_us:.1} us, decide {decide_us:.1} us; paired legs of {} ticks on {} cores",
        traced.len(),
        pair.ticks,
        crate::host::nproc(),
    ));

    out.write_spans(&rec, "control-loop", cfg.seed)?;
    Ok(out)
}

/// The smallest of the repetitions' values. A tick takes ~300 µs, so a
/// repetition's p99 (20 ticks beyond it) moves when the host preempts the
/// process a handful of times in half a second — which on a shared host
/// happens in most repetitions, by a different amount in each. Every
/// repetition does the same kind of work and interference only ever adds
/// latency, so the quietest repetition is the program's own tail; the
/// median over repetitions is printed beside it as a diagnostic.
fn quietest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Output checks of one full repetition: every tick counts as attempted;
/// MeT must have reconfigured at least once and the cluster must have
/// recovered to well above its reconfiguration floor.
fn check_rep(out: &mut Outcome, i: u64, rep: &Rep) {
    out.attempted += rep.tick_ns.len() as u64;
    out.check(rep.reconfigurations >= 1, || format!("repetition {i}: MeT never reconfigured"));
    out.check(rep.final5 >= RECOVERY_FACTOR * rep.floor && rep.floor > 0.0, || {
        format!(
            "repetition {i}: final-5-minute mean {:.0} ops/s < {RECOVERY_FACTOR} x the \
             reconfiguration floor ({:.0} ops/s)",
            rep.final5, rep.floor
        )
    });
}
