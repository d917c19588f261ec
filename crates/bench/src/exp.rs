//! The experiment table behind the `exp` binary: one row per report under
//! `results/`, each with its name, the seed that reproduces the committed
//! report, and the function that runs it.
//!
//! `exp <name> [--seed N] [--faults SPEC]` runs one row; `exp --list`
//! prints the table. [`parse`] turns the arguments and the environment
//! knobs into an [`Invocation`] without touching the process, so every
//! way a command line can be wrong is a unit test here; the binary only
//! prints the [`Report`], writes its JSON and maps the verdict to the exit
//! status (1 on a failed gate, 2 on bad input).

use crate::config::EnvConfig;
use crate::{ablations, chaos, crash, elastic, fig1, fig4, latency, report, table2};
use serde_json::{json, Value};
use simcore::{FaultPlan, FaultSpec, ScheduledFault, SimTime};
use std::path::PathBuf;
use telemetry::{Telemetry, TelemetryEvent, Verbosity};
use Run::{Plain, Traced};

/// What one row produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// The human-readable table, printed to stdout (`results/<name>.txt`).
    pub text: String,
    /// The machine-readable record, written to `<results dir>/<name>.json`
    /// (`None`: the row writes no JSON).
    pub json: Option<Value>,
    /// The row's own acceptance gate; `exp` exits 1 when it fails.
    pub passed: bool,
}

/// One experiment.
#[derive(Debug)]
pub struct Row {
    /// The name `exp` takes, and the stem of the report files.
    pub name: &'static str,
    /// The seed that reproduces the committed report.
    pub seed: u64,
    /// Whether the row injects a fault plan (the reference plan unless
    /// `--faults` names another); `--faults` on any other row is an error.
    pub faults: bool,
    /// Runs the experiment at a seed, under a fault plan (empty unless
    /// `faults`).
    pub run: Run,
}

/// How a row runs: through the telemetry pipeline, whose event stream
/// `MET_TRACE` exports, or without one, so that there is no trail to export.
#[derive(Debug, Clone, Copy)]
pub enum Run {
    /// Reports through the telemetry pipeline.
    Traced(fn(u64, &FaultPlan, &Telemetry) -> Report),
    /// Takes no telemetry.
    Plain(fn(u64, &FaultPlan) -> Report),
}

/// Every experiment, in the order `exp --list` prints them.
pub const ROWS: &[Row] = &[
    Row { name: "table1", seed: 0, faults: false, run: Plain(table1) },
    Row { name: "fig1", seed: 1_000, faults: false, run: Plain(fig1) },
    Row { name: "fig4", seed: 1_000, faults: false, run: Traced(fig4) },
    Row { name: "fig5", seed: 1_000, faults: false, run: Plain(fig5) },
    Row { name: "fig6", seed: 1_000, faults: false, run: Plain(fig6) },
    Row { name: "table2", seed: 1_000, faults: false, run: Plain(table2) },
    Row { name: "ablations", seed: 7, faults: false, run: Plain(ablations) },
    Row { name: "chaos", seed: 1_000, faults: true, run: Traced(chaos) },
    Row { name: "latency", seed: 1_000, faults: false, run: Traced(latency) },
    Row { name: "crash", seed: 42, faults: false, run: Traced(|s, _, t| crash(s, false, t)) },
    Row { name: "crash-bg", seed: 42, faults: false, run: Traced(|s, _, t| crash(s, true, t)) },
];

/// The row called `name`.
pub fn row(name: &str) -> Option<&'static Row> {
    ROWS.iter().find(|r| r.name == name)
}

/// One-line usage, printed with every argument error.
pub const USAGE: &str =
    "usage: exp <name> [--seed N] [--faults reference|random|SPEC] | exp --list";

/// A parsed command line.
#[derive(Debug)]
pub enum Command {
    /// `exp --list`: print the table.
    List,
    /// `exp <name> …`: run one row.
    Run(Invocation),
}

/// One row, with everything resolved that its run needs.
#[derive(Debug)]
pub struct Invocation {
    /// The row to run.
    pub row: &'static Row,
    /// `--seed`, or the row's default.
    pub seed: u64,
    /// `--faults`, or the row's default (the reference plan for a row that
    /// injects one, the empty plan otherwise). `random` is seeded by
    /// [`Invocation::seed`].
    pub faults: FaultPlan,
    /// `MET_TRACE`: where to export the JSONL trail.
    pub trace: Option<PathBuf>,
    /// `MET_TRACE_LEVEL`, defaulting to `debug` with a trail and `off`
    /// without one.
    pub level: Verbosity,
    /// `MET_RESULTS_DIR`, defaulting to `results`.
    pub results_dir: PathBuf,
}

/// Parses `exp`'s arguments (without the program name) against the
/// environment knobs. Every unknown row or flag and every malformed value
/// is an error.
pub fn parse(args: &[String], env: &EnvConfig) -> Result<Command, String> {
    let Some((name, flags)) = args.split_first() else {
        return Err("no experiment named".into());
    };
    if name == "--list" {
        return match flags.first() {
            None => Ok(Command::List),
            Some(extra) => Err(format!("--list takes no arguments, got {extra:?}")),
        };
    }
    let row = row(name).ok_or_else(|| format!("unknown experiment {name:?} (see exp --list)"))?;
    let (mut seed, mut faults) = (None, None);
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        let slot = match flag.as_str() {
            "--seed" => &mut seed,
            "--faults" => &mut faults,
            other => return Err(format!("unknown flag {other:?}")),
        };
        let value = flags.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if slot.replace(value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let seed = match seed {
        None => row.seed,
        Some(s) => s.parse().map_err(|_| format!("--seed {s:?} is not a whole number"))?,
    };
    let faults = match (faults, row.faults) {
        (Some(_), false) => {
            return Err(format!("{} injects no fault plan; drop --faults", row.name))
        }
        (None, false) => FaultPlan::empty(),
        (None | Some("reference"), true) => FaultPlan::reference(),
        (Some("random"), true) => FaultPlan::random(seed, &simcore::RandomFaultConfig::default()),
        // The grammar reads "" as no faults; here it is likelier an unset variable.
        (Some(spec), true) if spec.trim().is_empty() => return Err("--faults is empty".into()),
        (Some(spec), true) => FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}"))?,
    };
    let level = env
        .trace_level
        .as_deref()
        .and_then(Verbosity::parse)
        .unwrap_or(if env.trace_path.is_some() { Verbosity::Debug } else { Verbosity::Off });
    Ok(Command::Run(Invocation {
        row,
        seed,
        faults,
        trace: env.trace_path.clone(),
        level,
        results_dir: env.results_dir.clone().unwrap_or_else(|| PathBuf::from("results")),
    }))
}

impl Invocation {
    /// Builds the telemetry pipeline: the registry always aggregates (it
    /// feeds the JSON report); with a trail path the event stream is also
    /// exported as JSONL.
    pub fn telemetry(&self) -> Telemetry {
        let t = Telemetry::new(self.level);
        if let Some(path) = &self.trace {
            match t.attach_jsonl(path) {
                Err(e) => eprintln!("telemetry: cannot create trace file {}: {e}", path.display()),
                Ok(()) => eprintln!(
                    "telemetry: exporting {:?}-level trace to {}",
                    self.level,
                    path.display()
                ),
            }
        }
        t
    }

    /// Runs the row and writes its JSON (if any) under the results
    /// directory. A row that takes no telemetry leaves the trail path
    /// unopened.
    pub fn run(&self) -> Report {
        let report = match self.row.run {
            Traced(run) => run(self.seed, &self.faults, &self.telemetry()),
            Plain(run) => {
                if self.trace.is_some() {
                    eprintln!("telemetry: {} emits no trail; MET_TRACE ignored", self.row.name);
                }
                run(self.seed, &self.faults)
            }
        };
        if let Some(value) = &report.json {
            if let Some(path) = report::write_json(&self.results_dir, self.row.name, value) {
                eprintln!("wrote {}", path.display());
            }
        }
        report
    }
}

/// A report's text under construction: `writeln!` appends to it, and
/// appending to a `String` cannot fail.
#[derive(Default)]
struct Text(String);

impl Text {
    fn write_fmt(&mut self, args: std::fmt::Arguments) {
        use std::fmt::Write;
        let _ = self.0.write_fmt(args);
    }
}

fn table1(_seed: u64, _faults: &FaultPlan) -> Report {
    use hstore::StoreConfig;
    use met::ProfileKind;
    let mut out = Text::default();
    let base = StoreConfig::default_homogeneous();
    writeln!(out, "Table 1 — node configuration profiles");
    writeln!(
        out,
        "{:<12} {:>10} {:>14} {:>10} {:>18}",
        "Profile", "Cache", "Memstore", "Block", "Compact below"
    );
    let mut passed = true;
    for p in ProfileKind::ALL {
        let cfg = p.config(&base);
        // Table 1 rows must satisfy the 65 % heap budget.
        passed &= cfg.validate().is_ok();
        writeln!(
            out,
            "{:<12} {:>9.0}% {:>13.0}% {:>8}KB {:>17.0}%",
            p.to_string(),
            cfg.block_cache_fraction * 100.0,
            cfg.memstore_fraction * 100.0,
            cfg.block_size / 1024,
            p.locality_threshold() * 100.0,
        );
    }
    writeln!(out, "\n(cache + memstore ≤ 65% of heap, per the HBase guidance cited in §2.1)");
    Report { text: out.0, json: None, passed }
}

fn fig1(seed: u64, _faults: &FaultPlan) -> Report {
    let runs = 5;
    let minutes = 30;
    eprintln!("fig1: {runs} runs × (2+{minutes}) minutes per strategy...");
    let result = fig1::run(seed, runs, minutes);
    let mut out = Text::default();
    writeln!(out, "Figure 1 — throughput (ops/s), bars = p5/p25/p50/p75/p90 over {runs} runs");
    for (strategy, bars) in &result.bars {
        writeln!(out, "\n{strategy}:");
        for name in ["A", "B", "C", "D", "E", "F", "Total"] {
            if let Some(b) = bars.get(name) {
                writeln!(
                    out,
                    "  {name:>5}: {:>8.0} {:>8.0} {:>8.0} {:>8.0} {:>8.0}",
                    b[0], b[1], b[2], b[3], b[4]
                );
            }
        }
    }
    writeln!(out, "\nMean totals:");
    for (s, t) in &result.mean_total {
        writeln!(out, "  {s}: {t:.0} ops/s");
    }
    let rh = result.mean_total["Random-Homogeneous"];
    let mh = result.mean_total["Manual-Homogeneous"];
    let het = result.mean_total["Manual-Heterogeneous"];
    writeln!(out, "\nManual-Het / Random-Homog = {:.2}x (paper: >2x)", het / rh);
    writeln!(out, "Manual-Het / Manual-Homog = {:.2}x (paper: 1.35x)", het / mh);

    let json = json!({
        "experiment": "fig1",
        "runs": runs,
        "measured_minutes": minutes,
        "bars_p5_p25_p50_p75_p90": result.bars,
        "mean_total": result.mean_total,
        "het_over_random": het / rh,
        "het_over_manual_homog": het / mh,
    });
    Report { text: out.0, json: Some(json), passed: true }
}

fn fig4(seed: u64, _faults: &FaultPlan, telemetry: &Telemetry) -> Report {
    eprintln!("fig4: 32 simulated minutes × 3 curves...");
    let r = fig4::run(seed, 30, telemetry.clone());
    let mut out = Text::default();
    writeln!(out, "Figure 4 — throughput over time (ops/s, 30 s resolution)");
    writeln!(out, "{:>6} {:>12} {:>12} {:>12}", "min", "MeT", "Man-Homog", "Man-Het");
    let met = &r.curves["MeT"];
    let homog = &r.curves["Manual-Homogeneous"];
    let het = &r.curves["Manual-Heterogeneous"];
    for (i, (minute, value)) in met.iter().enumerate() {
        writeln!(
            out,
            "{:>6.1} {:>12.0} {:>12.0} {:>12.0}",
            minute,
            value,
            homog.get(i).map(|p| p.1).unwrap_or(f64::NAN),
            het.get(i).map(|p| p.1).unwrap_or(f64::NAN),
        );
    }
    writeln!(out, "\nreconfigurations completed: {}", r.reconfigurations);
    writeln!(
        out,
        "MeT floor during reconfiguration: {:.0} ops/s (paper ≈ 7500)",
        r.met_reconfig_floor
    );
    writeln!(out, "MeT steady state:   {:.0} ops/s", r.met_steady);
    writeln!(
        out,
        "Manual-Het steady:  {:.0} ops/s (MeT/Het = {:.2})",
        r.het_steady,
        r.met_steady / r.het_steady
    );
    writeln!(out, "Manual-Homog steady:{:.0} ops/s", r.homog_steady);
    match r.met_overtakes_homog_at_min {
        Some(m) => {
            writeln!(out, "MeT cumulative overtakes Manual-Homog at minute {m:.1} (paper: <15)")
        }
        None => writeln!(out, "MeT cumulative never overtakes Manual-Homog (paper: <15 min)"),
    }

    let json = json!({
        "experiment": "fig4",
        "curves": r.curves.iter().map(|(k, v)| {
            (k.to_string(), report::curve_json(v))
        }).collect::<std::collections::BTreeMap<_, _>>(),
        "met_reconfig_floor": r.met_reconfig_floor,
        "met_steady": r.met_steady,
        "het_steady": r.het_steady,
        "homog_steady": r.homog_steady,
        "met_overtakes_homog_at_min": r.met_overtakes_homog_at_min,
        "reconfigurations": r.reconfigurations,
        "telemetry": report::telemetry_summary(telemetry),
    });
    Report { text: out.0, json: Some(json), passed: true }
}

/// A per-minute curve of `ts` (or of its running total) for the JSON.
fn minute_curve(ts: &simcore::timeseries::TimeSeries) -> Value {
    report::curve_json(
        &ts.resample_avg(60_000)
            .points()
            .iter()
            .map(|(t, v)| (t.as_mins_f64(), *v))
            .collect::<Vec<_>>(),
    )
}

fn fig5(seed: u64, _faults: &FaultPlan) -> Report {
    eprintln!("fig5/6: 2 × 60 simulated minutes on the simulated cloud...");
    let r = elastic::run(seed);
    let mut out = Text::default();
    writeln!(out, "Figure 5 — cumulative operations (×10³), phase 1 (0–33 min)");
    writeln!(out, "{:>6} {:>12} {:>12}", "min", "MeT", "tiramola");
    let met_cum = r.met.throughput.cumulative();
    let tir_cum = r.tiramola.throughput.cumulative();
    for m in (0..=elastic::PHASE1_END_MIN).step_by(3) {
        let t = SimTime::from_mins(m);
        writeln!(
            out,
            "{:>6} {:>12.0} {:>12.0}",
            m,
            met_cum.value_at(t).unwrap_or(0.0) / 1e3,
            tir_cum.value_at(t).unwrap_or(0.0) / 1e3
        );
    }
    writeln!(
        out,
        "\nMeT completed {:.0}k more ops (paper ≈ 706k), a {:.0}% increase (paper 31%)",
        r.met_extra_ops() / 1e3,
        r.met_gain() * 100.0
    );

    let json = json!({
        "experiment": "fig5",
        "met_cumulative": minute_curve(&met_cum),
        "tiramola_cumulative": minute_curve(&tir_cum),
        "met_extra_ops": r.met_extra_ops(),
        "met_gain": r.met_gain(),
        "paper": {"extra_ops": 706_000, "gain": 0.31},
    });
    Report { text: out.0, json: Some(json), passed: true }
}

fn fig6(seed: u64, _faults: &FaultPlan) -> Report {
    eprintln!("fig5/6: 2 × 60 simulated minutes on the simulated cloud...");
    let r = elastic::run(seed);
    let mut out = Text::default();
    writeln!(out, "Figure 6 — throughput (ops/s) and online nodes, 60 min");
    writeln!(
        out,
        "{:>6} {:>12} {:>7} {:>12} {:>7}",
        "min", "MeT ops/s", "nodes", "tira ops/s", "nodes"
    );
    let met_thr = r.met.throughput.resample_avg(60_000);
    let tir_thr = r.tiramola.throughput.resample_avg(60_000);
    let met_nodes = r.met.nodes.resample_avg(60_000);
    let tir_nodes = r.tiramola.nodes.resample_avg(60_000);
    for i in 0..met_thr.points().len() {
        let (t, m) = met_thr.points()[i];
        writeln!(
            out,
            "{:>6.0} {:>12.0} {:>7.1} {:>12.0} {:>7.1}",
            t.as_mins_f64(),
            m,
            met_nodes.points().get(i).map(|p| p.1).unwrap_or(f64::NAN),
            tir_thr.points().get(i).map(|p| p.1).unwrap_or(f64::NAN),
            tir_nodes.points().get(i).map(|p| p.1).unwrap_or(f64::NAN),
        );
    }
    writeln!(
        out,
        "\nPeak nodes:  MeT {:.0} (paper 9)  tiramola {:.0} (paper 11)",
        r.met.peak_nodes, r.tiramola.peak_nodes
    );
    writeln!(
        out,
        "Final nodes: MeT {:.0} (paper ≈ 6)  tiramola {:.0} (paper: barely shrinks)",
        r.met.final_nodes, r.tiramola.final_nodes
    );
    let met_peak = met_thr.points().iter().map(|p| p.1).fold(0.0, f64::max);
    writeln!(
        out,
        "MeT peak throughput: {:.0} ops/s (paper ≈ 22000, the client saturation ceiling)",
        met_peak
    );

    let json = json!({
        "experiment": "fig6",
        "met": {
            "throughput": minute_curve(&r.met.throughput),
            "nodes": minute_curve(&r.met.nodes),
            "peak_nodes": r.met.peak_nodes,
            "final_nodes": r.met.final_nodes,
        },
        "tiramola": {
            "throughput": minute_curve(&r.tiramola.throughput),
            "nodes": minute_curve(&r.tiramola.nodes),
            "peak_nodes": r.tiramola.peak_nodes,
            "final_nodes": r.tiramola.final_nodes,
        },
        "met_extra_ops_phase1": r.met_extra_ops(),
        "met_gain_phase1": r.met_gain(),
    });
    Report { text: out.0, json: Some(json), passed: true }
}

fn table2(seed: u64, _faults: &FaultPlan) -> Report {
    eprintln!("table2: 3 × 45 simulated minutes...");
    let r = table2::run(seed);
    let mut out = Text::default();
    writeln!(out, "Table 2 — PyTPCC average throughput (tpmC)");
    writeln!(out, "{:<42} {:>10} {:>10}", "Setting", "measured", "paper");
    writeln!(out, "{:<42} {:>10.0} {:>10}", "i) Manual-Homogeneous", r.manual_homogeneous, 25380);
    writeln!(
        out,
        "{:<42} {:>10.0} {:>10}",
        "ii) MeT with reconfiguration overhead", r.met_with_overhead, 31020
    );
    writeln!(
        out,
        "{:<42} {:>10.0} {:>10}",
        "iii) MeT w/o reconfiguration overhead", r.met_without_overhead, 33720
    );
    writeln!(
        out,
        "\nheterogeneous gain (iii/i): {:.2}x (paper 1.33x)",
        r.met_without_overhead / r.manual_homogeneous
    );
    writeln!(
        out,
        "overhead gap (iii vs ii):   {:.1}% (paper 8%)",
        (1.0 - r.met_with_overhead / r.met_without_overhead) * 100.0
    );
    writeln!(out, "reconfigurations in (ii):   {}", r.reconfigurations);

    let json = json!({
        "experiment": "table2",
        "manual_homogeneous_tpmc": r.manual_homogeneous,
        "met_with_overhead_tpmc": r.met_with_overhead,
        "met_without_overhead_tpmc": r.met_without_overhead,
        "paper": {"manual": 25380, "met": 31020, "met_no_overhead": 33720},
        "reconfigurations": r.reconfigurations,
    });
    Report { text: out.0, json: Some(json), passed: true }
}

fn ablations(seed: u64, _faults: &FaultPlan) -> Report {
    let mut out = Text::default();
    let addition = ablations::addition_policy(8);
    writeln!(out, "Ablation 1 — node addition policy (Algorithm 1, §4.2.2, need 8 nodes):");
    for (name, iterations, overshoot) in &addition {
        writeln!(
            out,
            "  {name:<10} {iterations:>3} iterations, {overshoot:>2} nodes of temporary overshoot"
        );
    }
    writeln!(out, "  (paper's worked example: quadratic 11 iterations vs linear 8, trading");
    writeln!(out, "   temporary over-provision for a logarithmic response to demand)");

    let assignment = ablations::assignment_quality(200, seed);
    writeln!(out, "\nAblation 2 — assignment quality, mean makespan / lower bound (200 rounds):");
    for (name, ratio) in &assignment {
        writeln!(out, "  {name:<20} {ratio:.3}");
    }

    let smoothing = ablations::smoothing_stability(seed);
    writeln!(out, "\nAblation 3 — monitor smoothing (§4.1), threshold flips on a spiky load:");
    for (name, flips) in &smoothing {
        writeln!(out, "  {name:<24} {flips:>3} state flips");
    }

    let suboptimal = ablations::suboptimal_threshold_sweep(seed);
    writeln!(out, "\nAblation 4 — SubOptimalNodesThreshold (§5), minutes to 90% of steady state:");
    for (threshold, minutes) in &suboptimal {
        writeln!(out, "  threshold {threshold:.2} → {minutes:>5.1} min");
    }

    writeln!(out, "\nAblation 5 — locality compaction trigger (§5), steady ops/s after moves:");
    let locality = ablations::locality_threshold_sweep(seed);
    for (threshold, thr) in &locality {
        let label = if *threshold == 0.0 {
            "never compact".into()
        } else {
            format!("compact below {threshold:.1}")
        };
        writeln!(out, "  {label:<20} {thr:>8.0} ops/s");
    }

    let json = json!({
        "experiment": "ablations",
        "addition_policy_need_8": addition,
        "assignment_quality": assignment,
        "smoothing_stability": smoothing,
        "suboptimal_threshold_sweep": suboptimal,
        "locality_threshold_sweep": locality,
    });
    Report { text: out.0, json: Some(json), passed: true }
}

fn chaos(seed: u64, plan: &FaultPlan, telemetry: &Telemetry) -> Report {
    eprintln!("chaos: 22 simulated minutes × 2 runs, fault plan [{plan}]...");
    let r = chaos::run(seed, 20, plan, telemetry.clone());
    let mut out = Text::default();
    writeln!(out, "Chaos — Fig-4 workload under fault plan [{}]", r.plan);
    writeln!(out, "{:>28} {:>14} {:>14}", "", "fault-free", "faulted");
    let (a, b) = (&r.fault_free, &r.faulted);
    let rows: [(&str, String, String); 11] = [
        ("steady ops/s", format!("{:.0}", a.steady), format!("{:.0}", b.steady)),
        ("reconfigurations", a.reconfigurations.to_string(), b.reconfigurations.to_string()),
        (
            "converged at (min)",
            format!("{:.1}", a.converged_at_min),
            format!("{:.1}", b.converged_at_min),
        ),
        ("online servers", a.online.to_string(), b.online.to_string()),
        ("step retries", a.retries.to_string(), b.retries.to_string()),
        ("steps abandoned", a.abandoned.to_string(), b.abandoned.to_string()),
        ("reconcile rounds", a.reconciles.to_string(), b.reconciles.to_string()),
        ("crash replacements", a.replacements.to_string(), b.replacements.to_string()),
        ("orphans re-homed", a.orphans_reassigned.to_string(), b.orphans_reassigned.to_string()),
        ("degraded-mode entries", a.degraded_entries.to_string(), b.degraded_entries.to_string()),
        ("scale-in vetoes", a.scale_in_vetoes.to_string(), b.scale_in_vetoes.to_string()),
    ];
    for (label, a, b) in rows {
        writeln!(out, "{label:>28} {a:>14} {b:>14}");
    }
    writeln!(out, "\nfaults injected: {}", b.faults_injected);
    writeln!(out, "final profiles (fault-free): {:?}", a.profiles);
    writeln!(out, "final profiles (faulted):    {:?}", b.profiles);
    writeln!(
        out,
        "same final configuration: {} | wasted actions: {} | convergence penalty: {:+.1} min",
        r.same_final_configuration, r.wasted_actions, r.convergence_penalty_min
    );

    let run_json = |run: &chaos::ChaosRun| {
        json!({
            "steady": run.steady,
            "reconfigurations": run.reconfigurations,
            "converged_at_min": run.converged_at_min,
            "profiles": run.profiles,
            "online": run.online,
            "retries": run.retries,
            "abandoned": run.abandoned,
            "reconciles": run.reconciles,
            "replacements": run.replacements,
            "orphans_reassigned": run.orphans_reassigned,
            "degraded_entries": run.degraded_entries,
            "scale_in_vetoes": run.scale_in_vetoes,
            "faults_injected": run.faults_injected,
        })
    };
    let json = json!({
        "experiment": "chaos",
        "plan": r.plan,
        "fault_free": run_json(a),
        "faulted": run_json(b),
        "same_final_configuration": r.same_final_configuration,
        "wasted_actions": r.wasted_actions,
        "convergence_penalty_min": r.convergence_penalty_min,
        "telemetry": report::telemetry_summary(telemetry),
    });
    Report { text: out.0, json: Some(json), passed: r.same_final_configuration }
}

fn latency(seed: u64, _faults: &FaultPlan, telemetry: &Telemetry) -> Report {
    eprintln!(
        "latency: {} sweep points x {} min + 2 SLO runs x {} min...",
        latency::SWEEP_LOADS.len(),
        latency::SWEEP_MINUTES,
        latency::SLO_MINUTES
    );
    let r = latency::run(seed, telemetry.clone());
    let mut out = Text::default();
    writeln!(out, "Latency — p99 versus offered load (Random-Homogeneous, no controller)");
    writeln!(out, "{:>6} {:>12} {:>14} {:>14}", "load", "ops/s", "worst p99 ms", "weighted p99");
    for p in &r.sweep {
        writeln!(
            out,
            "{:>6.2} {:>12.0} {:>14.1} {:>14.1}",
            p.load_factor, p.throughput, p.worst_p99_ms, p.weighted_p99_ms
        );
    }

    writeln!(
        out,
        "\nSLO gate at {:.1}x load, p99 SLO {:.0} ms (utilization thresholds parked \
         above 100%):",
        r.slo_load, r.slo_p99_ms
    );
    writeln!(out, "{:>20} {:>12} {:>12}", "", "gated", "ungated");
    let (g, u) = (&r.gated, &r.ungated);
    let rows: [(&str, String, String); 5] = [
        ("online nodes", g.online.to_string(), u.online.to_string()),
        ("reconfigurations", g.reconfigurations.to_string(), u.reconfigurations.to_string()),
        ("worst p99 ms", format!("{:.1}", g.worst_p99_ms), format!("{:.1}", u.worst_p99_ms)),
        (
            "weighted p99 ms",
            format!("{:.1}", g.weighted_p99_ms),
            format!("{:.1}", u.weighted_p99_ms),
        ),
        ("ops/s", format!("{:.0}", g.throughput), format!("{:.0}", u.throughput)),
    ];
    for (label, a, b) in rows {
        writeln!(out, "{label:>20} {a:>12} {b:>12}");
    }
    let verdict = g.online > latency::slo_config(None).min_nodes
        && g.weighted_p99_ms < r.slo_p99_ms
        && g.weighted_p99_ms < u.weighted_p99_ms;
    writeln!(
        out,
        "\nSLO gate verdict: {}",
        if verdict { "scale-out restored p99 under the SLO" } else { "FAILED to restore p99" }
    );

    let slo_json = |o: &latency::SloOutcome| {
        json!({
            "online": o.online,
            "reconfigurations": o.reconfigurations,
            "worst_p99_ms": o.worst_p99_ms,
            "weighted_p99_ms": o.weighted_p99_ms,
            "throughput": o.throughput,
        })
    };
    let json = json!({
        "experiment": "latency",
        "sweep": r.sweep.iter().map(|p| json!({
            "load_factor": p.load_factor,
            "throughput": p.throughput,
            "worst_p99_ms": p.worst_p99_ms,
            "weighted_p99_ms": p.weighted_p99_ms,
        })).collect::<Vec<_>>(),
        "slo_p99_ms": r.slo_p99_ms,
        "slo_load": r.slo_load,
        "gated": slo_json(g),
        "ungated": slo_json(u),
        "slo_gate_restored_p99": verdict,
        "telemetry": report::telemetry_summary(telemetry),
    });
    Report { text: out.0, json: Some(json), passed: verdict }
}

/// The crash audit over [`crash::DEFAULT_OPS`] operations, with inline or
/// background maintenance, then the fleet leg: the reference chaos plan
/// plus one of each disk fault, injected while MeT is mid-convergence.
fn crash(seed: u64, bg: bool, telemetry: &Telemetry) -> Report {
    let ops = crash::DEFAULT_OPS;
    eprintln!(
        "crash: store audit over {ops} ops (seed {seed}, maintenance {})...",
        if bg { "background" } else { "inline" }
    );
    let audit = crash::run(seed, ops, bg);
    telemetry.emit(
        SimTime::from_secs(0),
        TelemetryEvent::WalAppend { server: 0, records: audit.wal_appends, bytes: audit.wal_bytes },
    );

    let mut out = Text::default();
    writeln!(out, "Crash audit — kill-at-every-point recovery of the durable hstore");
    let yes = |ok: bool| if ok { "yes" } else { "NO" };
    let audit_rows: [(&str, String); 9] = [
        ("leg", "points".into()),
        ("boundary crashes", audit.crash_points.to_string()),
        ("torn-write offsets", audit.torn_points.to_string()),
        ("group-commit crashes", audit.group_points.to_string()),
        ("torn tails truncated", audit.torn_tails_seen.to_string()),
        ("WAL records replayed", audit.replayed_records.to_string()),
        ("max recovery ms", audit.max_recovery_ms.to_string()),
        ("typed corruption", yes(audit.corruption_typed).into()),
        ("fsync failure clean", yes(audit.fsync_clean).into()),
    ];
    for (label, value) in audit_rows {
        writeln!(out, "{label:>28} {value:>12}");
    }
    for f in &audit.failures {
        writeln!(out, "  FAILURE: {f}");
    }

    // Torn write and fsync failure are fatal to their victims (the healer
    // must replace them and replay their WAL backlog); bit-rot must
    // surface as a detected corruption plus a repair charge, not as wrong
    // data.
    let minutes = 20;
    let mut faults: Vec<ScheduledFault> = FaultPlan::reference().faults().to_vec();
    faults.push(ScheduledFault {
        at: SimTime::from_secs(480),
        spec: FaultSpec::TornWrite { bytes: 1024 },
    });
    faults.push(ScheduledFault { at: SimTime::from_secs(560), spec: FaultSpec::FsyncFail });
    faults
        .push(ScheduledFault { at: SimTime::from_secs(640), spec: FaultSpec::BitRot { block: 2 } });
    let plan = FaultPlan::new(faults);
    eprintln!("crash: fleet leg under '{plan}' for {minutes} min...");
    let fleet = chaos::run_chaos_curve(1_000, minutes, &plan, telemetry.clone());

    let disk_faults = telemetry.counter_total("sim_disk_faults_total");
    let corruptions = telemetry.counter_total("sim_corruptions_detected_total");
    let wal_replays = telemetry.counter_total("sim_wal_replays_total");
    let wal_replayed_bytes = telemetry.counter_total("sim_wal_replayed_bytes_total");

    writeln!(out, "\nFleet leg — disk faults on top of the reference chaos plan");
    writeln!(out, "{:>28} {:>12}", "faults injected", fleet.faults_injected);
    writeln!(out, "{:>28} {:>12}", "disk faults delivered", disk_faults);
    writeln!(out, "{:>28} {:>12}", "corruptions detected", corruptions);
    writeln!(out, "{:>28} {:>12}", "WAL replays", wal_replays);
    writeln!(out, "{:>28} {:>12}", "WAL bytes replayed", wal_replayed_bytes);
    writeln!(out, "{:>28} {:>12}", "servers replaced", fleet.replacements);
    writeln!(out, "{:>28} {:>12}", "online at end", fleet.online);
    writeln!(out, "{:>28} {:>12.1}", "converged at min", fleet.converged_at_min);

    let audit_ok = audit.passed() && audit.max_recovery_ms <= 10_000;
    let fleet_ok = fleet.faults_injected == plan.faults().len() as u64
        && disk_faults >= 2
        && corruptions >= 1
        && wal_replays >= 1
        && fleet.replacements >= 1
        && fleet.online >= 1
        && fleet.converged_at_min < (minutes as f64) - 2.0;
    writeln!(
        out,
        "\nCrash verdict: {}",
        match (audit_ok, fleet_ok) {
            (true, true) => "every crash recovered exactly; the fleet healed through disk faults",
            (false, _) => "FAILED the store audit",
            (_, false) => "FAILED the fleet leg",
        }
    );

    let json = json!({
        "experiment": "crash",
        "ops": audit.ops,
        "seed": seed,
        "background_maintenance": bg,
        "audit": {
            "crash_points": audit.crash_points,
            "torn_points": audit.torn_points,
            "group_points": audit.group_points,
            "torn_tails_seen": audit.torn_tails_seen,
            "replayed_records": audit.replayed_records,
            "wal_appends": audit.wal_appends,
            "wal_bytes": audit.wal_bytes,
            "max_recovery_ms": audit.max_recovery_ms,
            "corruption_typed": audit.corruption_typed,
            "fsync_clean": audit.fsync_clean,
            "failures": audit.failures,
        },
        "fleet": {
            "plan": plan.to_string(),
            "minutes": minutes,
            "faults_injected": fleet.faults_injected,
            "disk_faults": disk_faults,
            "corruptions_detected": corruptions,
            "wal_replays": wal_replays,
            "wal_replayed_bytes": wal_replayed_bytes,
            "replacements": fleet.replacements,
            "online": fleet.online,
            "converged_at_min": fleet.converged_at_min,
        },
        "audit_ok": audit_ok,
        "fleet_ok": fleet_ok,
        "telemetry": report::telemetry_summary(telemetry),
    });
    Report { text: out.0, json: Some(json), passed: audit_ok && fleet_ok }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Command, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args, &EnvConfig::default())
    }

    fn invocation(args: &[&str]) -> Invocation {
        match parse_args(args) {
            Ok(Command::Run(inv)) => inv,
            other => panic!("{args:?} parsed to {other:?}"),
        }
    }

    #[test]
    fn rows_have_unique_names_and_the_committed_seeds() {
        let mut names: Vec<&str> = ROWS.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ROWS.len(), "duplicate row name");
        for (name, seed) in
            [("fig1", 1_000), ("fig4", 1_000), ("table2", 1_000), ("ablations", 7), ("crash", 42)]
        {
            assert_eq!(row(name).map(|r| r.seed), Some(seed), "{name}");
        }
    }

    #[test]
    fn an_explicit_default_seed_is_the_default_run() {
        let (a, b) = (invocation(&["fig4"]), invocation(&["fig4", "--seed", "1000"]));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(invocation(&["fig4", "--seed", "9"]).seed, 9);
    }

    #[test]
    fn list_and_defaults() {
        assert!(matches!(parse_args(&["--list"]), Ok(Command::List)));
        let inv = invocation(&["chaos"]);
        assert_eq!(inv.faults, FaultPlan::reference());
        assert_eq!((inv.level, inv.trace), (Verbosity::Off, None));
        assert_eq!(inv.results_dir, PathBuf::from("results"));
        assert!(invocation(&["fig4"]).faults.is_empty(), "a row without faults injects none");
    }

    #[test]
    fn faults_random_is_seeded_by_the_seed_flag() {
        let random = |seed| FaultPlan::random(seed, &simcore::RandomFaultConfig::default());
        assert_eq!(invocation(&["chaos", "--faults", "random"]).faults, random(1_000));
        let inv = invocation(&["chaos", "--faults", "random", "--seed", "7"]);
        assert_eq!((inv.seed, inv.faults), (7, random(7)));
        let spec = "305s:crash@1,7m:metrics-drop";
        assert_eq!(
            invocation(&["chaos", "--faults", spec]).faults,
            FaultPlan::parse(spec).expect("valid spec")
        );
    }

    #[test]
    fn the_environment_sets_trace_and_results_dir() {
        let env = EnvConfig {
            trace_path: Some("/tmp/t.jsonl".into()),
            trace_level: None,
            results_dir: Some("/tmp/out".into()),
        };
        let Ok(Command::Run(inv)) = parse(&["latency".to_string()], &env) else {
            panic!("latency parses")
        };
        assert_eq!(inv.level, Verbosity::Debug, "a trail defaults to debug");
        assert_eq!(inv.results_dir, PathBuf::from("/tmp/out"));
        let env = EnvConfig { trace_level: Some("info".into()), ..env };
        let Ok(Command::Run(inv)) = parse(&["latency".to_string()], &env) else {
            panic!("latency parses")
        };
        assert_eq!(inv.level, Verbosity::Info);
    }

    #[test]
    fn bad_input_is_an_error_never_ignored() {
        for args in [
            &[][..],
            &["fig9"],
            &["fig4", "--sed", "3"],
            &["fig4", "--seed"],
            &["fig4", "--seed", "ten"],
            &["fig4", "--seed", "-1"],
            &["fig4", "--seed", "1", "--seed", "2"],
            &["chaos", "--faults", "305s:explode@1"],
            &["chaos", "--faults", ""],
            &["fig4", "--faults", "reference"],
            &["crash", "--faults", "random"],
            &["--list", "fig4"],
        ] {
            assert!(parse_args(args).is_err(), "{args:?} must be rejected");
        }
    }

    #[test]
    fn only_rows_that_emit_a_trail_open_the_trace_file() {
        let dir = std::env::temp_dir().join(format!("exp-trail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let env = |name: &str| EnvConfig {
            trace_path: Some(dir.join(name)),
            trace_level: None,
            results_dir: Some(dir.clone()),
        };
        let Ok(Command::Run(table1)) = parse(&["table1".to_string()], &env("table1.jsonl")) else {
            panic!("table1 parses")
        };
        assert!(table1.run().passed);
        assert!(!dir.join("table1.jsonl").exists(), "table1 takes no telemetry: no trail file");
        let Ok(Command::Run(fig4)) = parse(&["fig4".to_string()], &env("fig4.jsonl")) else {
            panic!("fig4 parses")
        };
        let t = fig4.telemetry();
        t.emit(SimTime::ZERO, TelemetryEvent::WalAppend { server: 0, records: 1, bytes: 8 });
        t.flush();
        let trail = std::fs::read_to_string(dir.join("fig4.jsonl")).expect("fig4 writes its trail");
        assert_eq!(trail.lines().count(), 1, "{trail}");
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
    }

    #[test]
    fn table1_renders_every_profile_and_passes() {
        let r = table1(0, &FaultPlan::empty());
        assert!(r.passed && r.json.is_none());
        assert!(r.text.starts_with("Table 1 — node configuration profiles\n"));
        assert_eq!(r.text.lines().count(), 2 + met::ProfileKind::ALL.len() + 2);
    }
}
