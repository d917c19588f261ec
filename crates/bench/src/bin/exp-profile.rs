//! `exp-profile` — wall-clock phase attribution for the fig4 run.
//!
//! Runs the fig4 MeT curve with the span profiler armed, then:
//!
//! * writes a Chrome trace-event JSON (`fig4.trace.json`, loadable in
//!   chrome://tracing or Perfetto),
//! * writes the aggregated span registry in Prometheus text format
//!   (`spans.prom`),
//! * prints the per-phase table (span count, self wall ms, share of the
//!   run's wall time).
//!
//! Knobs (via [`simcore::config::EnvConfig`]; see the README's knob
//! table): `MET_PROFILE_MINUTES`, `MET_PROFILE_OUT`.

use met_bench::profile::{self, ProfileConfig};
use telemetry::span as wallspan;

fn write_artifact(cfg: &ProfileConfig, name: &str, contents: String) {
    let path = cfg.out_dir.join(name);
    let written =
        std::fs::create_dir_all(&cfg.out_dir).and_then(|()| std::fs::write(&path, contents));
    if let Err(e) = written {
        eprintln!("exp-profile: failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("exp-profile: wrote {}", path.display());
}

fn main() {
    let cfg = ProfileConfig::from_env(simcore::config::env_config());
    eprintln!("exp-profile: fig4 seed {} for {} simulated minutes...", cfg.seed, cfg.minutes);
    let leg = profile::run_leg(&cfg);
    eprintln!(
        "exp-profile:   {:.2}s wall, {:.0} ticks/s, {} spans",
        leg.wall_s,
        leg.ticks_per_sec(),
        leg.records.len()
    );

    write_artifact(&cfg, "fig4.trace.json", wallspan::chrome_trace(&leg.records));

    // Mirror the leg's aggregate into a registry and expose it in
    // Prometheus text format next to the trace.
    let registry = telemetry::Telemetry::new(telemetry::Verbosity::Off);
    wallspan::export_to_registry(&registry, &leg.records);
    registry.gauge_set("profile_wall_seconds", &[], leg.wall_s);
    write_artifact(&cfg, "spans.prom", registry.render_prometheus());

    println!(
        "fig4 wall-clock phase attribution ({} simulated minutes, {} ticks, {:.0} ticks/s)",
        cfg.minutes,
        leg.ticks,
        leg.ticks_per_sec()
    );
    println!();
    print!("{}", profile::render_table(&leg));
}
