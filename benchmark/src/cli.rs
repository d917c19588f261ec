//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! as the driver passes them, plus `--smoke`. Without `--workload` every
//! workload runs, each in a child process of its own.

use crate::workloads::{self, Outcome, RunConfig};
use serde_json::{Map, Value};

/// Measured window when `--seconds` is absent (`run_seconds` of
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 10.0;
/// Measured window of a smoke run when `--seconds` is absent.
pub const SMOKE_SECONDS: f64 = 0.2;

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One workload, or all of them when `None`.
    pub workload: Option<String>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`, if given.
    pub seconds: Option<f64>,
    /// `--trace` / `--trace 1`.
    pub trace: bool,
    /// `--smoke`.
    pub smoke: bool,
}

impl Args {
    /// Parses `args` (without the program name).
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args { workload: None, seed: 1, seconds: None, trace: false, smoke: false };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match arg.as_str() {
                "--workload" => {
                    let name = value("--workload")?;
                    if !workloads::NAMES.contains(&name.as_str()) {
                        return Err(format!(
                            "unknown workload '{name}' (known: {})",
                            workloads::NAMES.join(", ")
                        ));
                    }
                    out.workload = Some(name.clone());
                }
                "--seed" => {
                    out.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    let s: f64 =
                        value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && (0.0..=600.0).contains(&s)) {
                        return Err(format!("--seconds {s} is outside 0..=600"));
                    }
                    out.seconds = Some(s);
                }
                "--trace" => {
                    // `--trace`, `--trace 0` and `--trace 1` are all accepted.
                    out.trace = match it.peek().map(|s| s.as_str()) {
                        Some("0") => {
                            it.next();
                            false
                        }
                        Some("1") => {
                            it.next();
                            true
                        }
                        _ => true,
                    };
                }
                "--smoke" => out.smoke = true,
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(out)
    }

    /// The run configuration these arguments ask for.
    pub fn run_config(&self) -> RunConfig {
        let default = if self.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS };
        RunConfig {
            seed: self.seed,
            seconds: self.seconds.unwrap_or(default),
            trace: self.trace,
            smoke: self.smoke,
        }
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let mut map = Map::new();
    map.insert("correct".into(), Value::Bool(outcome.correct()));
    map.insert("attempted".into(), Value::Number(outcome.attempted as f64));
    map.insert("failed".into(), Value::Number(outcome.failed as f64));
    map.insert("metrics".into(), outcome.metrics.to_json());
    serde_json::to_string(&Value::Object(map)).expect("a value tree always serializes")
}

/// Runs one workload in this process and prints its report: host
/// fingerprint, diagnostics, every metric by name with its unit, and the
/// result line last. Returns whether every output check passed.
pub fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let cfg = args.run_config();
    println!(
        "met-benchmark workload={name} seed={} seconds={} trace={} smoke={} {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        u8::from(cfg.smoke),
        crate::host::fingerprint(),
    );
    let outcome = workloads::run(name, &cfg)?;
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (def, value) in outcome.metrics.iter() {
        println!("{:<52} {:>18.4} {}", def.name, value, def.unit);
    }
    println!("{}", result_line(&outcome));
    Ok(outcome.correct())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a =
            parse(&["--workload", "read-fit", "--seed", "7", "--seconds", "10", "--trace", "0"])
                .unwrap();
        assert_eq!(a.workload.as_deref(), Some("read-fit"));
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (7, Some(10.0), false, false));
        assert!(parse(&["--trace", "1"]).unwrap().trace);
        assert!(parse(&["--trace"]).unwrap().trace);
        assert!(parse(&["--trace", "--smoke"]).unwrap().smoke);
        assert_eq!(parse(&["--smoke"]).unwrap().run_config().seconds, SMOKE_SECONDS);
        assert_eq!(parse(&[]).unwrap().run_config().seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--seconds", "1e9"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::new(false);
        o.attempted = 10;
        o.failed = 1;
        let v = serde_json::from_str(&result_line(&o)).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v["correct"], false);
        assert_eq!(v["attempted"], 10);
        assert_eq!(v["metrics"]["setup_s"]["unit"], "s");
    }
}
