//! Docs, CI and scripts may only name knobs, binaries and test targets that
//! exist: every `MET_*` token must be read by `EnvConfig`, every `exp-*`
//! token must have a source file under `crates/bench/src/bin/`, and every
//! `--test <name>` must have a `tests/<name>.rs` in its package. The CI
//! workflow and `ci/run.sh` must name the same jobs.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Every maximal run of `tail` characters that follows `prefix` at a word
/// start, prefix included (`MET_[A-Z0-9_]+`, `exp-[a-z0-9]+`).
fn tokens(text: &str, prefix: &str, tail: fn(char) -> bool) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (at, _) in text.match_indices(prefix) {
        if text[..at].chars().next_back().is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
            continue;
        }
        let rest = &text[at + prefix.len()..];
        let len = rest.find(|c| !tail(c)).unwrap_or(rest.len());
        if len > 0 {
            out.insert(format!("{prefix}{}", &rest[..len]));
        }
    }
    out
}

fn knobs(text: &str) -> BTreeSet<String> {
    tokens(text, "MET_", |c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

fn binaries(text: &str) -> BTreeSet<String> {
    tokens(text, "exp-", |c| c.is_ascii_lowercase() || c.is_ascii_digit())
}

/// Every `--test <name>` with the package a `-p` / `--package` before it on
/// its line names (`None`: the root package). Where prose wraps a command,
/// the name or the package may sit on the next line. A placeholder such as
/// `<name>` is not a name.
fn test_targets(text: &str) -> BTreeSet<(Option<String>, String)> {
    let words: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .flat_map(|(n, line)| line.split_whitespace().map(move |w| (n, w)))
        .map(|(n, w)| (n, w.trim_matches(|c: char| "`'\"(),.;:".contains(c))))
        .collect();
    let mut out = BTreeSet::new();
    let mut package: Option<(usize, &str)> = None;
    for pair in words.windows(2) {
        let &[(line, flag), (arg_line, arg)] = pair else { continue };
        match flag {
            "-p" | "--package" => package = Some((arg_line, arg)),
            "--test" if arg.chars().all(|c| c.is_ascii_alphanumeric() || "_-".contains(c)) => {
                let package = package.filter(|(l, _)| *l == line).map(|(_, p)| p.to_string());
                out.insert((package, arg.to_string()));
            }
            _ => {}
        }
    }
    out
}

/// The directory of every workspace package: the root and each crate under
/// `crates/`.
fn packages(root: &Path) -> BTreeMap<String, PathBuf> {
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ exists");
    let dirs = crates.map(|e| e.expect("crates/ entry").path());
    std::iter::once(root.to_path_buf())
        .chain(dirs)
        .filter_map(|dir| {
            let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).ok()?;
            let name = manifest.lines().find_map(|l| l.strip_prefix("name = "))?;
            Some((name.trim_matches('"').to_string(), dir))
        })
        .collect()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn docs_and_ci_name_only_knobs_and_binaries_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources: Vec<PathBuf> = [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "results/README.md",
        ".github/workflows/ci.yml",
        ".claude/skills/verify/SKILL.md",
    ]
    .iter()
    .map(|p| root.join(p))
    .collect();
    let scripts = std::fs::read_dir(root.join("ci")).expect("ci/ exists");
    sources.extend(
        scripts
            .map(|e| e.expect("ci/ entry").path())
            .filter(|p| p.extension() == Some("sh".as_ref())),
    );

    let known_knobs = knobs(&read(&root.join("crates/simcore/src/config.rs")));
    let known_bins: BTreeSet<String> = std::fs::read_dir(root.join("crates/bench/src/bin"))
        .expect("bench binaries exist")
        .filter_map(|e| Some(e.ok()?.path().file_stem()?.to_str()?.to_string()))
        .collect();
    let packages = packages(root);
    let found = known_knobs.contains("MET_TRACE") && known_bins.contains("exp-fig4");
    assert!(found && packages.contains_key("met-repro"), "scan is broken");

    let mut stale = Vec::new();
    for path in &sources {
        let text = read(path);
        let shown = path.strip_prefix(root).unwrap_or(path).display();
        // A name ending in `_` is a family (`MET_CRASH_*`): some knob must
        // carry the prefix.
        stale.extend(
            knobs(&text)
                .into_iter()
                .filter(|k| match k.strip_suffix('_') {
                    Some(_) => !known_knobs.iter().any(|known| known.starts_with(k.as_str())),
                    None => !known_knobs.contains(k),
                })
                .map(|k| format!("{shown}: {k} is not read by EnvConfig")),
        );
        stale.extend(
            binaries(&text)
                .into_iter()
                .filter(|b| !known_bins.contains(b))
                .map(|b| format!("{shown}: no crates/bench/src/bin/{b}.rs")),
        );
        for (package, test) in test_targets(&text) {
            let name = package.as_deref().unwrap_or("met-repro");
            match packages.get(name) {
                Some(dir) if dir.join("tests").join(format!("{test}.rs")).is_file() => {}
                Some(_) => stale.push(format!("{shown}: package {name} has no tests/{test}.rs")),
                None => stale.push(format!("{shown}: --test {test} names unknown package {name}")),
            }
        }
    }
    assert!(stale.is_empty(), "stale names:\n{}", stale.join("\n"));
}

/// A job name: lowercase letters, digits and `-`.
fn job_char(c: char) -> bool {
    c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'
}

/// The jobs `ci/run.sh` defines: its `case` arms, each a line `<job>)`.
fn script_jobs(text: &str) -> BTreeSet<String> {
    text.lines()
        .filter_map(|line| line.trim().strip_suffix(')'))
        .filter(|job| !job.is_empty() && job.chars().all(job_char))
        .map(str::to_string)
        .collect()
}

/// The jobs a workflow calls: every `ci/run.sh <job>`.
fn called_jobs(text: &str) -> BTreeSet<String> {
    let call = "ci/run.sh ";
    text.match_indices(call)
        .map(|(at, _)| &text[at + call.len()..])
        .map(|rest| &rest[..rest.find(|c| !job_char(c)).unwrap_or(rest.len())])
        .filter(|job| !job.is_empty())
        .map(str::to_string)
        .collect()
}

#[test]
fn ci_workflow_calls_exactly_the_jobs_run_sh_defines() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let defined = script_jobs(&read(&root.join("ci/run.sh")));
    let called = called_jobs(&read(&root.join(".github/workflows/ci.yml")));
    let found = defined.contains("build-test") && called.contains("build-test");
    assert!(found, "scan is broken: defined {defined:?}, called {called:?}");
    let lacking: Vec<&String> = called.difference(&defined).collect();
    let uncalled: Vec<&String> = defined.difference(&called).collect();
    assert!(lacking.is_empty(), "ci.yml calls jobs ci/run.sh lacks: {lacking:?}");
    assert!(uncalled.is_empty(), "ci/run.sh defines jobs ci.yml never calls: {uncalled:?}");
}
