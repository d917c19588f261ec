//! Docs, CI and scripts may only name knobs and binaries that exist: every
//! `MET_*` token must be read by `EnvConfig` and every `exp-*` token must
//! have a source file under `crates/bench/src/bin/`.

use std::collections::BTreeSet;
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
    assert!(known_knobs.contains("MET_TRACE") && known_bins.contains("exp-fig4"), "scan is broken");

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
    }
    assert!(stale.is_empty(), "stale names:\n{}", stale.join("\n"));
}
