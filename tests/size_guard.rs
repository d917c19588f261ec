//! Size ratchet: the figures in `ci/ratchet.toml` are ceilings, and this
//! test fails when the code grows past one. Growth is then a decision
//! recorded in a diff of that file, never a slide. A figure that has
//! fallen below its ceiling is named on stdout (`cargo test --test
//! size_guard -- --nocapture`) so the ceiling can be lowered to it.
//!
//! Figures, all counted over source text:
//! - `lines.<crate>`: lines under `crates/<crate>/src`, each file counted
//!   up to its first column-0 `#[cfg(test)]`;
//! - `knobs`: distinct `MET_*` names in `crates/bench/src/config.rs`
//!   (`EnvConfig`);
//! - `unsafe`: `unsafe` blocks, functions, impls, traits and extern
//!   blocks in `.rs` files outside `vendor/`;
//! - `panics.<crate>`: `unwrap(`, `expect(` and `panic!(` in the same
//!   non-test lines as `lines.<crate>`, leaving out `src/bin`.
//!
//! Text after `//` does not count toward `unsafe` or `panics.*`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, recursively, skipping hidden directories
/// and those named in `skip`.
fn rust_files(dir: &Path, skip: &[&str], out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if path.is_dir() {
            if !name.starts_with('.') && !skip.contains(&name) {
                rust_files(&path, skip, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// A file's lines up to its first column-0 `#[cfg(test)]`.
fn non_test_lines(text: &str) -> Vec<&str> {
    text.lines().take_while(|l| !l.starts_with("#[cfg(test)]")).collect()
}

/// A line without its `//` comment.
fn code(line: &str) -> &str {
    line.find("//").map_or(line, |at| &line[..at])
}

/// `unsafe` blocks, functions, impls, traits and extern blocks in `text`.
fn unsafe_sites(text: &str) -> u64 {
    text.match_indices("unsafe")
        .filter(|(at, _)| {
            let before = text[..*at].chars().next_back();
            let after = text[at + "unsafe".len()..].trim_start();
            !before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_' || c == '"')
                && ["{", "fn ", "impl", "trait ", "extern "].iter().any(|k| after.starts_with(k))
        })
        .count() as u64
}

fn measure(root: &Path) -> BTreeMap<String, u64> {
    let mut figures = BTreeMap::new();

    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ exists");
    for krate in crates.map(|e| e.expect("crates/ entry").path()) {
        let name = krate.file_name().and_then(|n| n.to_str()).expect("utf-8 crate name");
        let mut files = Vec::new();
        rust_files(&krate.join("src"), &[], &mut files);
        let (mut lines, mut panics) = (0, 0);
        for file in &files {
            let text = read(file);
            let kept = non_test_lines(&text);
            lines += kept.len() as u64;
            if !file.strip_prefix(&krate).is_ok_and(|p| p.starts_with("src/bin")) {
                panics += kept
                    .iter()
                    .map(|l| {
                        let c = code(l);
                        (c.matches("unwrap(").count()
                            + c.matches("expect(").count()
                            + c.matches("panic!(").count()) as u64
                    })
                    .sum::<u64>();
            }
        }
        figures.insert(format!("lines.{name}"), lines);
        figures.insert(format!("panics.{name}"), panics);
    }

    let config = read(&root.join("crates/bench/src/config.rs"));
    let mut knobs = std::collections::BTreeSet::new();
    for (at, _) in config.match_indices("MET_") {
        let rest = &config[at + "MET_".len()..];
        let len = rest
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(rest.len());
        if len > 0 {
            knobs.insert(&rest[..len]);
        }
    }
    figures.insert("knobs".to_string(), knobs.len() as u64);

    let mut files = Vec::new();
    rust_files(root, &["vendor", "target"], &mut files);
    let unsafe_sites =
        files.iter().map(|f| read(f).lines().map(|l| unsafe_sites(code(l))).sum::<u64>()).sum();
    figures.insert("unsafe".to_string(), unsafe_sites);

    figures
}

/// Parses `key = integer` lines; `#` starts a comment.
fn ceilings(text: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or_default().trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .unwrap_or_else(|| panic!("ci/ratchet.toml:{}: expected `key = integer`", n + 1));
        let value =
            value.trim().parse().unwrap_or_else(|e| panic!("ci/ratchet.toml:{}: {e}", n + 1));
        assert!(out.insert(key.trim().to_string(), value).is_none(), "duplicate key {key}");
    }
    out
}

#[test]
fn code_stays_under_its_committed_ceilings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let figures = measure(root);
    let ceilings = ceilings(&read(&root.join("ci/ratchet.toml")));
    assert!(figures.get("lines.hstore").is_some_and(|&n| n > 0), "scan is broken");

    let mut over = Vec::new();
    for (key, &now) in &figures {
        match ceilings.get(key) {
            None => over.push(format!("{key} = {now} has no ceiling")),
            Some(&max) if now > max => over.push(format!("{key} = {now} exceeds {max}")),
            Some(&max) if now < max => println!("{key} = {now} is below its ceiling {max}"),
            Some(_) => {}
        }
    }
    over.extend(
        ceilings
            .keys()
            .filter(|k| !figures.contains_key(*k))
            .map(|k| format!("{k} measures nothing")),
    );
    assert!(over.is_empty(), "ci/ratchet.toml:\n{}", over.join("\n"));
}
