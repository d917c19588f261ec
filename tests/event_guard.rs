//! Every telemetry event kind must have an emitter: each `EventKind`
//! variant has to appear as `TelemetryEvent::<Name>` in the non-test code
//! of the root package or of a workspace crate other than `telemetry`. A
//! kind that nothing constructs is taxonomy no trail can ever show.

use std::path::{Path, PathBuf};

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension() == Some("rs".as_ref()) {
            out.push(path);
        }
    }
}

/// A file's lines up to its first column-0 `#[cfg(test)]`.
fn non_test(text: &str) -> String {
    text.lines().take_while(|l| !l.starts_with("#[cfg(test)]")).collect::<Vec<_>>().join("\n")
}

/// The variants of `pub enum EventKind`, in declaration order.
fn event_kinds(event_rs: &str) -> Vec<String> {
    let body = event_rs.split("pub enum EventKind {").nth(1).expect("EventKind is defined");
    let body = &body[..body.find('}').expect("EventKind closes")];
    body.lines().filter_map(|l| l.trim().strip_suffix(',')).map(str::to_string).collect()
}

/// True when `name` occurs in `code` not followed by an identifier
/// character (`TelemetryEvent::Flush` does not match `...::FlushQueued`).
fn names(code: &str, name: &str) -> bool {
    code.match_indices(name).any(|(at, _)| {
        !code[at + name.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
    })
}

#[test]
fn every_event_kind_has_an_emitter_outside_telemetry() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let kinds = event_kinds(&read(&root.join("crates/telemetry/src/event.rs")));
    assert!(kinds.len() > 20 && kinds.iter().any(|k| k == "MonitorSample"), "scan is broken");

    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ exists");
    for dir in crates.map(|e| e.expect("crates/ entry").path()) {
        if dir.file_name() != Some("telemetry".as_ref()) {
            rust_files(&dir.join("src"), &mut files);
        }
    }
    let code: String = files.iter().map(|p| non_test(&read(p)) + "\n").collect();
    assert!(names(&code, "TelemetryEvent::MonitorSample"), "scan is broken");

    let unemitted: Vec<&String> =
        kinds.iter().filter(|k| !names(&code, &format!("TelemetryEvent::{k}"))).collect();
    assert!(
        unemitted.is_empty(),
        "EventKind variants that no non-test code outside crates/telemetry constructs \
         (emit them or delete them): {unemitted:?}"
    );
}
