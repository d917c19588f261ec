//! Host facts echoed with every result: absolute numbers only compare on
//! the same host, so the output says which host that was.

use std::fs;

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
/// 0 where `/proc` does not provide it.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model string from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    let info = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, v)| v.trim().to_string())
}

/// The checked-out commit, read from `.git` without spawning a process;
/// `"unknown"` outside a git checkout (the driver's checkouts are plain
/// directories).
pub fn commit() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD").or_else(|| read("../.git/HEAD")) else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| read(&format!("../.git/{r}")))
            .unwrap_or_else(|| r.to_string()),
        None => head,
    }
}

/// One line: `nproc=2 cpu="..." commit=abc123`.
pub fn fingerprint() -> String {
    format!("nproc={} cpu=\"{}\" commit={}", nproc(), cpu_model(), commit())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_has_every_field() {
        let f = fingerprint();
        assert!(f.contains("nproc=") && f.contains("cpu=") && f.contains("commit="), "{f}");
        assert!(nproc() >= 1);
        assert!(peak_rss_mib() >= 0.0);
    }
}
