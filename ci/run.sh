#!/usr/bin/env bash
# Every command of every CI job, runnable offline on any host:
#
#   ci/run.sh <job>
#
# Jobs: build-test, benchmark-smoke, debug-assertions, chaos-soak,
# crash-smoke, results-identity, lint. Each job of
# .github/workflows/ci.yml checks out, restores its cache and calls this
# script with its own name; tests/docs_guard.rs fails if the workflow calls
# a job this script lacks, or this script defines one the workflow never
# calls. Every cargo call is --offline (dependencies are vendored). Every
# exp-* run writes its report into a scratch MET_RESULTS_DIR, so a run
# never touches the committed results/.
#
# Each gate prints one line, `gate <name>: pass|FAIL in <s> s`; the job
# stops at its first failing gate and exits 1.
set -uo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root" || exit 2
scratch=$(mktemp -d "${TMPDIR:-/tmp}/ci-run.XXXXXX")
trap 'rm -rf "$scratch"' EXIT
export MET_RESULTS_DIR=$scratch

# gate <name> <command...>: runs the command, prints its outcome and wall
# time, and ends the job on failure.
gate() {
    local name=$1
    shift
    local t0 status
    t0=$(date +%s.%N)
    "$@"
    status=$?
    local secs
    secs=$(awk -v a="$t0" -v b="$(date +%s.%N)" 'BEGIN { printf "%.1f", b - a }')
    if [ "$status" -eq 0 ]; then
        echo "gate $name: pass in $secs s"
    else
        echo "gate $name: FAIL in $secs s (exit $status)"
        exit 1
    fi
}

case "${1:-}" in
    build-test)
        gate build cargo build --release --offline --workspace
        gate test cargo test --offline --workspace -q
        # The shared-reader engine's stress/property suite again in release
        # mode: optimized codegen plus real parallelism is where torn reads
        # would actually surface, and the workspace run above only
        # exercises it unoptimized.
        gate concurrent cargo test --release --offline -p hstore --test concurrent
        # Same for the background maintenance pipeline: the stress test
        # races real flusher/compactor threads against readers, and the
        # crash proptest lands kills mid-background-flush.
        gate background cargo test --release --offline -p hstore --test background
        # exp-latency exits non-zero unless the SLO gate scales out and
        # restores p99 under the SLO.
        gate latency-slo cargo run --release --offline -p met-bench --bin exp-latency
        ;;
    benchmark-smoke)
        # met-benchmark is a package of its own (not a workspace member),
        # so nothing else compiles it: an engine change that breaks a
        # function it calls, or one of its output checks (read-your-writes,
        # crash → recover → read-back, scan order), fails here. --smoke
        # runs every workload at 1 % size.
        gate benchmark-tests cargo test --release --offline --manifest-path benchmark/Cargo.toml
        gate benchmark-smoke cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke
        ;;
    debug-assertions)
        # The dev profile keeps overflow checks and debug_assert! live, so
        # an unsigned subtraction that release builds would wrap panics
        # here. exp-chaos (faults, crash-replace, WAL replay) covers the
        # whole tick pipeline.
        gate chaos-dev cargo run --offline -p met-bench --bin exp-chaos
        ;;
    chaos-soak)
        # Three fixed seeds of the bounded-rate random fault plan plus the
        # reference-plan acceptance run: MeT must converge to the
        # fault-free configuration with every fault and retry visible in
        # the trail.
        gate soak cargo test --offline -p met-bench --lib chaos:: -- --nocapture
        gate faulted-trail cargo test --offline -p met-bench --test telemetry_trail faulted
        gate chaos-report cargo run --release --offline -p met-bench --bin exp-chaos
        ;;
    crash-smoke)
        # exp-crash exits non-zero unless every kill-at-every-point
        # recovery matches the model AND the fleet heals through the
        # disk-fault plan.
        gate crash cargo run --release --offline -p met-bench --bin exp-crash
        # The same audit with the background maintenance pipeline running
        # inside every crashed store: kills land while a flusher or
        # compactor is mid-publication.
        gate crash-bg env MET_CRASH_BG=1 cargo run --release --offline -p met-bench --bin exp-crash
        # Two runs of every traced experiment, compared byte for byte.
        gate determinism cargo test --release --offline -p met-bench --test determinism
        ;;
    results-identity)
        # Every deterministic exp-* binary re-run into a scratch directory
        # and compared with what results/ holds.
        gate results ci/check-results.sh
        ;;
    lint)
        # redundant_clone is opt-in (clippy nursery) but load-bearing: the
        # read path clones only where data escapes into a caller-owned
        # result.
        gate clippy cargo clippy --offline --workspace --all-targets -- -D warnings -W clippy::redundant_clone
        gate fmt cargo --offline fmt --all -- --check
        ;;
    *)
        sed -n '2,16p' "$0" | sed 's/^# \{0,1\}//'
        exit 2
        ;;
esac
