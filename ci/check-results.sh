#!/usr/bin/env bash
# Byte-identity gate for results/: runs every deterministic exp-* binary
# into a scratch directory (MET_RESULTS_DIR), captures its stdout as the
# .txt, and `cmp`s both against what is committed. results/README.md
# promises "bit-for-bit"; this is the check behind that sentence, and the
# gate a change to the simulation's arithmetic has to pass.
#
#   ci/check-results.sh [bin-dir]
#
# With no argument it builds the workspace's release binaries and checks
# those; pass another checkout's target/release to ask what *that* commit
# writes. Lists every file that differs and exits 1 if any does.
set -uo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
if [ "$#" -gt 0 ]; then
    # Absolute, because each binary runs from inside the scratch directory.
    bin=$(cd "$1" && pwd) || exit 2
else
    bin=$root/target/release
    (cd "$root" && cargo build --release --workspace --offline --quiet) || exit 2
fi
want=$root/results
got=$(mktemp -d "${TMPDIR:-/tmp}/check-results.XXXXXX")
trap 'rm -rf "$got"' EXIT

echo "check-results: skipping crash.json (replayed_records depends on background-flusher timing with MET_CRASH_BG=1, see ROADMAP)"

differ=()
for name in table1 fig1 fig4 fig5 fig6 table2 ablations chaos latency; do
    exe=$bin/exp-$name
    if [ ! -x "$exe" ]; then
        echo "check-results: $exe missing" >&2
        exit 2
    fi
    # The committed files come from the default environment: no trace, no
    # fault plan.
    if ! (cd "$got" && env -u MET_TRACE -u MET_TRACE_LEVEL -u MET_FAULT_PLAN -u MET_PROFILE \
        MET_RESULTS_DIR="$got" "$exe" >"$got/$name.txt" 2>"$got/$name.stderr"); then
        echo "check-results: exp-$name exited non-zero:" >&2
        tail -n 5 "$got/$name.stderr" >&2
        differ+=("exp-$name (exit status)")
        continue
    fi
    for ext in txt json; do
        [ -f "$want/$name.$ext" ] || continue
        if cmp -s "$want/$name.$ext" "$got/$name.$ext"; then
            echo "  same    $name.$ext"
        else
            echo "  DIFFERS $name.$ext"
            diff "$want/$name.$ext" "$got/$name.$ext" | head -n 6
            differ+=("$name.$ext")
        fi
    done
done

if [ "${#differ[@]}" -gt 0 ]; then
    echo "check-results: ${#differ[@]} differ from results/: ${differ[*]}"
    exit 1
fi
echo "check-results: results/ reproduces byte for byte"
