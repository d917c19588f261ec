#!/usr/bin/env bash
# Byte-identity gate for results/: runs every row of `exp --list` into a
# scratch directory (MET_RESULTS_DIR), captures its stdout as the .txt,
# and `cmp`s both against what is committed. results/README.md promises
# "bit-for-bit"; this is the check behind that sentence, and the gate a
# change to the simulation's arithmetic has to pass.
#
#   ci/check-results.sh [bin-dir]
#
# With no argument it builds the workspace's release binaries and checks
# those; pass another checkout's target/release to ask what *that* commit
# writes. Lists every file that differs and exits 1 if any does, or if a
# row exits non-zero. A row with no committed report (crash-bg, whose
# totals depend on background-flusher timing) still runs, so its gate
# still counts. Each same/DIFFERS line also shows the wall seconds its row
# took, so a change to the simulation's speed shows in the gate's output;
# the timing is printed only and decides nothing.
set -uo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
if [ "$#" -gt 0 ]; then
    # Absolute, because `exp` runs from inside the scratch directory.
    bin=$(cd "$1" && pwd) || exit 2
else
    bin=$root/target/release
    (cd "$root" && cargo build --release --workspace --offline --quiet) || exit 2
fi
exe=$bin/exp
if [ ! -x "$exe" ]; then
    echo "check-results: $exe missing" >&2
    exit 2
fi
want=$root/results
got=$(mktemp -d "${TMPDIR:-/tmp}/check-results.XXXXXX")
trap 'rm -rf "$got"' EXIT

names=$("$exe" --list | awk '{ print $1 }') || exit 2
differ=()
for name in $names; do
    # The committed files come from the default environment: no trace.
    t0=$(date +%s.%N)
    if ! (cd "$got" && env -u MET_TRACE -u MET_TRACE_LEVEL \
        MET_RESULTS_DIR="$got" "$exe" "$name" >"$got/$name.txt" 2>"$got/$name.stderr"); then
        echo "check-results: exp $name exited non-zero:" >&2
        tail -n 5 "$got/$name.stderr" >&2
        differ+=("exp $name (exit status)")
        continue
    fi
    secs=$(awk -v a="$t0" -v b="$(date +%s.%N)" 'BEGIN { printf "%.2f", b - a }')
    committed=0
    for ext in txt json; do
        [ -f "$want/$name.$ext" ] || continue
        committed=1
        if cmp -s "$want/$name.$ext" "$got/$name.$ext"; then
            printf '  same    %-16s exp %s %s s\n' "$name.$ext" "$name" "$secs"
        else
            printf '  DIFFERS %-16s exp %s %s s\n' "$name.$ext" "$name" "$secs"
            diff "$want/$name.$ext" "$got/$name.$ext" | head -n 6
            differ+=("$name.$ext")
        fi
    done
    if [ "$committed" -eq 0 ]; then
        printf '  ran     %-16s exp %s %s s (no committed report)\n' "$name" "$name" "$secs"
    fi
done

if [ "${#differ[@]}" -gt 0 ]; then
    echo "check-results: ${#differ[@]} differ from results/: ${differ[*]}"
    exit 1
fi
echo "check-results: results/ reproduces byte for byte"
