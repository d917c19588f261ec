#!/usr/bin/env bash
# Paired A/B of two met-benchmark binaries, by the rule of the
# choosing-metrics guide §8 (benchmark/README.md "Claiming a gain"):
# N alternating parent/change pairs per workload, the order flipped each
# pair, at a seed nobody tuned against; per end-to-end metric each side's
# median and quartiles, the pairs the change won, the `failed` totals and
# a verdict against the bound BENCHMARK.json fixes for that metric.
#
#   ci/bench-pair.sh <parent-bin> <change-bin> [workload...]
#
# Build the two binaries first (`cargo build --release --offline
# --manifest-path benchmark/Cargo.toml` in a clone of each commit) and copy
# them side by side; relative paths are resolved before the runs. With no
# workload named, every workload of BENCHMARK.json runs. Environment:
#
#   PAIRS  pairs per workload (default 10; a claim needs at least 10)
#   SEED   workload seed (default: the clock, i.e. one unseen so far)
#   OUT    directory kept with every run's result line (default: mktemp);
#          both binaries run with it as their working directory, so it
#          must lie outside any git checkout (the benchmark reads
#          `.git/HEAD` from its working directory or the one above at
#          start-up, and that alone has moved one side's `peak_rss_mb`)
#
# One run is ~15 s, so 10 pairs x 5 workloads is ~25 min. Run nothing else
# meanwhile: the engine's flusher and compactor want the second core.
# Needs jq. Exits 1 if any run fails to produce a result line, 0 otherwise
# — the verdicts are for the reader, not a gate.
set -euo pipefail

if [ "$#" -lt 2 ]; then
    sed -n '2,27p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
spec="$root/BENCHMARK.json"
parent=$(realpath "$1")
change=$(realpath "$2")
shift 2
pairs=${PAIRS:-10}
seed=${SEED:-$(($(date +%s) % 1000000))}
out=${OUT:-$(mktemp -d "${TMPDIR:-/tmp}/bench-pair.XXXXXX")}
seconds=$(jq -r '.run_seconds' "$spec")
if [ "$#" -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")
fi
mkdir -p "$out"
out=$(cd "$out" && pwd)
cd "$out"

# One run: the result line (last line of stdout) appended to <out>/<workload>.<side>.
run() {
    local side=$1 bin=$2 workload=$3 line
    line=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
    if ! jq -e '.metrics' >/dev/null 2>&1 <<<"$line"; then
        echo "bench-pair: $side produced no result line on $workload" >&2
        exit 1
    fi
    echo "$line" >>"$out/$workload.$side"
}

echo "bench-pair: parent=$parent change=$change pairs=$pairs seed=$seed seconds=$seconds out=$out"
for workload in "${workloads[@]}"; do
    : >"$out/$workload.parent"
    : >"$out/$workload.change"
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then
            run parent "$parent" "$workload"
            run change "$change" "$workload"
        else
            run change "$change" "$workload"
            run parent "$parent" "$workload"
        fi
    done

    # Per metric: medians, quartiles (linear interpolation), pairs won
    # (ties count for neither side) and the verdict:
    #   gain        won >= 9/10 of the pairs and the medians differ by more
    #               than the parent's interquartile distance
    #   regressed   the change's median is worse by more than the bound
    #   unresolved  the parent's own spread exceeds the bound, so "inside
    #               the bound" cannot be told from noise — unless every
    #               change run beats every parent run
    #   same        otherwise: inside the bound
    table=$(jq -rn --arg workload "$workload" --slurpfile spec "$spec" \
        --slurpfile p "$out/$workload.parent" --slurpfile c "$out/$workload.change" '
        def q($f): sort as $s | ((($s | length) - 1) * $f) as $h | ($h | floor) as $i
            | $s[$i] + ($h - $i) * (($s[$i + 1] // $s[$i]) - $s[$i]);
        def fmt: if . >= 1000 then round else (. * 1000 | round) / 1000 end | tostring;
        def stats: "\(q(0.5) | fmt) [\(q(0.25) | fmt), \(q(0.75) | fmt)]";
        "\n\($workload): failed parent \([$p[].failed] | add) of \([$p[].attempted] | add), "
            + "change \([$c[].failed] | add) of \([$c[].attempted] | add)",
        (["metric", "better", "parent median [q1, q3]", "change median [q1, q3]",
            "change/parent", "won", "verdict"] | @tsv),
        ($spec[0].end_to_end[] | . as $m
            | [$p[].metrics[$m.name].value] as $pv | [$c[].metrics[$m.name].value] as $cv
            | (if $m.better == "higher" then 1 else -1 end) as $sign
            | ([range(0; $pv | length) | select(($cv[.] - $pv[.]) * $sign > 0)] | length) as $won
            | ([range(0; $pv | length) | select(($cv[.] - $pv[.]) * $sign < 0)] | length) as $lost
            | ($pv | q(0.5)) as $pm | ($cv | q(0.5)) as $cm
            | (($pv | q(0.75)) - ($pv | q(0.25))) as $iqr
            | (($cm - $pm) * $sign) as $better_by
            | (if $sign > 0 then ($cv | min) > ($pv | max) else ($cv | max) < ($pv | min) end) as $clear
            | (if $won * 10 >= ($pv | length) * 9 and $better_by > $iqr then "gain"
               elif -$better_by > $m.bound * $pm then "regressed"
               elif $iqr > $m.bound * $pm and ($clear | not) then "unresolved"
               else "same" end) as $verdict
            | [$m.name, $m.better, ($pv | stats), ($cv | stats),
               (if $pm == 0 then "-" else (($cm / $pm * 1000 | round) / 1000 | tostring) end),
               "\($won)/\($pv | length) (lost \($lost))", $verdict] | @tsv),
        "every run, in order (parent | change):",
        ($spec[0].end_to_end[] | . as $m
            | "  \($m.name): \([$p[].metrics[$m.name].value | fmt] | join(" ")) | "
              + "\([$c[].metrics[$m.name].value | fmt] | join(" "))")
    ')
    if command -v column >/dev/null; then
        column -t -s $'\t' <<<"$table"
    else
        echo "$table"
    fi
done
