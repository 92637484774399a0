#!/bin/sh
# Benchmark trajectory tooling.
#
# Record mode — run the full suite with -benchmem and write both the
# raw `go test` output (BENCH_<n>.txt) and a parsed JSON summary
# (BENCH_<n>.json) so future perf PRs have a trajectory to compare
# against:
#
#   scripts/bench.sh [index] [benchtime]
#
# Defaults: index 1, benchtime 1x (a smoke pass; use e.g. `bench.sh 2
# 0.25s` for statistically meaningful numbers).
#
# Compare mode — the CI bench-regression gate. Re-runs the ablation
# kernels and compares each ablation *ratio* (slow variant ns/op over
# fast variant ns/op — the speed-up the optimisation buys) against the
# committed baseline, failing when a ratio regressed by more than 25%.
# Ratios rather than absolute ns/op, because the baseline was recorded
# on different hardware than the CI runner; the advantage of an
# optimisation over its ablation is the machine-portable signal:
#
#   scripts/bench.sh compare [baseline.json] [benchtime]
#
# Defaults: the highest-index committed BENCH_<n>.json, benchtime
# 0.25s (1x timings are too noisy to gate on).
#
# Both modes run every benchmark three times and keep its fastest
# ns/op: on a shared machine interference only adds time, and one
# slow stretch in a single run moved a gated ratio by a third between
# runs of unchanged code (BENCH_9's first recording caught the
# NDJSON decoder at 24 ms against a usual 13–16). Three ablations are
# timed again in a second pass, five rounds of alternating
# invocations, and the fastest of the five replaces the first pass's
# line:
# - BenchmarkAblationMinResampling: brute-min-of-n at a fixed 20
#   iterations, because one op takes ~0.2 s and a time-based benchtime
#   runs it only 1–3 times, and inverse-cdf for 1 s beside it, so
#   both sides are timed over windows of similar length;
# - BenchmarkAblationIncrementalCost at 16x: solve i uses seed i % 16,
#   so the 3–7 full-recompute ops a time-based benchtime runs average
#   a different set of seeds on a slower or faster machine, while 16
#   average the whole cycle;
# - BenchmarkAblationQuantileVsTimeDomain, each side for 0.5 s in its
#   own invocation: the first pass's three-run minima of unchanged
#   code read its ratio 12.2 against a recorded 16.5, because host
#   load reached the two sides unequally.
set -eu

cd "$(dirname "$0")/.."

second_pass_marker="# second pass"

# second_pass re-times the ablations a time-based benchtime
# cannot steady (see above), with any extra go test flags.
second_pass() {
    echo "$second_pass_marker"
    for _ in 1 2 3 4 5; do
        go test -run='^$' -bench='^BenchmarkAblationMinResampling$/^inverse-cdf$' -benchtime=1s "$@" .
        go test -run='^$' -bench='^BenchmarkAblationMinResampling$/^brute-min-of-n$' -benchtime=20x "$@" .
        go test -run='^$' -bench='^BenchmarkAblationIncrementalCost$' -benchtime=16x "$@" .
        go test -run='^$' -bench='^BenchmarkAblationQuantileVsTimeDomain$/^quantile-domain$' -benchtime=0.5s "$@" .
        go test -run='^$' -bench='^BenchmarkAblationQuantileVsTimeDomain$/^time-domain$' -benchtime=0.5s "$@" .
    done
}

if [ "${1:-}" = "compare" ]; then
    baseline="${2:-}"
    benchtime="${3:-0.25s}"
    if [ -z "$baseline" ]; then
        baseline="$(ls BENCH_*.json | sort -t_ -k2 -n | tail -1)"
    fi
    [ -f "$baseline" ] || { echo "bench.sh: no baseline $baseline" >&2; exit 1; }
    echo "comparing ablation ratios against $baseline (benchtime $benchtime)"

    current="$(mktemp)"
    trap 'rm -f "$current"' EXIT
    go test -run='^$' -bench=BenchmarkAblation -benchtime="$benchtime" -count=3 ./... | tee "$current"
    second_pass | tee -a "$current"

    # Baseline pairs: "name ns_per_op", one benchmark per line.
    base_pairs="$(sed -n 's/.*"name": "\(BenchmarkAblation[^"]*\)".*"ns_per_op": \([0-9.e+]*\).*/\1 \2/p' "$baseline")"

    printf '%s\n' "$base_pairs" | awk -v currentfile="$current" -v marker="$second_pass_marker" '
    # Collect baseline ns/op per benchmark (stdin), stripping the
    # -GOMAXPROCS suffix a multi-core recording machine appends so
    # baselines recorded anywhere line up.
    { name = $1; sub(/-[0-9]+$/, "", name); base[name] = $2 }
    END {
        # Collect the fastest current ns/op of each benchmark, stripping
        # the -GOMAXPROCS suffix so runs from machines with different
        # core counts line up. A name the second pass times
        # takes the fastest of its lines there instead.
        while ((getline line < currentfile) > 0) {
            if (line == marker) { fixed = 1; continue }
            n = split(line, f, /[ \t]+/)
            if (f[1] !~ /^BenchmarkAblation/ || n < 3) continue
            name = f[1]; sub(/-[0-9]+$/, "", name)
            if (fixed && !(name in refixed)) { refixed[name] = 1; cur[name] = f[3] + 0 }
            else if (!(name in cur) || f[3] + 0 < cur[name]) cur[name] = f[3] + 0
        }
        # Group by the parent benchmark (the part before the "/"):
        # each ablation has exactly one fast and one slow variant, so
        # the group ratio is max/min.
        for (name in base) {
            g = name; sub(/\/.*/, "", g)
            if (!(g in bmin) || base[name] < bmin[g]) bmin[g] = base[name]
            if (!(g in bmax) || base[name] > bmax[g]) bmax[g] = base[name]
            if (!(name in cur)) { missing = missing " " name; continue }
            if (!(g in cmin) || cur[name] < cmin[g]) cmin[g] = cur[name]
            if (!(g in cmax) || cur[name] > cmax[g]) cmax[g] = cur[name]
        }
        if (missing != "") {
            printf "FAIL: benchmarks in baseline but not in this run:%s\n", missing
            exit 1
        }
        fails = 0
        printf "\n%-44s %12s %12s %10s\n", "ablation", "base ratio", "now ratio", "verdict"
        for (g in bmin) {
            if (!(g in cmin)) continue
            br = bmax[g] / bmin[g]; cr = cmax[g] / cmin[g]
            verdict = "ok"
            # The optimisation must keep at least 75% of its recorded
            # advantage over the ablated variant.
            if (cr < 0.75 * br) { verdict = "REGRESSED"; fails++ }
            printf "%-44s %12.1f %12.1f %10s\n", g, br, cr, verdict
        }
        if (fails > 0) {
            printf "\nFAIL: %d ablation ratio(s) regressed by more than 25%%\n", fails
            exit 1
        }
        print "\nbench compare: OK"
    }'
    exit 0
fi

idx="${1:-1}"
benchtime="${2:-1x}"

raw="BENCH_${idx}.txt"
json="BENCH_${idx}.json"

go test -run='^$' -bench=. -benchmem -benchtime="$benchtime" -count=3 ./... | tee "$raw"
second_pass -benchmem | tee -a "$raw"

# Parse `BenchmarkName-P  iters  ns/op [B/op allocs/op]` lines to JSON,
# one row per name in first-seen order, from its fastest line; a name
# the second pass times keeps the fastest of its lines there
# instead.
awk -v benchtime="$benchtime" -v marker="$second_pass_marker" '
BEGIN { n = 0 }
$0 == marker { fixed = 1; next }
$1 ~ /^Benchmark/ && $3 == "ns/op" || ($1 ~ /^Benchmark/ && NF >= 4) {
    name = $1; iters = $2; ns = ""; bytes = ""; allocs = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    row = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns)
    if (bytes != "") row = row sprintf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "") row = row sprintf(", \"allocs_per_op\": %s", allocs)
    if (!(name in rows)) order[n++] = name
    else if (!(fixed && !(name in refixed)) && ns + 0 >= best[name]) next
    if (fixed) refixed[name] = 1
    rows[name] = row "}"; best[name] = ns + 0
}
END {
    for (i = 0; i < n; i++) printf("%s%s", (i > 0 ? ",\n" : ""), rows[order[i]])
    print ""
}
' "$raw" > /tmp/bench_rows.$$

{
    printf '{\n  "benchtime": "%s",\n  "go": "%s",\n  "benchmarks": [\n' \
        "$benchtime" "$(go env GOVERSION)"
    cat /tmp/bench_rows.$$
    printf '  ]\n}\n'
} > "$json"
rm -f /tmp/bench_rows.$$

echo "wrote $raw and $json"
