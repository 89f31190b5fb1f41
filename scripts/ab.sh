#!/usr/bin/env bash
# A/B against a parent revision, first half: byte identity.
#
# Extracts <rev> with git archive into build-ab-src/ (removed on exit;
# the repository's git state is never touched) and builds it into
# build-ab/, and the working tree into build-bench/ as bench_guard.sh
# does, both RelWithDebInfo. Runs every deterministic output on both
# builds and cmp's them pairwise:
#
#   - quickstart --trace/--stats-json/--metrics-json, bare and under
#     --fault-plan=drop=0.02,dup=0.01,delay=0.02,spike=40 --reliable;
#   - from one bench_faults run at three reps: its --trace file, which
#     holds every timed rep; its --stats-json file, whose last writer is
#     vn_rel_drop5pct, so it holds the vn machine's "meta" and "faults"
#     groups under loss and ReliableNet; and everything it prints before
#     its first table, the deadlock reports of its stranded TTDA and vn
#     rows, loss classification included;
#   - the simCycles of every bench_core, bench_faults and bench_serve
#     row;
#   - the full stdout of bench_cmmp_crossbar, bench_cmstar,
#     bench_hypercube_routing and bench_latency_tolerance, which print
#     no host-time column.
#
# Exits non-zero naming the first output that differs. A change that
# moves the model on purpose differs here by design, so this is a tool
# for refactors and host-time work, not a CI gate. The outputs stay in
# build-ab/ab-out/ and build-bench/ab-out/ for inspection.
#
# Usage: scripts/ab.sh <rev>
set -euo pipefail
cd "$(dirname "$0")/.."

REV="${1:?usage: scripts/ab.sh <rev>}"
TREE=build-ab-src
JOBS="$(nproc)"
TARGETS=(quickstart bench_core bench_faults bench_serve
         bench_cmmp_crossbar bench_cmstar bench_hypercube_routing
         bench_latency_tolerance)
STDOUT_BENCHES=(bench_cmmp_crossbar bench_cmstar bench_hypercube_routing
                bench_latency_tolerance)
FAULTS=(--fault-plan=drop=0.02,dup=0.01,delay=0.02,spike=40 --reliable)

git rev-parse --verify --quiet "$REV^{commit}" > /dev/null ||
    { echo "ab: unknown revision '$REV'" >&2; exit 2; }

cleanup() { rm -rf "$TREE"; }
cleanup
trap cleanup EXIT
mkdir "$TREE"
# -m stamps the files with the extraction time. The archive's own times
# are the commit's, older than the objects a build-ab/ left by another
# <rev> holds, so make would skip the files that changed.
git archive "$REV" | tar -x -m -C "$TREE"

build() { # <source-dir> <build-dir>
    cmake -B "$2" -S "$1" -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
    cmake --build "$2" -j "$JOBS" --target "${TARGETS[@]}" > /dev/null
}

# The rows' simulated cycles, one "name simCycles" line each.
cycles() { # <bench json>
    python3 - "$1" <<'EOF'
import json, sys
for row in json.load(open(sys.argv[1]))["runs"]:
    if "simCycles" in row:
        print(row["name"], row["simCycles"])
EOF
}

run() { # <build-dir>: write every deterministic output to <build-dir>/ab-out
    local bin="$1" out="$1/ab-out"
    rm -rf "$out"
    mkdir -p "$out"
    "$bin/examples/quickstart" --trace="$out/quickstart.trace.json" \
        --stats-json="$out/quickstart.stats.json" \
        --metrics-json="$out/quickstart.metrics.json" > /dev/null
    "$bin/examples/quickstart" "${FAULTS[@]}" \
        --trace="$out/quickstart-faulted.trace.json" \
        --stats-json="$out/quickstart-faulted.stats.json" \
        --metrics-json="$out/quickstart-faulted.metrics.json" > /dev/null
    "$bin/bench/bench_faults" "$out/bench_faults.json" --reps=3 \
        --warmup=0 --trace="$out/bench_faults.trace.json" \
        --stats-json="$out/bench_faults.stats.json" |
        sed '/^== /,$d' > "$out/bench_faults.reports"
    "$bin/bench/bench_core" "$out/bench_core.json" --reps=1 \
        --warmup=0 > /dev/null
    "$bin/bench/bench_serve" "$out/bench_serve.json" --reps=1 \
        --warmup=0 > /dev/null
    local b
    for b in bench_faults bench_core bench_serve; do
        cycles "$out/$b.json" > "$out/$b.cycles"
        rm "$out/$b.json" # host times: never byte-identical
    done
    for b in "${STDOUT_BENCHES[@]}"; do
        "$bin/bench/$b" > "$out/$b.stdout"
    done
}

echo "ab: building $REV into build-ab/ and the working tree into build-bench/"
build "$TREE" build-ab
build . build-bench
echo "ab: running both builds"
run build-ab
run build-bench

count=0
for f in build-bench/ab-out/*; do
    name="$(basename "$f")"
    if ! cmp -s "build-ab/ab-out/$name" "$f"; then
        echo "ab: $name differs from $REV" \
             "(build-ab/ab-out/$name vs build-bench/ab-out/$name)" >&2
        exit 1
    fi
    count=$((count + 1))
done
if [[ "$count" -ne "$(ls build-ab/ab-out | wc -l)" ]]; then
    echo "ab: $REV wrote outputs the working tree did not" >&2
    exit 1
fi
echo "ab: all $count outputs byte-identical to $REV"
