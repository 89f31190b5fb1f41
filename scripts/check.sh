#!/usr/bin/env bash
# Sanitizer gate: build the whole tree with AddressSanitizer +
# UndefinedBehaviorSanitizer and run the full test suite under it
# (gate 10 adds a ThreadSanitizer build of the concurrent suites).
# Catches the bugs the zero-allocation fire path is most at risk of
# (use-after-recycle, buffer reuse across fires, stale references).
# Then smoke-tests the observability stack: traced runs must emit
# parseable JSON and the deadlock demo must name its stranded reader.
#
# Usage: scripts/check.sh [build-dir]   (default: build-asan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"
SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"

cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure

# --- Observability smoke gates -------------------------------------
# The tracer and stats exporter emit JSON consumed by external tools
# (Perfetto, python); gate on real runs producing parseable output.
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT

# 1. A small TTDA workload traced with every category enabled must
#    produce well-formed trace and stats JSON.
"$BUILD_DIR/examples/quickstart" \
    --trace="$OBS_DIR/quickstart.trace.json" --trace-cats=all \
    --stats-json="$OBS_DIR/quickstart.stats.json" 2 4 64 4 > /dev/null
python3 -m json.tool "$OBS_DIR/quickstart.trace.json" > /dev/null
python3 -m json.tool "$OBS_DIR/quickstart.stats.json" > /dev/null

# 2. The I-structure producer/consumer demo must show the deferred-
#    read story: FETCHes parking (defer) and later satisfied (serve).
"$BUILD_DIR/examples/producer_consumer" \
    --trace="$OBS_DIR/pc.trace.json" > /dev/null
python3 -m json.tool "$OBS_DIR/pc.trace.json" > /dev/null
grep -q '"name":"defer"' "$OBS_DIR/pc.trace.json"
grep -q '"name":"serve"' "$OBS_DIR/pc.trace.json"

# 3. The intentionally-deadlocking workload must be diagnosed: the
#    forensic report names the stranded reader's tag.
DEADLOCK_OUT="$("$BUILD_DIR/examples/deadlock_demo")"
echo "$DEADLOCK_OUT" | grep -q 'parked reader'
echo "$DEADLOCK_OUT" | grep -q 'reader <u'

# --- Fault-injection smoke -----------------------------------------
# 4. The degradation sweep under the sanitizers: seeded drops,
#    duplicates, corrupts and delay spikes through the retransmit
#    timers and dedup windows with ASan watching every envelope. The
#    bare variants must strand (and be classified as loss, not true
#    deadlock), the ReliableNet variants must complete every point,
#    and the results JSON must parse.
FAULTS_OUT="$("$BUILD_DIR/bench/bench_faults" "$OBS_DIR/faults.json")"
python3 -m json.tool "$OBS_DIR/faults.json" > /dev/null
echo "$FAULTS_OUT" | grep -q 'stranded by loss'
echo "$FAULTS_OUT" | grep -q 'STRANDED'
python3 - "$OBS_DIR/faults.json" <<'EOF'
import json, sys
runs = json.load(open(sys.argv[1]))["runs"]
# The sweep's 16 rows (the two ratio rows carry no dropRate): reliable
# variants and zero-fault runs complete; bare lossy runs strand.
sweep = [r for r in runs if "dropRate" in r]
if len(sweep) != 16:
    sys.exit(f"fault smoke: {len(sweep)} sweep rows, want 16")
bad = [r["name"] for r in sweep
       if ("_rel_" in r["name"] or r["dropRate"] == 0)
          != r["completed"]]
if bad:
    sys.exit(f"fault smoke: wrong completion for {', '.join(bad)}")
EOF

# --- Metrics + profiler smoke --------------------------------------
# 5. A quickstart run with time-series sampling and the hot-spot
#    profiler on must emit a well-formed metrics document with
#    nonzero samples, a parseable CSV, and a non-empty collapsed-
#    stack (flamegraph) file whose every line ends in a weight.
"$BUILD_DIR/examples/quickstart" \
    --metrics=256 --metrics-json="$OBS_DIR/metrics.json" \
    --metrics-csv="$OBS_DIR/metrics.csv" \
    --profile --profile-folded="$OBS_DIR/profile.folded" > /dev/null
python3 - "$OBS_DIR/metrics.json" "$OBS_DIR/metrics.csv" \
    "$OBS_DIR/profile.folded" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["samplesRecorded"] > 0, "no metrics samples recorded"
assert doc["cycles"], "empty cycle axis"
assert doc["series"], "no series registered"
for name, s in doc["series"].items():
    assert len(s["values"]) == len(doc["cycles"]), f"ragged row: {name}"
assert any(s["values"][-1] > 0 for s in doc["series"].values()), \
    "every series is identically zero"
header, *rows = open(sys.argv[2]).read().splitlines()
assert header.startswith("cycle,"), header
assert len(rows) == len(doc["cycles"]), "CSV rows != JSON rows"
folded = open(sys.argv[3]).read().splitlines()
assert folded, "empty folded profile"
for line in folded:
    stack, _, weight = line.rpartition(" ")
    assert stack and weight.isdigit() and int(weight) > 0, line
EOF

# --- Compiled-tier differential fuzz -------------------------------
# 6. The emul test binary's randomized differential suite (interpreter
#    vs threaded-code scalar VM vs 4-lane batched VM, bit-exact) runs
#    again explicitly under ASan/UBSan: the lane VM's SoA register
#    columns and mask juggling are exactly the kind of code the
#    sanitizers exist for. ctest above already ran these; this gate
#    keeps them from being filtered out quietly.
"$BUILD_DIR/tests/test_emul" \
    --gtest_filter='EmulFuzz.*:EmulWorkloads.*:EmulStructure.*:Profile.*' \
    > /dev/null

# --- Serving smoke -------------------------------------------------
# 7. The steady-state serving path under the sanitizers: the
#    submit()/serve()/reset() suites run explicitly (the reset-reuse
#    path recycles warmed allocations — exactly where a stale pointer
#    would hide), then one quick open-loop sweep must complete every
#    request at every load point and emit parseable results. --reps=1
#    --warmup=0 keeps the sanitized timing loops short; the guard
#    ignores sanitized hostMs anyway.
"$BUILD_DIR/tests/test_ttda" --gtest_filter='Serve.*' > /dev/null
"$BUILD_DIR/tests/test_vn" --gtest_filter='VnServe.*:VnIdle.*' > /dev/null
"$BUILD_DIR/tests/test_workloads" > /dev/null
"$BUILD_DIR/bench/bench_serve" "$OBS_DIR/serve.json" \
    --reps=1 --warmup=0 > /dev/null
python3 - "$OBS_DIR/serve.json" <<'EOF'
import json, sys
runs = json.load(open(sys.argv[1]))["runs"]
bad = [r["name"] for r in runs
       if r["requests"] and r["completed"] != r["requests"]]
if bad:
    sys.exit(f"serve smoke: incomplete runs: {', '.join(bad)}")
assert any(r["name"] == "ttda_reset_reuse" for r in runs)
assert any(r.get("faulted") for r in runs), "no brownout row"
EOF

# --- Fleet smoke ---------------------------------------------------
# 8. The deterministic fleet under the sanitizers: sim::Fleet's runner
#    suite (exactly-once, reuse, failure order, idle parking,
#    shutdown) and the warm-replica fleets at workers {1,2,4} with
#    their bit-identity asserts (worker-count independence, fleet ==
#    single machine, replica reuse == pristine fleet). Warm replicas
#    recycle served-on machines across jobs — the reuse path most at
#    risk of a stale pointer, so it runs with ASan watching.
"$BUILD_DIR/tests/test_fleet" > /dev/null

# --- Daemon smoke --------------------------------------------------
# 9. Simulation-as-a-service under the sanitizers: the daemon's
#    checkpoint / kill -9 / restore round trip, which CI's daemon-smoke
#    job runs too (scripts/daemon_smoke.sh says what it asserts).
scripts/daemon_smoke.sh "$BUILD_DIR"

# --- ThreadSanitizer gate ------------------------------------------
# 10. The concurrent code under ThreadSanitizer, in a tree of its own
#     (TSan cannot share a build with ASan): the daemon suite (worker
#     threads, the network loop and the job table they share, stop /
#     restore / signal paths) and the fleet suites (sim::Fleet's
#     runner, warm-replica fleets), each repeated, since a race shows
#     only when the threads interleave badly. TSan exits nonzero on
#     any report.
TSAN_DIR="build-tsan"
TSAN_FLAGS="-fsanitize=thread -g"
cmake -B "$TSAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS"
cmake --build "$TSAN_DIR" -j "$(nproc)" \
    --target test_daemon --target test_fleet
"$TSAN_DIR/tests/test_daemon" --gtest_repeat=3 > /dev/null
"$TSAN_DIR/tests/test_fleet" --gtest_repeat=3 > /dev/null

# --- Optional throughput guard -------------------------------------
# CHECK=1 also runs the host-time regression guard over the four
# BENCH_*.json files (a separate non-sanitized build; sanitizer
# overhead would swamp the timings).
if [[ "${CHECK:-0}" == "1" ]]; then
    scripts/bench_guard.sh
fi

echo "check.sh: sanitizer builds + tests + observability gates passed"
