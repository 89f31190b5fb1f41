#!/usr/bin/env bash
# Throughput regression guard: run bench_core from a plain
# (non-sanitized) build and compare each config's hostMs against the
# checked-in BENCH_core.json baseline. Fails when any config regresses
# by more than the threshold (default 25%), so an accidental slowdown
# of the simulator core cannot land silently.
#
# Also guards the compiled emulation tier (BENCH_emul.json): each
# compiled/lanes row's *speedup over the interpreter* must stay within
# the threshold of the committed baseline. Speedup is a ratio of two
# same-process measurements, so it is far less host-sensitive than raw
# hostMs — a drop means the threaded-code tier itself got slower.
#
# The fault sweep's same-process reliable/bare ratios
# (BENCH_faults.json "ratios") are gated like the reset-reuse ratio:
# each must not rise above its committed row by more than the
# threshold, so the reliability layer cannot slide back to its old
# cost unnoticed.
#
# The serving benchmark (BENCH_serve.json) is guarded too: zero-fault
# serving rows are hostMs-gated like bench_core configs, the
# reset-reuse row is gated on its fresh/reuse speedup ratio (a
# same-process ratio, noise-tolerant like the emul speedups), and
# brownout rows ("faulted": true) are degradation measurements —
# informational only. Fleet rows ("workers" > 1, and "mode": "fleet"
# in BENCH_emul.json) measure host-parallel scaling — informational
# (a 1-CPU runner scales at ~1.0x); their 1-worker twins keep the
# hostMs floor and the bench binaries fatal on any cross-worker-count
# result divergence.
#
# Configs present in only one of the two files (new benchmarks, or a
# renamed baseline entry) are reported but do not fail the guard.
# "_metrics"-suffixed rows (metrics-sampling A/A overhead twins) are
# informational only; their metrics-off twin rows keep the gating
# floor, so a metrics-off regression still fails.
#
# Usage: scripts/bench_guard.sh [build-dir] [threshold-pct]
#   build-dir      default: build-bench (created if needed)
#   threshold-pct  default: 25
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-bench}"
THRESHOLD="${2:-25}"
BASELINE="BENCH_core.json"
FAULTS_BASELINE="BENCH_faults.json"
EMUL_BASELINE="BENCH_emul.json"
SERVE_BASELINE="BENCH_serve.json"

if [[ ! -f "$BASELINE" ]]; then
    echo "bench_guard: no baseline $BASELINE; nothing to guard" >&2
    exit 1
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target bench_core --target bench_faults \
    --target bench_emul --target bench_serve > /dev/null

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT
"$BUILD_DIR/bench/bench_core" "$OUT_DIR/current.json" > /dev/null
"$BUILD_DIR/bench/bench_faults" "$OUT_DIR/faults.json" > /dev/null
"$BUILD_DIR/bench/bench_emul" "$OUT_DIR/emul.json" > /dev/null
"$BUILD_DIR/bench/bench_serve" "$OUT_DIR/serve.json" > /dev/null

python3 - "$BASELINE" "$OUT_DIR/current.json" "$THRESHOLD" \
    "$FAULTS_BASELINE" "$OUT_DIR/faults.json" \
    "$EMUL_BASELINE" "$OUT_DIR/emul.json" \
    "$SERVE_BASELINE" "$OUT_DIR/serve.json" <<'EOF'
import json, sys

baseline_path, current_path, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3])
baseline = {r["name"]: r for r in json.load(open(baseline_path))["runs"]}
current = {r["name"]: r for r in json.load(open(current_path))["runs"]}

# The fault sweep's zero-fault configs guard the subsystem's
# faults-disabled overhead: a drop-rate-0 run must stay as cheap as a
# build without the subsystem. Nonzero-rate rows are excluded — they
# are degradation measurements, not throughput baselines.
if len(sys.argv) > 5:
    faults_baseline_path, faults_current_path = sys.argv[4], sys.argv[5]
    try:
        fbase = json.load(open(faults_baseline_path))
    except FileNotFoundError:
        print(f"bench_guard: note: no {faults_baseline_path}; "
              "skipping fault-bench guard")
        fbase = {"runs": []}
    fcur = json.load(open(faults_current_path))
    baseline.update({r["name"]: r for r in fbase["runs"]
                     if r["dropRate"] == 0})
    current.update({r["name"]: r for r in fcur["runs"]
                    if r["dropRate"] == 0})

failed = []

# Reliable-over-bare guard: each same-process ratio must not rise
# above its committed row by more than the threshold.
if len(sys.argv) > 5:
    rc = {r["name"]: r for r in fcur.get("ratios", [])}
    for base in sorted(fbase.get("ratios", []), key=lambda r: r["name"]):
        cur = rc.get(base["name"])
        if cur is None:
            print(f"bench_guard: note: ratio baseline '{base['name']}' "
                  "not in current run")
            continue
        ratio = cur["ratio"] / base["ratio"] if base["ratio"] > 0 else 1.0
        verdict = "FAIL" if ratio > 1 + threshold / 100 else "ok"
        print(f"bench_guard: {verdict:4} {base['name']:24} rel/bare "
              f"{base['ratio']:8.2f}x -> {cur['ratio']:8.2f}x "
              f" ({ratio:5.2f}x)")
        if verdict == "FAIL":
            failed.append(base["name"])

# Emulation-tier guard: speedup (interp time / tier time, same
# process) must not fall below baseline by more than the threshold.
# Interp rows are the denominator, not a guarded quantity.
if len(sys.argv) > 7:
    emul_baseline_path, emul_current_path = sys.argv[6], sys.argv[7]
    try:
        eb = json.load(open(emul_baseline_path))["runs"]
    except FileNotFoundError:
        print(f"bench_guard: note: no {emul_baseline_path}; "
              "skipping emul-tier guard")
        eb = []
    ec = {r["name"]: r for r in json.load(open(emul_current_path))["runs"]}
    for base in sorted(eb, key=lambda r: r["name"]):
        if base["mode"] == "interp":
            continue
        cur = ec.get(base["name"])
        if cur is None:
            print(f"bench_guard: note: emul baseline '{base['name']}' "
                  "not in current run")
            continue
        if base["mode"] == "fleet":
            # Fleet rows report host-time *scaling* vs the 1-worker
            # fleet in "speedup" — a core-count fact of the host
            # (~1.0 on a 1-CPU runner), never a gated quantity. The
            # bit-identity assertion lives in the bench binary itself.
            print(f"bench_guard: info {base['name']:24} scaling "
                  f"{base['speedup']:7.2f}x -> {cur['speedup']:7.2f}x")
            continue
        ratio = cur["speedup"] / base["speedup"] if base["speedup"] > 0 else 1.0
        verdict = "FAIL" if ratio < 1 - threshold / 100 else "ok"
        print(f"bench_guard: {verdict:4} {base['name']:24} speedup "
              f"{base['speedup']:7.1f}x -> {cur['speedup']:7.1f}x  ({ratio:5.2f}x)")
        if verdict == "FAIL":
            failed.append(base["name"])

# Serving guard: zero-fault serving rows are hostMs-gated like the
# bench_core configs; the reset-reuse row is gated on its fresh/reuse
# speedup ratio (same-process, so host-noise-tolerant); brownout rows
# ("faulted": true) are degradation measurements, informational only.
if len(sys.argv) > 9:
    serve_baseline_path, serve_current_path = sys.argv[8], sys.argv[9]
    try:
        sb = json.load(open(serve_baseline_path))["runs"]
    except FileNotFoundError:
        print(f"bench_guard: note: no {serve_baseline_path}; "
              "skipping serve guard")
        sb = []
    sc = {r["name"]: r for r in json.load(open(serve_current_path))["runs"]}
    for base in sorted(sb, key=lambda r: r["name"]):
        cur = sc.get(base["name"])
        if cur is None:
            print(f"bench_guard: note: serve baseline '{base['name']}' "
                  "not in current run")
            continue
        if base["name"] == "ttda_reset_reuse":
            ratio = (cur["resetSpeedup"] / base["resetSpeedup"]
                     if base["resetSpeedup"] > 0 else 1.0)
            verdict = "FAIL" if ratio < 1 - threshold / 100 else "ok"
            print(f"bench_guard: {verdict:4} {base['name']:24} reset-reuse "
                  f"{base['resetSpeedup']:8.2f}x -> {cur['resetSpeedup']:8.2f}x "
                  f" ({ratio:5.2f}x)")
            if verdict == "FAIL":
                failed.append(base["name"])
            continue
        if base.get("faulted"):
            ratio = cur["hostMs"] / base["hostMs"] if base["hostMs"] > 0 else 1.0
            print(f"bench_guard: info {base['name']:24} "
                  f"{base['hostMs']:9.2f}ms -> {cur['hostMs']:9.2f}ms  ({ratio:5.2f}x)")
            continue
        if base.get("workers", 0) > 1:
            # Multi-worker fleet rows measure host-parallel scaling —
            # a property of the runner's core count, ~1.0 on a 1-CPU
            # host. Informational; the 1-worker fleet row keeps the
            # hostMs gating floor, and the bench binary fatals if any
            # worker count changes a result bit.
            print(f"bench_guard: info {base['name']:24} "
                  f"{base['hostMs']:9.2f}ms -> {cur['hostMs']:9.2f}ms  "
                  f"scaling {cur.get('fleetScaling', 0):5.2f}x")
            continue
        if cur["simCycles"] != base["simCycles"]:
            print(f"bench_guard: note: {base['name']} simCycles changed "
                  f"{base['simCycles']} -> {cur['simCycles']} (model change?)")
        ratio = cur["hostMs"] / base["hostMs"] if base["hostMs"] > 0 else 1.0
        verdict = "FAIL" if ratio > 1 + threshold / 100 else "ok"
        print(f"bench_guard: {verdict:4} {base['name']:24} "
              f"{base['hostMs']:9.2f}ms -> {cur['hostMs']:9.2f}ms  ({ratio:5.2f}x)")
        if verdict == "FAIL":
            failed.append(base["name"])
    for name in sorted(set(sc) - {r["name"] for r in sb}):
        print(f"bench_guard: note: new serve config '{name}' has no baseline")

for name, base in sorted(baseline.items()):
    cur = current.get(name)
    if cur is None:
        print(f"bench_guard: note: baseline config '{name}' not in current run")
        continue
    if name.endswith("_metrics"):
        # A/A observability rows measure the metrics recorder's
        # sampling overhead against their metrics-off twin; they are
        # informational, never gating — the twin row keeps the floor.
        ratio = cur["hostMs"] / base["hostMs"] if base["hostMs"] > 0 else 1.0
        print(f"bench_guard: info {name:24} "
              f"{base['hostMs']:9.2f}ms -> {cur['hostMs']:9.2f}ms  ({ratio:5.2f}x)")
        continue
    if cur["simCycles"] != base["simCycles"]:
        # A simCycles change is a timing-model change, not a perf
        # regression; the golden-cycle tests are the gate for that.
        print(f"bench_guard: note: {name} simCycles changed "
              f"{base['simCycles']} -> {cur['simCycles']} (model change?)")
    ratio = cur["hostMs"] / base["hostMs"] if base["hostMs"] > 0 else 1.0
    verdict = "FAIL" if ratio > 1 + threshold / 100 else "ok"
    print(f"bench_guard: {verdict:4} {name:24} "
          f"{base['hostMs']:9.2f}ms -> {cur['hostMs']:9.2f}ms  ({ratio:5.2f}x)")
    if verdict == "FAIL":
        failed.append(name)

for name in sorted(set(current) - set(baseline)):
    print(f"bench_guard: note: new config '{name}' has no baseline")

if failed:
    print(f"bench_guard: {len(failed)} config(s) regressed more than "
          f"{threshold:.0f}% vs {baseline_path}: {', '.join(failed)}")
    sys.exit(1)
print("bench_guard: all configs within threshold")
EOF
