#!/usr/bin/env bash
# Host-time regression guard: build bench_core, bench_faults, bench_emul
# and bench_serve from a plain (non-sanitized) build, run each once, and
# compare every row with its committed twin in BENCH_core.json,
# BENCH_faults.json, BENCH_emul.json and BENCH_serve.json.
#
# Each committed row carries its own "gate", set by the bench that
# timed it (BenchRow in bench/bench_util.hh):
#   {"field": F, "better": "lower"}   fails when F rises above the
#                                     baseline by more than the threshold
#   {"field": F, "better": "higher"}  fails when F falls below it by more
#   "info"                            reported, never fails
# Absolute hostMs floors, same-process ratios (reliable over bare,
# compiled over interp, reconstruct over reset) and reported-only rows
# (the metrics A/A twin, lossy runs, fleet rows that measure the host's
# core count) are all just gates: the loop below knows no row, file or
# field by name.
#
# A row missing from one side is a note, not a failure. A row in
# either file without a valid gate fails the guard. When a baseline
# was measured on another host (nproc, compiler, build type), the guard
# says so once per file; that changes no verdict.
#
# Usage: scripts/bench_guard.sh [build-dir] [threshold-pct]
#   build-dir      default: build-bench (created if needed)
#   threshold-pct  default: 25
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-bench}"
THRESHOLD="${2:-25}"
BENCHES=(bench_core bench_faults bench_emul bench_serve)

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${BENCHES[@]}" > /dev/null

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT
PAIRS=()
for b in "${BENCHES[@]}"; do
    "$BUILD_DIR/bench/$b" "$OUT_DIR/$b.json" > /dev/null
    PAIRS+=("BENCH_${b#bench_}.json" "$OUT_DIR/$b.json")
done

python3 - "$THRESHOLD" "${PAIRS[@]}" <<'EOF'
import json, os, sys

t = float(sys.argv[1]) / 100
failed = []

def number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)

def valid(row):
    g = row.get("gate")
    return g == "info" or (
        isinstance(g, dict) and g.get("better") in ("lower", "higher")
        and number(row.get(g.get("field"))))

for base_path, cur_path in zip(sys.argv[2::2], sys.argv[3::2]):
    if not os.path.exists(base_path):
        sys.exit(f"bench_guard: no baseline {base_path}")
    base_doc, cur_doc = (json.load(open(p)) for p in (base_path, cur_path))
    if base_doc.get("host") != cur_doc.get("host"):
        print(f"bench_guard: note: {base_path} was measured on "
              f"{base_doc.get('host')}, this run on {cur_doc.get('host')}")
    base = {r["name"]: r for r in base_doc["runs"]}
    cur = {r["name"]: r for r in cur_doc["runs"]}
    for name in sorted(base.keys() | cur.keys()):
        tag, b, c = f"{base_path}:{name}", base.get(name), cur.get(name)
        if not all(valid(r) for r in (b, c) if r):
            verdict, detail = "FAIL", "has no valid gate"
        elif b is None or c is None:
            print(f"bench_guard: note: {tag} not in "
                  f"{'this run' if c is None else 'the baseline'}")
            continue
        elif b["gate"] == "info":
            verdict, detail = "info", ""
        elif not number(c.get(b["gate"]["field"])):
            verdict, detail = "FAIL", f"lacks {b['gate']['field']}"
        else:
            f, better = b["gate"]["field"], b["gate"]["better"]
            ratio = c[f] / b[f] if b[f] > 0 else 1.0
            worse = ratio > 1 + t if better == "lower" else ratio < 1 - t
            verdict = "FAIL" if worse else "ok"
            detail = f"{f} {b[f]:10.4g} -> {c[f]:10.4g} ({ratio:5.2f}x)"
        print(f"bench_guard: {verdict:4} {tag:42} {detail}".rstrip())
        if verdict == "FAIL":
            failed.append(tag)

if failed:
    print(f"bench_guard: {len(failed)} row(s) regressed more than "
          f"{t * 100:.0f}% or lack a valid gate: {', '.join(failed)}")
    sys.exit(1)
print("bench_guard: all gated rows within threshold")
EOF
