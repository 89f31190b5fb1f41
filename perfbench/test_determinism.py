#!/usr/bin/env python3
"""The benchmark's own self-check.

    python3 perfbench/test_determinism.py [--seconds S]

Run from the repository root. For every workload:

- two short traced runs with one seed must print the same output digest
  and the same exact per-layer counts (fires, simulated cycles,
  retransmits, destroyed packets, deferred I-structure reads, vn
  cycles, ...);
- one run with a second, held-out seed must complete every op with no
  failure.

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("sim_dense", "fleet_lossy", "daemon_closed", "emul_fleet")
SEED = 7
HELD_OUT_SEED = 90210
# Per-layer metrics that are exact counts of simulated events: they must
# repeat run to run for one seed. Timing-dependent counts (fleet steals,
# daemon jobs per batch) are left out.
EXACT = ("ttda.fires", "ttda.sim_cycles", "net.sent", "net.delivered",
         "net.blocked_cycles", "net.retransmits", "net.acks_sent",
         "net.rx_duplicates", "net.abandoned", "fault.destroyed",
         "mem.is_fetches", "mem.is_deferred", "emul.fires", "vn.sim_cycles")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s seed %d: exit %d\n%s" % (
            workload, seed, out.returncode, out.stderr[-2000:]))
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()

    problems = []
    for w in WORKLOADS:
        try:
            ctx_a, res_a = run(w, SEED, args.seconds, 1)
            ctx_b, res_b = run(w, SEED, args.seconds, 1)
            ctx_h, res_h = run(w, HELD_OUT_SEED, args.seconds, 0)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            problems.append(str(e))
            continue
        for name, res in (("seed %d" % SEED, res_a),
                          ("seed %d" % SEED, res_b),
                          ("seed %d" % HELD_OUT_SEED, res_h)):
            if not res["correct"] or res["failed"]:
                problems.append("%s %s: %d of %d ops failed" % (
                    w, name, res["failed"], res["attempted"]))
        if ctx_a["digest"] != ctx_b["digest"]:
            problems.append("%s: output digest %s vs %s" % (
                w, ctx_a["digest"], ctx_b["digest"]))
        for m in EXACT:
            a = res_a["metrics"][m]["value"]
            b = res_b["metrics"][m]["value"]
            if a != b:
                problems.append("%s: %s %r vs %r" % (w, m, a, b))
        counted = [m for m in EXACT if res_a["metrics"][m]["value"]]
        print("%-14s digest %s, %d ops, exact counts %s" % (
            w, ctx_a["digest"], res_a["attempted"], ", ".join(counted)))

    for p in problems:
        print("FAIL " + p)
    print("determinism self-check: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
