#!/usr/bin/env python3
"""Build (on first use) and run the host-time benchmark.

    python3 perfbench/run.py --workload sim_dense --seed 1 --seconds 20 --trace 0

Run from the repository root. The simulator and the benchmark binary
are built from source into .bench_build/ (CMake, RelWithDebInfo); later
runs only re-check the build. The last line on stdout is the result
object, the line before it the run context. Build output goes to
stderr. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("sim_dense", "fleet_lossy", "daemon_closed", "emul_fleet")
# perfbench stops its own work after 140 s; this is the backstop.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
               build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "ttda_simd", "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build")
    build(root, build_dir)

    binary = os.path.join(build_dir, "perfbench")
    simd = os.path.join(build_dir, "ttda", "daemon", "ttda_simd")
    trace_out = os.path.join(
        build_dir, "trace-%s-%d.jsonl" % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--simd", simd, "--trace-out", trace_out,
           "--commit", git_commit(root)]
    # Own process group, so a timeout also stops the daemon child.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run did not finish in %d s; killed" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
