#!/usr/bin/env bash
# Daemon round trip: start ttda_simd, drive it with scripts/simctl.py
# (8 concurrent lossy jobs on warm ReliableNet replicas), capture the
# reference results and check the daemon's status (8 jobs done, 32
# requests completed, jobsPerWorker summing to 8). Then a second daemon
# gets the same submissions, checkpoints the job table mid-flight and
# is killed with SIGKILL, and a third daemon restores the checkpoint:
# every job must reproduce the reference result bit for bit (outputs,
# cycles, full stats JSON).
#
# Usage: scripts/daemon_smoke.sh <build-dir>   (needs src/daemon/ttda_simd)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:?usage: scripts/daemon_smoke.sh <build-dir>}"
SIMD="$BUILD_DIR/src/daemon/ttda_simd"
CTL="scripts/simctl.py"
SIMD_ARGS=(--workers 2 --pes 4 --reliable-net --seed 1)
OUT="$(mktemp -d)"
SIMD_PID=""

cleanup() {
    # A failed assertion leaves the running daemon behind; stop it.
    if [[ -n "$SIMD_PID" ]]; then
        kill -9 "$SIMD_PID" 2> /dev/null || true
    fi
    rm -rf "$OUT"
}
trap cleanup EXIT

start_simd() { # args: logfile [extra args...]; sets SIMD_PID and PORT
    local log="$1"; shift
    "$SIMD" "${SIMD_ARGS[@]}" "$@" > "$log" &
    SIMD_PID=$!
    PORT=""
    for _ in $(seq 1 300); do
        PORT="$(awk '/^LISTENING/{print $2}' "$log")"
        [[ -n "$PORT" ]] && return 0
        sleep 0.1
    done
    echo "daemon never printed LISTENING" >&2
    return 1
}

stop_simd() { # wait for a daemon told to shut down
    wait "$SIMD_PID"
    SIMD_PID=""
}

submit_jobs() {
    for s in $(seq 1 8); do
        python3 "$CTL" --port "$PORT" submit --workload fib --args 7 \
            --requests 4 --seed "$s" --drop-rate 0.02 \
            --fault-seed "$((s + 100))" > /dev/null
    done
}

start_simd "$OUT/simd_ref.log"
submit_jobs
for id in $(seq 1 8); do
    python3 "$CTL" --port "$PORT" result "$id" --wait \
        > "$OUT/daemon_ref_$id.json"
done
python3 "$CTL" --port "$PORT" status > "$OUT/daemon_status.json"
python3 "$CTL" --port "$PORT" shutdown > /dev/null
stop_simd
python3 - "$OUT/daemon_status.json" <<'EOF'
import json, sys
st = json.load(open(sys.argv[1]))
assert st["srv"]["done"] == 8, st
assert st["srv"]["requestsCompleted"] == 32, st
assert sum(st["fleet"]["jobsPerWorker"]) == 8, st
EOF

# Same submissions; checkpoint races the executor (done + pending mix),
# then die without warning.
start_simd "$OUT/simd_ckpt.log"
submit_jobs
python3 "$CTL" --port "$PORT" checkpoint "$OUT/daemon.snap" > /dev/null
kill -9 "$SIMD_PID"
wait "$SIMD_PID" 2> /dev/null || true
SIMD_PID=""

# Restore into a fresh daemon: pending jobs re-run deterministically.
start_simd "$OUT/simd_restored.log" --restore "$OUT/daemon.snap"
for id in $(seq 1 8); do
    python3 "$CTL" --port "$PORT" result "$id" --wait \
        > "$OUT/daemon_res_$id.json"
done
python3 "$CTL" --port "$PORT" shutdown > /dev/null
stop_simd
python3 - "$OUT" <<'EOF'
import json, sys
d = sys.argv[1]
for i in range(1, 9):
    ref = json.load(open(f"{d}/daemon_ref_{i}.json"))
    res = json.load(open(f"{d}/daemon_res_{i}.json"))
    assert ref["state"] == res["state"] == "done", (i, ref, res)
    for k in ("cycles", "completed", "deadlocked", "outputs",
              "watermarkHits", "statsJson"):
        assert ref[k] == res[k], f"job {i}: field {k} differs"
print("daemon smoke: 8/8 jobs bit-identical after kill -9 + restore")
EOF
