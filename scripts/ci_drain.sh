#!/usr/bin/env bash
# SIGTERM a background service and require a clean drain.
#
# Usage: scripts/ci_drain.sh PIDFILE LOG PROG SECONDS
#
# Sends SIGTERM to the pid in PIDFILE, waits up to SECONDS for the
# process to exit, then requires the exact line "PROG drained; exiting"
# in LOG (the line every repro service prints last).
set -euo pipefail

pidfile=$1 log=$2 prog=$3 seconds=$4
pid=$(cat "$pidfile")

kill -TERM "$pid"
for _ in $(seq 1 $((seconds * 5))); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.2
done
if kill -0 "$pid" 2>/dev/null; then
    echo "$prog still alive ${seconds}s after SIGTERM"
    exit 1
fi
if ! grep -qxF "$prog drained; exiting" "$log"; then
    echo "no '$prog drained; exiting' line in $log:"
    tail -n 20 "$log"
    exit 1
fi
