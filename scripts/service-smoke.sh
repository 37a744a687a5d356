#!/usr/bin/env bash
# End-to-end smoke test of the verification service: build p4served and
# p4verify, start the daemon with a disk cache tier, submit corpus
# programs over HTTP twice, and assert the resubmissions were served
# from the result cache. Then restart the daemon and assert the disk
# tier survived. Used by CI (service-smoke job); runnable locally.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:9746
BASE=http://$ADDR
WORK=$(mktemp -d)
trap 'kill "$SERVED_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

echo "== build"
go build -o "$WORK/p4served" ./cmd/p4served
go build -o "$WORK/p4verify" ./cmd/p4verify
go build -o "$WORK/p4gen" ./cmd/p4gen

echo "== materialize example programs"
"$WORK/p4gen" -corpus dapper -o "$WORK/dapper.p4"
"$WORK/p4gen" -corpus netpaxos -o "$WORK/netpaxos.p4" -rules-out "$WORK/netpaxos.rules"

start_daemon() {
    "$WORK/p4served" -addr "$ADDR" -cache-dir "$WORK/cache" -workers 2 &
    SERVED_PID=$!
    for _ in $(seq 50); do
        curl -sf "$BASE/v1/healthz" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    echo "FAIL: daemon did not become healthy" >&2
    exit 1
}

# stat_field NAME prints the integer value of a top-level stats counter.
stat_field() {
    curl -sf "$BASE/v1/stats" | grep -o "\"$1\":[0-9]*" | head -1 | cut -d: -f2
}

start_daemon
echo "== submit examples (expect misses, violations found)"
# Both programs carry paper-reported bugs: exit status 1 is the correct verdict.
"$WORK/p4verify" -remote "$BASE" -O3 "$WORK/dapper.p4" >/dev/null && exit_ok=0 || exit_ok=$?
[ "$exit_ok" -eq 1 ] || { echo "FAIL: dapper exit $exit_ok, want 1 (violations)"; exit 1; }
"$WORK/p4verify" -remote "$BASE" -O3 -rules "$WORK/netpaxos.rules" -json "$WORK/netpaxos.p4" >"$WORK/first.json" && exit_ok=0 || exit_ok=$?
[ "$exit_ok" -eq 1 ] || { echo "FAIL: netpaxos exit $exit_ok, want 1 (violations)"; exit 1; }

hits=$(stat_field cache_hits)
[ "$hits" -eq 0 ] || { echo "FAIL: $hits cache hits before any resubmission"; exit 1; }

echo "== resubmit (expect cache hits, identical report)"
"$WORK/p4verify" -remote "$BASE" -O3 "$WORK/dapper.p4" >/dev/null || true
"$WORK/p4verify" -remote "$BASE" -O3 -rules "$WORK/netpaxos.rules" -json "$WORK/netpaxos.p4" >"$WORK/second.json" || true
cmp "$WORK/first.json" "$WORK/second.json" || { echo "FAIL: cached report differs from live one"; exit 1; }

hits=$(stat_field cache_hits)
[ "$hits" -eq 2 ] || { echo "FAIL: cache_hits=$hits after resubmission, want 2"; exit 1; }
echo "   cache_hits=$hits"

echo "== metrics exposition"
# The families asserted here are the monitoring contract; the list is
# mirrored in internal/service/metrics_test.go (requiredFamilies).
curl -sf "$BASE/v1/metrics" >"$WORK/metrics.txt"
for fam in p4served_jobs_submitted_total p4served_jobs_done_total \
           p4served_job_duration_seconds p4served_stage_duration_seconds \
           p4served_paths_explored_total p4served_solver_queries_total \
           p4assert_solver_memo_hits_total p4assert_solver_sat_decisions_total \
           p4served_queue_depth p4served_workers; do
    grep -q "^# TYPE $fam " "$WORK/metrics.txt" || {
        echo "FAIL: metric family $fam missing from /v1/metrics"; exit 1; }
done
grep -q 'technique=' "$WORK/metrics.txt" || { echo "FAIL: no per-technique series"; exit 1; }
grep -q 'stage="execute"' "$WORK/metrics.txt" || { echo "FAIL: no per-stage series"; exit 1; }
echo "   $(grep -c '^# TYPE ' "$WORK/metrics.txt") metric families exposed"

echo "== restart daemon: disk tier must survive"
kill "$SERVED_PID" && wait "$SERVED_PID" 2>/dev/null || true
start_daemon
"$WORK/p4verify" -remote "$BASE" -O3 "$WORK/dapper.p4" >/dev/null || true
disk=$(stat_field disk_hits)
[ "$disk" -eq 1 ] || { echo "FAIL: disk_hits=$disk after restart, want 1"; exit 1; }
echo "   disk_hits=$disk"

echo "PASS: service smoke"
