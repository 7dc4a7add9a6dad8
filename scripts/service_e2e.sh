#!/usr/bin/env bash
# End-to-end exercise of the multi-tenant job server (docs/service.md):
#
#   1. solo `amp` baselines for two circuits;
#   2. one `serve` daemon + a two-worker fleet, where worker 0 SIGKILLs
#      itself mid-run while HOLDING a lease (LTNS_CHAOS_* hooks);
#   3. two concurrent jobs from different tenants (weights 3 and 1) — both
#      must complete and print amplitudes BYTE-identical to the solo runs;
#   4. the server status JSON must report the dead worker, both tenants'
#      fair-share state, and per-job progress;
#   5. the serve-side metrics snapshot must carry the queue/admission and
#      per-tenant series;
#   6. a server restarted from --state-dir must still serve job 1's
#      persisted result byte-identically, and re-run a job queued before
#      the kill to the same bytes.
#
# Usage: scripts/service_e2e.sh [path-to-ltns_cli] [port]
set -euo pipefail

CLI=${1:-build/ltns_cli}
PORT=${2:-39415}
DIR=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$DIR"' EXIT

echo "== baselines =="
"$CLI" gen 3 3 8 5 > "$DIR/c1.qc"
"$CLI" gen 3 3 8 6 > "$DIR/c2.qc"
BITS1=010101010
BITS2=101010101
# --target=4 slices each job into 64 tasks, so leases from the two jobs
# really interleave on the fleet (and the chaos kill lands mid-run).
"$CLI" --no-telemetry --target=4 amp "$DIR/c1.qc" $BITS1 | grep '^amplitude' > "$DIR/solo1.txt"
"$CLI" --no-telemetry --target=4 amp "$DIR/c2.qc" $BITS2 | grep '^amplitude' > "$DIR/solo2.txt"
cat "$DIR/solo1.txt" "$DIR/solo2.txt"

echo "== serve + fleet (worker 0 doomed) =="
"$CLI" serve $PORT --processes=2 --state-dir="$DIR/state" \
  --metrics-out="$DIR/server_metrics.json" --metrics-interval=0.2 \
  > "$DIR/server.log" 2>&1 &
SRV=$!
sleep 0.5
# "any": the server hands out worker ids in connect order, so this
# process cannot know which id it will get — but the hook is scoped to
# this one process's environment either way.
LTNS_CHAOS_KILL_SHARD=any LTNS_CHAOS_KILL_AFTER_RANGES=1 \
  "$CLI" worker 127.0.0.1 $PORT > "$DIR/w0.log" 2>&1 &
W0=$!
"$CLI" worker 127.0.0.1 $PORT > "$DIR/w1.log" 2>&1 &
W1=$!
sleep 0.5

echo "== two tenants, concurrent jobs =="
"$CLI" submit 127.0.0.1 $PORT "$DIR/c1.qc" $BITS1 --target=4 --tenant=alice --weight=3 --job-name=alpha
"$CLI" submit 127.0.0.1 $PORT "$DIR/c2.qc" $BITS2 --target=4 --tenant=bob --weight=1 --job-name=beta
"$CLI" result 127.0.0.1 $PORT 1 --wait > "$DIR/svc1.txt"
"$CLI" result 127.0.0.1 $PORT 2 --wait > "$DIR/svc2.txt"

grep '^amplitude' "$DIR/svc1.txt" | diff "$DIR/solo1.txt" -
grep '^amplitude' "$DIR/svc2.txt" | diff "$DIR/solo2.txt" -
echo "both jobs byte-identical to solo runs"

# The doomed worker must be gone (or a not-yet-reaped zombie); a short
# grace poll also gives the server time to notice the EOF.
dead=0
for _ in $(seq 1 100); do
  st=$(ps -o stat= -p $W0 2>/dev/null || true)
  if [ -z "$st" ] || [ "${st#Z}" != "$st" ] || [ "${st#*Z}" != "$st" ]; then dead=1; break; fi
  sleep 0.05
done
if [ "$dead" != 1 ]; then
  echo "chaos worker 0 is still alive — the SIGKILL hook never fired"; exit 1
fi
echo "worker 0 died mid-run as intended; fleet absorbed it"

echo "== status + metrics =="
"$CLI" status 127.0.0.1 $PORT > "$DIR/status.json"
python3 - "$DIR/status.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
tenants = {t["tenant"]: t for t in d["tenants"]}
assert tenants["alice"]["weight"] == 3 and tenants["bob"]["weight"] == 1, tenants
assert any(not w["alive"] for w in d["workers"]), "no dead worker in status"
jobs = {j["id"]: j for j in d["jobs"]}
assert jobs[1]["state"] == "done" and jobs[2]["state"] == "done", jobs
assert jobs[1]["tasks_done"] == jobs[1]["total"] > 1, jobs[1]
assert "admission" in d and d["admission"]["max_queued"] > 0
print("status OK: tenants", sorted(tenants), "| dead workers:",
      sum(not w["alive"] for w in d["workers"]))
EOF
python3 - "$DIR/server_metrics.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
names = {m["name"] for m in d["metrics"]}
need = {"ltns_server_queue_depth", "ltns_server_running_limit",
        "ltns_server_jobs_completed_total", "ltns_tenant_weight",
        "ltns_tenant_virtual_time"}
missing = need - names
assert not missing, f"metrics snapshot missing {missing}"
print("metrics OK:", len(names), "series")
EOF

echo "== queue a job, kill the server, restart from --state-dir =="
"$CLI" submit 127.0.0.1 $PORT "$DIR/c1.qc" $BITS1 --target=4 --tenant=alice --job-name=rerun
kill -9 $SRV; wait $SRV 2>/dev/null || true
"$CLI" serve $PORT --processes=2 --state-dir="$DIR/state" > "$DIR/server2.log" 2>&1 &
SRV2=$!
sleep 0.5
"$CLI" worker 127.0.0.1 $PORT > "$DIR/w2.log" 2>&1 &
# Job 1's result must have survived the kill verbatim; job 3 (queued when
# the server died) must re-run to the same bytes as the solo baseline.
"$CLI" result 127.0.0.1 $PORT 1 | grep '^amplitude' | diff "$DIR/solo1.txt" -
"$CLI" result 127.0.0.1 $PORT 3 --wait | grep '^amplitude' | diff "$DIR/solo1.txt" -
echo "restart OK: persisted result intact, queued job resumed byte-identically"

"$CLI" shutdown 127.0.0.1 $PORT
wait $SRV2
echo "service e2e PASSED"
