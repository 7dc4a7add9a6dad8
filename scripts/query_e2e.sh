#!/usr/bin/env bash
# End-to-end exercise of the batched query engine (docs/queries.md):
#
#   1. a mixed query file (64 amp queries over 16 distinct bitstrings +
#      batch/sample/expect) runs solo: every amp answer must be
#      byte-identical to its own standalone `amp` run, and the metrics
#      snapshot must prove the acceptance invariant — MORE queries than
#      contractions (duplicates dedup into closed groups, the open queries
#      share one batch cover);
#   2. a warm solo run against the same --cache-dir answers every group
#      from the result cache: zero contractions, byte-identical output;
#   3. a 3-process elastic run (fresh cache) streams the byte-identical
#      per-query output — the cover and the contraction bytes are
#      transport-invariant;
#   4. a `serve` daemon runs the same file as ONE batched job (submit
#      --queries): per-query output byte-identical to solo; a second query
#      job asking for a SUBSET batch of the first job's cover is answered
#      entirely from the cached covering batch (groups_from_cache in the
#      status JSON, zero group contractions, sliced bytes equal);
#   5. malformed query files are rejected with the offending line, both
#      solo (exit 2) and at submit time.
#
# Usage: scripts/query_e2e.sh [path-to-ltns_cli] [port]
set -euo pipefail

CLI=${1:-build/ltns_cli}
PORT=${2:-39431}
DIR=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$DIR"' EXIT

metric() { # <file> <name>
  python3 - "$@" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
print(int(sum(m["value"] for m in d["metrics"] if m["name"] == sys.argv[2])))
EOF
}

# Per-query blocks only: drop run summaries ('# queries', '# plans') and
# telemetry so solo / elastic / serve outputs can be diffed verbatim.
blocks() { grep -Ev '^# (queries|plans)' "$1" | grep -Ev '^(runtime|cache:| |slices|rebalance)'; }

# Same blocks, re-ordered by query id: the solo engine STREAMS results in
# group order while a served job's record is replayed in file order — the
# bytes per block must still match exactly.
canon() { # <file>
  python3 - "$1" <<'EOF'
import re, sys
text = ''.join(l for l in open(sys.argv[1])
               if not re.match(r'^# (queries|plans)|^(runtime|cache:| |slices|rebalance)', l))
blocks = [b for b in re.split(r'(?m)^(?=# query )', text) if b]
for b in sorted(blocks, key=lambda b: int(re.match(r'# query (\d+)', b).group(1))):
    sys.stdout.write(b)
EOF
}

echo "== build the mixed query file (64 amp + batch/sample/expect) =="
"$CLI" gen 3 3 8 5 > "$DIR/c.qc"
python3 - "$DIR/q.txt" <<'EOF'
import sys
lines = []
for i in range(64):                     # 64 amp queries, 16 distinct bitstrings
    v = i % 16
    bits = ['0'] * 9
    for j, q in enumerate((1, 3, 5, 7)):
        bits[q] = '1' if (v >> j) & 1 else '0'
    lines.append('amp ' + ''.join(bits))
lines.append('batch 0?0000?00')         # open {1,6}
lines.append('sample 8 77 0?00000?0')   # open {1,7}
lines.append('expect ZIIIIIIIZ')        # support {0,8} -- one shared cover
open(sys.argv[1], 'w').write('\n'.join(lines) + '\n')
EOF

echo "== solo run: 67 queries, metrics must show fewer contractions =="
CACHE="$DIR/cache"
"$CLI" --target=4 --no-telemetry --cache-dir="$CACHE" --metrics-out="$DIR/solo.json" \
  query "$DIR/c.qc" "$DIR/q.txt" > "$DIR/solo.txt"
blocks "$DIR/solo.txt" > "$DIR/solo_blocks.txt"
queries=$(metric "$DIR/solo.json" ltns_query_queries_total)
contractions=$(metric "$DIR/solo.json" ltns_query_contractions_total)
groups=$(metric "$DIR/solo.json" ltns_query_groups_total)
test "$queries" -eq 67 || { echo "expected 67 queries, got $queries"; exit 1; }
test "$groups" -eq 17 || { echo "expected 17 groups (16 closed + 1 cover), got $groups"; exit 1; }
test "$contractions" -lt "$queries" \
  || { echo "grouping shared no work: $contractions contractions for $queries queries"; exit 1; }
echo "solo OK: $queries queries -> $groups groups, $contractions contractions"

echo "== every amp answer is byte-identical to its standalone amp run =="
python3 - "$DIR" "$CLI" <<'EOF'
import re, subprocess, sys
d, cli = sys.argv[1], sys.argv[2]
text = open(d + '/solo.txt').read()
pairs = re.findall(r'^# query \d+: amp ([01]{9})\namplitude = (.*)$', text, re.M)
assert len(pairs) == 64, f'expected 64 amp answers, got {len(pairs)}'
solo = {}
for bits in sorted({b for b, _ in pairs}):
    out = subprocess.run([cli, '--target=4', '--no-telemetry', 'amp', d + '/c.qc', bits],
                         capture_output=True, text=True, check=True).stdout
    solo[bits] = re.search(r'^amplitude = (.*)$', out, re.M).group(1)
for bits, line in pairs:
    assert line == solo[bits], f'amp {bits}: query gave {line!r}, solo run gave {solo[bits]!r}'
print(f'{len(pairs)} amp answers byte-identical to {len(solo)} standalone runs')
EOF

echo "== warm run: every group answered from the result cache =="
"$CLI" --target=4 --no-telemetry --cache-dir="$CACHE" --metrics-out="$DIR/warm.json" \
  query "$DIR/c.qc" "$DIR/q.txt" > "$DIR/warm.txt"
blocks "$DIR/warm.txt" | diff "$DIR/solo_blocks.txt" -
test "$(metric "$DIR/warm.json" ltns_query_contractions_total)" -eq 0 \
  || { echo "warm run still contracted"; exit 1; }
test "$(metric "$DIR/warm.json" ltns_query_result_reuse_total)" -ge 17 \
  || { echo "warm run reused fewer groups than expected"; exit 1; }
echo "warm OK: zero contractions, byte-identical"

echo "== elastic 3-process run is byte-identical =="
"$CLI" --target=4 --no-telemetry --processes=3 --elastic \
  query "$DIR/c.qc" "$DIR/q.txt" > "$DIR/elastic.txt"
blocks "$DIR/elastic.txt" | diff "$DIR/solo_blocks.txt" -
echo "elastic OK"

echo "== serve: the same file as one batched query job =="
"$CLI" serve $PORT --cache-dir="$DIR/serve_cache" --state-dir="$DIR/state" \
  > "$DIR/server.log" 2>&1 &
SRV=$!
sleep 0.5
"$CLI" worker 127.0.0.1 $PORT > "$DIR/w0.log" 2>&1 &
sleep 0.3

# Hidden per-group child jobs consume ids too: always parse the id back.
JOB1=$("$CLI" submit 127.0.0.1 $PORT "$DIR/c.qc" --queries="$DIR/q.txt" --target=4 \
        --job-name=mixed | awk '{print $2}')
"$CLI" --no-telemetry result 127.0.0.1 $PORT "$JOB1" --wait > "$DIR/served.txt"
canon "$DIR/solo.txt" > "$DIR/solo_canon.txt"
canon "$DIR/served.txt" | diff "$DIR/solo_canon.txt" -
echo "serve OK: per-query output byte-identical to solo"

echo "== a subset batch job is sliced from the cached covering batch =="
printf 'batch 0?0000000\n' > "$DIR/sub.txt"
JOB2=$("$CLI" submit 127.0.0.1 $PORT "$DIR/c.qc" --queries="$DIR/sub.txt" --target=4 \
        --job-name=subset | awk '{print $2}')
"$CLI" --no-telemetry result 127.0.0.1 $PORT "$JOB2" --wait > "$DIR/sub_res.txt"
"$CLI" status 127.0.0.1 $PORT "$JOB2" > "$DIR/sub_status.json"
python3 - "$DIR" <<'EOF'
import json, re, sys
d = sys.argv[1]
s = json.load(open(d + '/sub_status.json'))
assert s["kind"] == "query", s
assert s["groups_from_cache"] == 1, f'subset job was not served from cache: {s}'
assert s["group_contractions"] == 0, f'subset job contracted: {s}'
# The sliced amplitudes are the covering batch's entries, to the byte:
# batch 0?0000?00 indexes (b1, b6), the subset fixes b6 = 0.
big = dict(re.findall(r'^amplitude\[(\d+)\] = (.*)$',
                      open(d + '/served.txt').read(), re.M))
sub = dict(re.findall(r'^amplitude\[(\d+)\] = (.*)$',
                      open(d + '/sub_res.txt').read(), re.M))
assert sub['0'] == big['00'] and sub['1'] == big['10'], (sub, big)
print('subset job OK: served from the covering batch, slices byte-equal')
EOF

echo "== malformed query files are rejected with the offending line =="
printf 'amp 010101010\namp 01x\n' > "$DIR/bad.txt"
rc=0; "$CLI" query "$DIR/c.qc" "$DIR/bad.txt" > /dev/null 2> "$DIR/bad.err" || rc=$?
test "$rc" -eq 2 || { echo "solo query accepted a malformed file (rc=$rc)"; exit 1; }
grep -q 'line 2' "$DIR/bad.err" || { echo "rejection lost the line number"; exit 1; }
rc=0; "$CLI" submit 127.0.0.1 $PORT "$DIR/c.qc" --queries="$DIR/bad.txt" \
  > "$DIR/bad_submit.txt" 2>&1 || rc=$?
test "$rc" -ne 0 || { echo "server accepted a malformed query file"; exit 1; }
grep -q 'line 2' "$DIR/bad_submit.txt" || { echo "server rejection lost the line"; exit 1; }
echo "rejection OK"

"$CLI" shutdown 127.0.0.1 $PORT
wait $SRV
echo "query e2e PASSED"
