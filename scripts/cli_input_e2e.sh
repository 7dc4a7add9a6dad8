#!/usr/bin/env bash
# Bad circuit files, bitstrings and numbers fail clean: ltns_cli exits 2
# with one line on stderr (a circuit error reads "<path>:<line>: <message>",
# a number error names the argument), never an abort or a silent 0; a
# removed flag exits 64 with one line; and a good input still answers with
# exit 0.
#
# Usage: scripts/cli_input_e2e.sh [path-to-ltns_cli]
set -uo pipefail

CLI=${1:-build/ltns_cli}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
fail=0

expect() { # want-rc, stderr-pattern, then the ltns_cli arguments
  local want=$1 pattern=$2; shift 2
  "$CLI" --no-telemetry "$@" > "$DIR/out" 2> "$DIR/err"
  local rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "FAIL ($rc, want $want): ltns_cli $*"; cat "$DIR/err"; fail=1
  elif [ "$want" -ne 0 ] && ! { [ "$(wc -l < "$DIR/err")" -eq 1 ] && grep -q -- "$pattern" "$DIR/err"; }; then
    echo "FAIL (stderr is not one line matching '$pattern'): ltns_cli $*"; cat "$DIR/err"; fail=1
  fi
}

"$CLI" gen 1 3 2 1 > "$DIR/q3.qc"
printf 'ltnsqc v2\nqubits 3\n' > "$DIR/header.qc"
printf 'ltnsqc v1\nqubits 0\n' > "$DIR/width.qc"
printf 'ltnsqc v1\nqubits 3\nh 0\nwarp 1\n' > "$DIR/gate.qc"
printf 'ltnsqc v1\nqubits 3\n\n# comment\ncz 0 7\n' > "$DIR/range.qc"
printf 'ltnsqc v1\nqubits 3\ncz 1 1\n' > "$DIR/repeat.qc"
printf 'ltnsqc v1\nqubits 3\ncz 1\n' > "$DIR/arity.qc"

# Circuit files, through amp and plan.
expect 2 "header.qc:1: " amp "$DIR/header.qc" 000
expect 2 "width.qc:2: " amp "$DIR/width.qc" 000
expect 2 "gate.qc:4: unknown gate" amp "$DIR/gate.qc" 000
expect 2 "range.qc:5: .*out of range" amp "$DIR/range.qc" 000
expect 2 "repeat.qc:3: .*repeats qubit 1" amp "$DIR/repeat.qc" 000
expect 2 "arity.qc:3: " plan "$DIR/arity.qc"
expect 2 "cannot open" amp "$DIR/missing.qc" 000

# Bitstrings: exactly the circuit's width, only 0 and 1, on every verb
# that takes one. Port 1 is never contacted: the check comes first.
for bits in 0x2 01 0000 '' 01a; do
  expect 2 "bitstring" amp "$DIR/q3.qc" "$bits"
  expect 2 "bitstring" coordinate 1 1 "$DIR/q3.qc" "$bits"
  expect 2 "bitstring" submit 127.0.0.1 1 "$DIR/q3.qc" "$bits"
done
expect 2 "repeat.qc:3: " submit 127.0.0.1 1 "$DIR/repeat.qc" 000

# Numbers: a verb argument or flag value that is not wholly a number in
# range names itself instead of reading as 0.
expect 2 "rows: 'abc' is not a number" gen abc 3 2
expect 2 "rows: 0 is out of range" gen 0 3 2
expect 2 "n_samples: 'abc' is not a number" sample "$DIR/q3.qc" 2 abc
expect 2 "--workers: 'x' is not a number" --workers=x amp "$DIR/q3.qc" 010
expect 2 "--target: 'abc' is not a number" --target=abc amp "$DIR/q3.qc" 010

# A removed flag exits 64 with one line saying what replaced it.
expect 64 "scheduler now spreads a task's secondary subtasks" --runtime=serial amp "$DIR/q3.qc" 010

# Good input still runs.
expect 0 "" amp "$DIR/q3.qc" 010
expect 0 "" plan "$DIR/q3.qc"

[ "$fail" -eq 0 ] && echo "cli input e2e PASSED"
exit "$fail"
