#!/usr/bin/env bash
# End-to-end check of the kernel verification contract (docs/kernels.md):
#
#   1. fp32 amplitude lines must be BYTE-identical between a
#      LTNS_FORCE_ISA=portable run (the scalar reference chain) and the
#      default tier — and under every forced tier (LTNS_FORCE_ISA clamps
#      to hardware, so the avx512 leg degrades safely on machines without
#      it) — in-process, over 3 static processes, over elastic --lease=1
#      sharding, through coordinator/worker with one forced-portable
#      worker, and through the job server;
#   2. bf16 mixed precision must be DETERMINISTIC — byte-identical
#      across ISA tiers, process counts, and transports — while differing
#      from fp32 (proof the mode engaged) and staying within the
#      scale-relative ULP bound vs the fp32 reference
#      (scripts/compare_amps.py --compare-mode=ulp:N, the same metric as
#      util::ulp_distance_at_scale and the pinned corpus in
#      tests/test_kernels_parity.cpp).
#
# The "default tier" is whatever the probe picks under the caller's
# environment, so CI's LTNS_FORCE_ISA matrix runs every leg per tier.
#
# Usage: scripts/kernels_e2e.sh [path-to-ltns_cli] [port]
set -euo pipefail

CLI=${1:-build/ltns_cli}
PORT=${2:-39427}
CMP="$(dirname "$0")/compare_amps.py"
# Amplitudes are sums over many bf16-rounded contractions, so the bound
# sits well above the single-GEMM corpus pins (~2^15) with slack for
# cancellation between slices: 2^20 spacing units at the fp32 scale.
ULP_BOUND=1048576
DIR=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$DIR"' EXIT

BITS=010101010
"$CLI" gen 3 3 8 5 > "$DIR/c.qc"

amp() { # capture-file, then extra flags; --target=4 forces real slicing
  local out=$1; shift
  "$CLI" --no-telemetry --target=4 amp "$DIR/c.qc" $BITS "$@" \
    | grep '^amplitude' > "$out"
}
bitwise() { python3 "$CMP" --compare-mode=bitwise "$@"; }

echo "== kernel tier =="
"$CLI" --version | grep 'kernels:'

echo "== fp32 reference (forced portable tier) =="
LTNS_FORCE_ISA=portable amp "$DIR/ref.txt"
cat "$DIR/ref.txt"

echo "== fp32 bitwise vs portable: default tier, every transport =="
amp "$DIR/fp32_solo.txt"
bitwise "$DIR/ref.txt" "$DIR/fp32_solo.txt"
amp "$DIR/fp32_static.txt" --processes=3
bitwise "$DIR/ref.txt" "$DIR/fp32_static.txt"
amp "$DIR/fp32_elastic.txt" --processes=3 --elastic --lease=1
bitwise "$DIR/ref.txt" "$DIR/fp32_elastic.txt"

echo "== fp32 bitwise under every forced ISA tier =="
for isa in portable avx2 avx512 neon; do
  LTNS_FORCE_ISA=$isa amp "$DIR/fp32_$isa.txt"
  bitwise "$DIR/ref.txt" "$DIR/fp32_$isa.txt"
done

echo "== fp32 coordinator/worker: one default-tier, one forced-portable worker =="
"$CLI" worker 127.0.0.1 $PORT > "$DIR/cw0.log" 2>&1 &
W0=$!
LTNS_FORCE_ISA=portable "$CLI" worker 127.0.0.1 $PORT > "$DIR/cw1.log" 2>&1 &
W1=$!
"$CLI" --target=4 coordinate $PORT 2 "$DIR/c.qc" $BITS > "$DIR/coord.log"
wait $W0 $W1
grep '^amplitude' "$DIR/coord.log" > "$DIR/fp32_coord.txt"
bitwise "$DIR/ref.txt" "$DIR/fp32_coord.txt"
grep -q 'shard [0-9] \[portable\]' "$DIR/coord.log" \
  || { echo "forced-portable worker did not report its tier"; cat "$DIR/coord.log"; exit 1; }

echo "== bf16: deterministic across tiers and transports =="
amp "$DIR/bf16.txt" --precision=bf16
LTNS_FORCE_ISA=portable amp "$DIR/bf16_portable.txt" --precision=bf16
bitwise "$DIR/bf16.txt" "$DIR/bf16_portable.txt"
amp "$DIR/bf16_elastic.txt" --precision=bf16 --processes=2 --elastic
bitwise "$DIR/bf16.txt" "$DIR/bf16_elastic.txt"

echo "== bf16: differs from fp32 but stays ULP-bounded =="
if bitwise "$DIR/ref.txt" "$DIR/bf16.txt" > /dev/null 2>&1; then
  echo "bf16 run produced fp32 bits — mixed precision never engaged"; exit 1
fi
python3 "$CMP" --compare-mode=ulp:$ULP_BOUND "$DIR/ref.txt" "$DIR/bf16.txt"

echo "== serve transport: fp32 bitwise, bf16 deterministic + bounded =="
SPORT=$((PORT + 1))
"$CLI" serve $SPORT --processes=2 > "$DIR/server.log" 2>&1 &
SRV=$!
sleep 0.5
"$CLI" worker 127.0.0.1 $SPORT > "$DIR/w0.log" 2>&1 &
LTNS_FORCE_ISA=portable "$CLI" worker 127.0.0.1 $SPORT > "$DIR/w1.log" 2>&1 &
sleep 0.5
"$CLI" submit 127.0.0.1 $SPORT "$DIR/c.qc" $BITS --target=4 --job-name=fp32
"$CLI" submit 127.0.0.1 $SPORT "$DIR/c.qc" $BITS --target=4 --precision=bf16 --job-name=bf16
"$CLI" result 127.0.0.1 $SPORT 1 --wait | grep '^amplitude' > "$DIR/serve_fp32.txt"
"$CLI" result 127.0.0.1 $SPORT 2 --wait | grep '^amplitude' > "$DIR/serve_bf16.txt"
bitwise "$DIR/ref.txt" "$DIR/serve_fp32.txt"
bitwise "$DIR/bf16.txt" "$DIR/serve_bf16.txt"
python3 "$CMP" --compare-mode=ulp:$ULP_BOUND "$DIR/ref.txt" "$DIR/serve_bf16.txt"
"$CLI" shutdown 127.0.0.1 $SPORT
wait $SRV

echo "kernels e2e PASSED"
