// Complex single-precision GEMM: C = A · B, row-major, no transposes
// (operands are pre-permuted by the TTGT pipeline, §5).
//
// The blocked kernel mirrors the paper's 4x4 complex micro-kernel design
// (§5.1): panels of A and B are packed, a 4x4 accumulator tile lives in
// registers, and the K loop runs innermost. For the narrow shapes that
// dominate quantum-circuit contractions (two of m, n, k < 16) GEMM is
// bandwidth-bound — Θ(MNK) ≈ Θ(MN + NK + MK) — which is exactly the regime
// the fused executor (secondary slicing) rescues.
#pragma once

#include <cstdint>
#include <functional>

#include "exec/tensor.hpp"

namespace ltns::runtime {
class SliceScheduler;
}  // namespace ltns::runtime

namespace ltns::exec {

// Reference triple loop.
void cgemm_naive(int m, int n, int k, const cfloat* a, const cfloat* b, cfloat* c);

// Blocked micro-kernel implementation; `sched` (optional) splits the rows
// into panels through for_row_panels. C is overwritten.
void cgemm(int m, int n, int k, const cfloat* a, const cfloat* b, cfloat* c,
           runtime::SliceScheduler* sched = nullptr);

// Runs rows(worker, m0, m1) over [0, m): when `sched` is given and the
// m·n·k work amortizes a fork, one contiguous panel per scheduler worker
// through SliceScheduler::parallel_for (so idle workers of the running
// slice run take panels), else one call over all rows. Every element's
// chain is row-local, so the split never changes a bit.
void for_row_panels(runtime::SliceScheduler* sched, int m, int n, int k,
                    const std::function<void(int, int, int)>& rows);

// Flop count convention used throughout (complex MAC = 8 real flops).
inline double gemm_flops(double m, double n, double k) { return 8.0 * m * n * k; }

}  // namespace ltns::exec
