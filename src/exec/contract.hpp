// Pairwise tensor contraction via TTGT (Transpose-Transpose-GEMM-Transpose,
// the 2021 Gordon Bell kernel this paper builds on).
//
// contract(A, B): the shared edge ids are summed. A is permuted to
// [keepA..., shared...], B to [shared..., keepB...], one GEMM of shape
// (2^|keepA| × 2^|shared| × 2^|keepB|) produces the output in layout
// [keepA..., keepB...] directly — no output transpose needed for this index
// convention, which is why the executors keep "free A then free B" order.
#pragma once

#include <vector>

#include "exec/gemm.hpp"
#include "exec/permute.hpp"
#include "exec/simd_kernels.hpp"
#include "exec/tensor.hpp"

namespace ltns::device {
struct DeviceStats;
}  // namespace ltns::device

namespace ltns::exec {

struct ContractPlan {
  std::vector<int> shared;      // summed edge ids (A's relative order)
  std::vector<int> a_order;     // permuted A layout: keepA + shared
  std::vector<int> b_order;     // permuted B layout: shared + keepB
  std::vector<int> out_ixs;     // keepA + keepB
  int m = 1, n = 1, k = 1;      // GEMM shape (2^keepA, 2^keepB, 2^shared)
  bool a_identity = false;      // permutation of A is a no-op
  bool b_identity = false;
};

ContractPlan plan_contract(const std::vector<int>& a_ixs, const std::vector<int>& b_ixs);

struct ContractStats {
  double flops = 0;
  double permute_elems = 0;   // elements moved by transposes
  double gemm_seconds = 0;
  double permute_seconds = 0;
};

// Contracts A with B over all shared edges. `sched` (optional) splits the
// GEMM's rows over idle workers of its running slice run (for_row_panels);
// stats (optional) accumulate. The permute and GEMM run the vector kernels
// at the tier device::cpu_probe() selects, with GEMM operands at `prec`;
// at fp32 every tier is bitwise identical to exec::permute + exec::cgemm.
// `dstats` (optional) receives the kernel-call and packing accounting.
Tensor contract(const Tensor& a, const Tensor& b, runtime::SliceScheduler* sched = nullptr,
                ContractStats* stats = nullptr, Precision prec = Precision::kFp32,
                device::DeviceStats* dstats = nullptr);

// One operand permute on the kernel path (the probed tier), counted the way
// contract() counts its own: permute_elems and permute_seconds in `stats`,
// one permute call in `dstats`, one trace event. The fused windows use it
// to lay out each branch once per task instead of once per subtask.
Tensor permute_operand(const Tensor& t, const std::vector<int>& order,
                       ContractStats* stats = nullptr, device::DeviceStats* dstats = nullptr);

// Reference implementation: explicit loops over all index assignments.
// Exponential; for tests on small tensors only.
Tensor contract_naive(const Tensor& a, const Tensor& b);

}  // namespace ltns::exec
