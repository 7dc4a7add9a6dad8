// Fused stem executor — "secondary slicing" (§5).
//
// Between main memory and the 256 KB LDM the slice/stack trade-off flips:
// bandwidth is plentiful, so we *stack* instead of slicing at the process
// level. A window of n consecutive stem steps is executed entirely inside
// per-worker LDM scratch: the indices of the stem tensor that do NOT
// participate in the window (equivalently: whose lifetime extends past the
// window — the paper's choice of "longest lifetime") are sliced at thread
// level into 2^|S2| embarrassingly parallel subtasks. Each subtask does one
// strided DMA-get, n small contractions in LDM, and one contiguous DMA-put
// (the put *is* the stacking, so secondary slicing has zero compute
// overhead). This replaces n-1 full-tensor DMA round-trips of the
// step-by-step baseline and lifts the arithmetic intensity past the
// roofline ridge (Fig. 12 / Fig. 13).
//
// §5.3.2: when the DMA-get granularity falls under the efficient minimum
// (512 B), the cooperative mode models the 64-CPE block load + RMA
// redistribution: granularity is restored to 512 B at the cost of counted
// RMA traffic.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/slicing.hpp"
#include "exec/tree_executor.hpp"
#include "tn/stem.hpp"

namespace ltns::exec {

struct DmaStats {
  double bytes_get = 0;
  double bytes_put = 0;
  double rma_bytes = 0;
  double transfers_get = 0;
  double transfers_put = 0;
  double min_granularity = std::numeric_limits<double>::infinity();  // bytes
  // Bandwidth-weighted effective granularity: Σ bytes·g / Σ bytes.
  double granularity_weight = 0;
  void record_get(double bytes, double granularity);
  void record_put(double bytes, double granularity);
  double total_bytes() const { return bytes_get + bytes_put; }
  double effective_granularity() const {
    return total_bytes() > 0 ? granularity_weight / total_bytes() : 0;
  }
  void merge(const DmaStats& o);
};

struct FusedWindow {
  int begin_step = 0;  // stem step range [begin_step, end_step)
  int end_step = 0;
  bool in_ldm = true;  // false: fell back to a main-memory step
  int secondary_count = 0;  // |S2| chosen at plan time
  size_t ldm_peak_elems = 0;
};

struct FusedPlan {
  const tn::Stem* stem = nullptr;
  std::vector<int> process_sliced;  // process-level sliced edges (plan-time)
  // LDM capacity in complex<float> elements: 256 KB / 8 B. The planner
  // checks the SUM of the live operands (w, branch, result) per step, which
  // is what limits the paper to rank-13 operands.
  size_t ldm_elems = 32768;
  bool cooperative_dma = true;
  std::vector<FusedWindow> windows;

  int fused_steps() const;
  double average_fused_length() const;
};

// Plans the windows. `process_sliced` must match what execution will fix.
FusedPlan plan_fused(const tn::Stem& stem, const std::vector<int>& process_sliced,
                     size_t ldm_elems, bool cooperative_dma = true);

struct FusedStats {
  ExecStats exec;
  DmaStats dma;
  uint64_t ldm_subtasks = 0;
  size_t ldm_peak_elems = 0;
};

// Executes the whole stem for one process-level subtask. Branches are
// pre-contracted with the step-by-step executor (their cost is counted into
// `stats->exec` as the paper counts branch pre-conditioning). `prec` is the
// GEMM operand precision of every contraction.
Tensor execute_fused(const FusedPlan& plan, const LeafProvider& leaves, uint64_t assignment,
                     ThreadPool* pool = nullptr, FusedStats* stats = nullptr,
                     Precision prec = Precision::kFp32);

// Step-by-step stem execution (the Fig. 12 baseline): identical work, but
// every step is a full TTGT against main memory.
Tensor execute_stem_stepwise(const tn::Stem& stem, const LeafProvider& leaves,
                             const std::vector<int>& process_sliced, uint64_t assignment,
                             ThreadPool* pool = nullptr, FusedStats* stats = nullptr,
                             Precision prec = Precision::kFp32);

}  // namespace ltns::exec
