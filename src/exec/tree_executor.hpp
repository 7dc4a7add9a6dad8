// Step-by-step contraction-tree executor — the baseline thread-level
// strategy (§5.1 "previous works optimize on thread-level step by step").
//
// Executes one slicing subtask: leaf tensors have their sliced indices fixed
// to the bits of the subtask assignment, then the tree is contracted in
// postorder, each step as one TTGT (permute + GEMM) against main memory.
// Instrumentation counts flops and the main-memory traffic of every step —
// the numbers the Fig. 12 / Fig. 13 benches feed into the Sunway model.
#pragma once

#include <functional>
#include <vector>

#include "core/slicing.hpp"
#include "device/stats.hpp"
#include "exec/contract.hpp"
#include "tn/contraction_tree.hpp"

namespace ltns::exec {

struct ExecStats {
  double flops = 0;
  double bytes_main = 0;       // tensor reads+writes against main memory
  double permute_elems = 0;
  double gemm_seconds = 0;
  double permute_seconds = 0;
  double memory_seconds = 0;   // gather/scatter & leaf slicing time
  size_t peak_live_elems = 0;  // memory high-water mark
  device::DeviceStats device;  // kernel-call and packing telemetry

  void merge(const ExecStats& o);
  // Folds one contraction's flops, permute and GEMM figures in.
  void add(const ContractStats& cs);
  // Arithmetic intensity (flop per main-memory byte).
  double arithmetic_intensity() const { return bytes_main > 0 ? flops / bytes_main : 0; }
};

// Leaf tensors are provided per *network vertex id* via this accessor.
using LeafProvider = std::function<const Tensor&(tn::VertId)>;

// Executes the subtask of `tree` in which each sliced edge (order of
// `sliced_edges`) is fixed to the corresponding bit of `assignment`.
// Returns the root tensor (scalar if the network is closed). `prec` is the
// GEMM operand precision of every contraction.
Tensor execute_tree(const tn::ContractionTree& tree, const LeafProvider& leaves,
                    const std::vector<int>& sliced_edges, uint64_t assignment,
                    runtime::SliceScheduler* sched = nullptr, ExecStats* stats = nullptr,
                    Precision prec = Precision::kFp32);

// Executes only the subtree rooted at `node` (used to pre-contract branches
// for the fused executor).
Tensor execute_subtree(const tn::ContractionTree& tree, int node, const LeafProvider& leaves,
                       const std::vector<int>& sliced_edges, uint64_t assignment,
                       runtime::SliceScheduler* sched = nullptr, ExecStats* stats = nullptr,
                       Precision prec = Precision::kFp32);

}  // namespace ltns::exec
