// Slice runner: the process-level loop over slicing subtasks (§2.1.1).
//
// The 2^|S| subtasks are independent; each computes the same (shrunken)
// contraction tree with its sliced indices fixed, and the results are
// summed — the paper's single allReduce at the end of the program. With
// open output edges the per-subtask results are elementwise-added tensors
// (a batch of correlated amplitudes).
//
// The runtime::SliceScheduler distributes the subtasks: each worker's deque
// is seeded with a static partition's shard, and idle workers steal half a
// loaded worker's backlog, so skewed per-subtask costs do not serialize
// the run. The same workers run the fork-join inside a subtask (a fused
// window's secondary subtasks, main-memory GEMM row panels) whenever they
// have no task of their own, so a run with fewer tasks than workers still
// keeps them busy. Results accumulate through runtime::ReductionTree, a
// fixed tournament over task indices, so the summed tensor is bitwise
// identical across worker counts and steal patterns.
#pragma once

#include <cstdint>

#include "exec/fused_executor.hpp"
#include "exec/tree_executor.hpp"
#include "runtime/executor_stats.hpp"
#include "runtime/memory_stats.hpp"
#include "runtime/slice_scheduler.hpp"

namespace ltns::exec {

struct SliceRunOptions {
  // Run only assignments [first_task, first_task + num_tasks); num_tasks = 0
  // means everything from first_task to 2^|S|. Benches and multi-process
  // shards use a subset, exactly like the paper measures 1024 nodes and
  // projects the full machine. The window is clamped to [0, 2^|S|): a
  // first_task past the end runs zero tasks (completed, empty accumulated
  // tensor) and an overflowing num_tasks runs only the remaining range.
  uint64_t first_task = 0;
  uint64_t num_tasks = 0;
  // When set, each subtask runs through the fused (secondary-slicing)
  // executor over the stem instead of step-by-step.
  const FusedPlan* fused = nullptr;
  runtime::SliceScheduler* scheduler = nullptr;  // null -> global
  uint64_t grain = 1;  // tasks per deque pop
  // GEMM operand precision of every contraction (exec/simd_kernels.hpp).
  Precision precision = Precision::kFp32;
};

struct SliceRunResult {
  // Sum over the subtasks in tournament order; EMPTY (size 0) when the run
  // was cancelled before every subtask finished (completed == false).
  Tensor accumulated;
  bool completed = false;
  uint64_t tasks_run = 0;
  ExecStats stats;         // merged over subtasks
  double wall_seconds = 0;
  runtime::ExecutorSnapshot executor_stats;  // this run only
  runtime::MemoryStats memory;
  uint64_t reduce_merges = 0;
};

SliceRunResult run_sliced(const tn::ContractionTree& tree, const LeafProvider& leaves,
                          const core::SliceSet& slices, const SliceRunOptions& opt = {});

}  // namespace ltns::exec
