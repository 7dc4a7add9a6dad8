#include "exec/slice_runner.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/reduction.hpp"
#include "util/timer.hpp"

namespace ltns::exec {

namespace {

// Per-worker accumulation slot; padded so workers never share a cache line.
struct alignas(64) WorkerPartial {
  ExecStats exec;
  runtime::MemoryStats memory;
};

}  // namespace

SliceRunResult run_sliced(const tn::ContractionTree& tree, const LeafProvider& leaves,
                          const core::SliceSet& slices, const SliceRunOptions& opt) {
  auto sliced = slices.to_vector();
  assert(sliced.size() < 57);
  const uint64_t all = uint64_t(1) << sliced.size();
  // Clamp the shard window to [0, 2^|S|): an out-of-range first_task runs
  // nothing (completed, empty tensor) and an overflowing num_tasks runs the
  // remainder of the range — never tasks that don't exist. Multi-process
  // shard plans are computed from 2^|S|, but a hand-written window (CLI,
  // bench, a stale plan) must not silently schedule nonsense.
  const uint64_t first = std::min(opt.first_task, all);
  const uint64_t count = opt.num_tasks == 0 ? all - first : std::min(opt.num_tasks, all - first);

  runtime::SliceScheduler* sched =
      opt.scheduler != nullptr ? opt.scheduler : &runtime::SliceScheduler::global();

  // Run-local telemetry sink: the scheduler routes its counters here, so
  // concurrent runs sharing a scheduler never mix their numbers.
  runtime::ExecutorStats xstats;

  std::vector<WorkerPartial> partial;
  partial.resize(size_t(sched->size()));
  runtime::ReductionTree reduction(first, count, &xstats.reduce);

  auto run_task = [&](int worker, uint64_t t) {
    obs::TraceScope tr(obs::EventKind::kSlice, t);
    WorkerPartial& mine = partial[size_t(worker)];
    Tensor r;
    if (opt.fused != nullptr) {
      FusedStats fs;
      r = execute_fused(*opt.fused, leaves, t, sched, &fs, opt.precision);
      mine.exec.merge(fs.exec);
      mine.memory.scratch_bytes_get += fs.dma.bytes_get;
      mine.memory.scratch_bytes_put += fs.dma.bytes_put;
      mine.memory.rma_bytes += fs.dma.rma_bytes;
      mine.memory.ldm_subtasks += fs.ldm_subtasks;
      mine.memory.ldm_peak_elems = std::max(mine.memory.ldm_peak_elems, fs.ldm_peak_elems);
      mine.memory.main_bytes += fs.exec.bytes_main;
      mine.memory.host_peak_elems =
          std::max(mine.memory.host_peak_elems, fs.exec.peak_live_elems);
      xstats.permute.add(fs.exec.permute_seconds);
      xstats.gemm.add(fs.exec.gemm_seconds);
      xstats.memory.add(fs.exec.memory_seconds);
    } else {
      ExecStats es;
      r = execute_tree(tree, leaves, sliced, t, sched, &es, opt.precision);
      mine.exec.merge(es);
      mine.memory.main_bytes += es.bytes_main;
      mine.memory.host_peak_elems = std::max(mine.memory.host_peak_elems, es.peak_live_elems);
      xstats.permute.add(es.permute_seconds);
      xstats.gemm.add(es.gemm_seconds);
      xstats.memory.add(es.memory_seconds);
    }
    reduction.add(t, std::move(r));
  };

  SliceRunResult res;
  Timer wall;
  res.tasks_run = sched->run(first, count, run_task, opt.grain, &xstats);
  res.wall_seconds = wall.seconds();

  for (const auto& p : partial) {
    res.stats.merge(p.exec);
    res.memory.merge(p.memory);
  }
  res.executor_stats = xstats.snapshot();
  // Kernel-call/packing telemetry rides the snapshot so every existing
  // aggregation path (shard telemetry, API results, CLI) carries it.
  res.executor_stats.device = res.stats.device;
  res.reduce_merges = reduction.merges();
  // A cancelled run never completes its tournament: `accumulated` then stays
  // the default empty tensor and `completed` stays false.
  res.completed = reduction.complete();
  if (res.completed) res.accumulated = reduction.take_root();
  return res;
}

}  // namespace ltns::exec
