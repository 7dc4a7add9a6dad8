// Work-stealing scheduler for slicing subtasks (the runtime tentpole).
//
// The 2^|S| process-level subtasks are independent but far from uniform:
// secondary slicing makes per-subtask cost vary with the window structure,
// so the static-partition ThreadPool leaves workers idle behind the longest
// chunk. The SliceScheduler seeds each worker's TaskDeque with the same
// contiguous shard a static partition would use (shard shape matches the
// paper's per-node task ranges), then lets idle workers steal half of a
// loaded worker's backlog until the range is drained. The `first_task` /
// `num_tasks` window of SliceRunOptions maps directly onto `run`, so a
// multi-process sharding layer can hand each process a shard and reuse the
// same scheduler inside it.
//
// Worker model mirrors ThreadPool: `workers-1` persistent threads plus the
// calling thread participating as worker 0, epoch-dispatched so a scheduler
// can be reused across runs (one run at a time). Telemetry lives in an
// ExecutorStats whose counters are cumulative; diff snapshots for per-run
// numbers. `cancel()` flips a flag that makes workers drain their deques
// without executing, so `run` still terminates with an exact accounting:
// finished + cancelled == scheduled, always.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/executor_stats.hpp"
#include "runtime/task_deque.hpp"

namespace ltns::runtime {

// body(worker_id, task): worker_id in [0, size()), task is the absolute
// slice-task index (assignment bits).
using TaskFn = std::function<void(int, uint64_t)>;

class SliceScheduler {
 public:
  // `workers` = 0 picks hardware_concurrency (at least 1).
  explicit SliceScheduler(int workers = 0);
  ~SliceScheduler();

  SliceScheduler(const SliceScheduler&) = delete;
  SliceScheduler& operator=(const SliceScheduler&) = delete;

  int size() const { return int(threads_.size()) + 1; }  // +1: caller participates

  // Runs body(worker, t) for every t in [first_task, first_task+num_tasks),
  // dynamically chunked by `grain` tasks per deque pop. Blocks until the
  // range is drained; returns the number of tasks actually executed (less
  // than num_tasks only if cancel() fired mid-run). When `stats_sink` is
  // given, this run's telemetry goes there instead of the scheduler's
  // cumulative stats() — callers sharing a scheduler get per-run numbers
  // without racing on the shared counters.
  uint64_t run(uint64_t first_task, uint64_t num_tasks, const TaskFn& body, uint64_t grain = 1,
               ExecutorStats* stats_sink = nullptr);

  // Makes in-flight and future tasks of the current run be discarded; the
  // running run still returns promptly with an exact finished/cancelled
  // split. Cleared on the next run().
  void cancel() { cancel_.store(true, std::memory_order_release); }
  bool cancelled() const { return cancel_.load(std::memory_order_acquire); }

  ExecutorStats& stats() { return stats_; }
  const ExecutorStats& stats() const { return stats_; }

  // Process-wide default scheduler (lazily constructed).
  static SliceScheduler& global();

 private:
  void worker_loop(int id);
  // Work/steal until the current run's range is drained; returns tasks run.
  void participate(int id);
  bool try_steal(int thief, TaskRange* out);
  // Executes (or discards, once cancelled) the tasks of `r`.
  void run_range(int id, TaskRange r);

  std::vector<std::thread> threads_;
  std::vector<TaskDeque> deques_;
  ExecutorStats stats_;

  // Epoch dispatch (one run at a time; run_mu_ serializes callers).
  std::mutex run_mu_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  uint64_t epoch_ = 0;
  int helpers_active_ = 0;
  int helpers_started_ = 0;  // helpers that reached worker_loop
  bool stop_ = false;

  // Current run state.
  const TaskFn* body_ = nullptr;
  ExecutorStats* cur_stats_ = &stats_;  // this run's telemetry sink
  uint64_t grain_ = 1;
  std::atomic<uint64_t> remaining_{0};  // tasks not yet executed or discarded
  std::atomic<uint64_t> executed_{0};
  std::atomic<bool> cancel_{false};
};

}  // namespace ltns::runtime
