// Work-stealing scheduler for slicing subtasks (the runtime tentpole).
//
// The 2^|S| process-level subtasks are independent but far from uniform:
// secondary slicing makes per-subtask cost vary with the window structure,
// so a static partition leaves workers idle behind the longest chunk. The
// SliceScheduler seeds each worker's TaskDeque with the same contiguous
// shard a static partition would use (shard shape matches the paper's
// per-node task ranges), then lets idle workers steal half of a loaded
// worker's backlog until the range is drained. The `first_task` /
// `num_tasks` window of SliceRunOptions maps directly onto `run`, so a
// multi-process sharding layer can hand each process a shard and reuse the
// same scheduler inside it.
//
// A running task can fork-join through `parallel_for`: the job sits in the
// caller's help slot, and workers idle in the same run claim its indices
// the way they steal deque ranges. So the one worker set covers both
// levels of parallelism — tasks across workers, and a task's secondary
// subtasks / GEMM row panels across whichever workers have no task.
//
// Worker model: `workers-1` persistent threads plus the calling thread
// participating as worker 0, epoch-dispatched so a scheduler can be reused
// across runs (one run at a time). Telemetry lives in an ExecutorStats
// whose counters are cumulative; diff snapshots for per-run numbers.
// `cancel()` flips a flag that makes workers drain their deques without
// executing, so `run` still terminates with an exact accounting:
// finished + cancelled == scheduled, always.
#pragma once

#include <atomic>
#include <chrono>
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
// slice-task index (assignment bits) — or, under parallel_for, the index
// in [0, n).
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

  // Fork-join for a running task: runs body(worker, i) for every i in
  // [0, n) and returns once all are done. The job is published in the
  // calling worker's help slot; the caller claims indices itself, and any
  // worker of this run with no task of its own claims them too — so a run
  // with fewer tasks than workers spreads each task over the idle workers
  // and a full run keeps every task on one worker, with no threshold. The
  // same index never runs twice. Called from a thread that is not running
  // a task of this scheduler, or on a 1-worker scheduler, it runs inline
  // (worker id 0 outside a run). Never takes the run lock; cancel() does
  // not cut it short. An exception from the caller's own indices is
  // rethrown once every helper has left the job.
  void parallel_for(uint64_t n, const TaskFn& body);

  // Cumulative count of parallel_for indices run by a worker other than
  // the caller.
  uint64_t helped() const { return helped_.load(std::memory_order_relaxed); }

  ExecutorStats& stats() { return stats_; }
  const ExecutorStats& stats() const { return stats_; }

  // Process-wide default scheduler (lazily constructed).
  static SliceScheduler& global();

 private:
  void worker_loop(int id);
  // Work/steal until the current run's range is drained; returns tasks run.
  void participate(int id);
  bool try_steal(int thief, TaskRange* out);
  // Joins another worker's in-flight parallel_for; true if it ran an index.
  bool try_help(int id);
  // Idle backoff that a new parallel_for cuts short.
  void idle_wait(uint64_t help_epoch_seen, std::chrono::microseconds d);
  // Executes (or discards, once cancelled) the tasks of `r`.
  void run_range(int id, TaskRange r);

  std::vector<std::thread> threads_;
  std::vector<TaskDeque> deques_;
  ExecutorStats stats_;

  // One fork-join job per worker at most: a worker runs one task (or one
  // helped index) at a time, and a nested parallel_for completes before the
  // body that made it returns.
  struct alignas(64) HelpSlot {
    std::atomic<const TaskFn*> body{nullptr};  // non-null while published
    std::atomic<uint64_t> n{0};
    std::atomic<uint64_t> next{0};    // next index to claim
    std::atomic<uint64_t> done{0};    // indices finished
    std::atomic<int> helpers{0};      // workers inside the job right now
  };
  std::vector<HelpSlot> help_;
  std::atomic<uint64_t> helped_{0};
  // Idle workers sleep on cv_idle_; each parallel_for bumps help_epoch_ and
  // wakes them when any sleeps.
  std::mutex idle_mu_;
  std::condition_variable cv_idle_;
  std::atomic<uint64_t> help_epoch_{0};
  std::atomic<int> sleepers_{0};

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
