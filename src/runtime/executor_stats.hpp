// Executor telemetry for the slice runtime (src/runtime/).
//
// ExecutorStats is the live instrument panel of a SliceScheduler: task
// lifecycle counters (scheduled / running / waiting / stolen / finished /
// cancelled), an EMA of worker utilization, and per-phase PerfEvent timers
// for the three places a slice subtask spends its time — permutation, GEMM
// and the final reduction. All updates are atomic so workers never contend
// on a lock to report; readers take a consistent-enough Snapshot and diff
// two snapshots to get per-run deltas.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "device/stats.hpp"
#include "util/timer.hpp"

namespace ltns::runtime {

// Accumulating phase timer: entry count + total seconds. `add` is a CAS
// loop on the double (C++17 has no fetch_add for atomic<double>), which is
// fine at per-task update granularity. Prefer timing through PerfScope —
// it cannot leave a phase open across an exception, and debug builds
// assert every scope closed before the event is destroyed.
class PerfEvent {
 public:
  void add(double seconds) { add_count(1, seconds); }
  void add_count(uint64_t n, double seconds) {
    count_.fetch_add(n, std::memory_order_relaxed);
    double cur = seconds_.load(std::memory_order_relaxed);
    while (!seconds_.compare_exchange_weak(cur, cur + seconds, std::memory_order_relaxed)) {
    }
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double seconds() const { return seconds_.load(std::memory_order_relaxed); }

#ifndef NDEBUG
  ~PerfEvent() {
    assert(open_scopes_.load(std::memory_order_relaxed) == 0 &&
           "PerfEvent destroyed with a PerfScope still open");
  }
  void scope_opened() { open_scopes_.fetch_add(1, std::memory_order_relaxed); }
  void scope_closed() { open_scopes_.fetch_sub(1, std::memory_order_relaxed); }
#else
  void scope_opened() {}
  void scope_closed() {}
#endif

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<double> seconds_{0.0};
#ifndef NDEBUG
  std::atomic<int64_t> open_scopes_{0};
#endif
};

// RAII guard over a PerfEvent: books the scope's elapsed time on
// destruction, so an exception or cancellation mid-phase can no longer
// leave a timer started. A null event makes the guard a no-op (the common
// "stats are optional" call-site shape).
class PerfScope {
 public:
  explicit PerfScope(PerfEvent* ev) : ev_(ev) {
    if (ev_ != nullptr) ev_->scope_opened();
  }
  PerfScope(const PerfScope&) = delete;
  PerfScope& operator=(const PerfScope&) = delete;
  ~PerfScope() { close(); }
  // Ends the phase early (idempotent).
  void close() {
    if (ev_ == nullptr) return;
    ev_->add(t_.seconds());
    ev_->scope_closed();
    ev_ = nullptr;
  }

 private:
  PerfEvent* ev_;
  Timer t_;
};

struct PerfSnapshot {
  uint64_t count = 0;
  double seconds = 0;
};

// Plain-value snapshot of an ExecutorStats, safe to embed in results.
// Counters are cumulative over the stats object's lifetime; `since` turns
// two snapshots into a per-run delta (gauges keep their end-of-run value).
struct ExecutorSnapshot {
  uint64_t scheduled = 0;
  uint64_t stolen = 0;     // tasks a thief took AND ran directly off a steal
                           // (re-parked remainders count when executed)
  uint64_t finished = 0;
  uint64_t cancelled = 0;  // discarded unexecuted after cancel()
  int running = 0;         // gauge: tasks executing right now
  int waiting = 0;         // gauge: workers idle-scanning for work
  double ema_utilization = 0;  // EMA of busy-fraction across workers, [0, 1]
  // Process-level rebalance counters (elastic shard driver): leases issued
  // off another worker's notional home window, ranges re-issued after a
  // revoke or worker death, and the cumulative time idle workers spent
  // parked waiting on straggler-held ranges. Zero for in-process runs.
  uint64_t ranges_stolen = 0;
  uint64_t ranges_reissued = 0;
  double straggler_wait_seconds = 0;
  // Kernel-call and operand-packing telemetry (packing bytes/ns as
  // to-device traffic, kernel counts). Filled by the slice runner from the
  // run's merged ExecStats.
  device::DeviceStats device;
  PerfSnapshot permute, gemm, reduce, memory;

  ExecutorSnapshot since(const ExecutorSnapshot& begin) const;

  // Folds another run's snapshot into this one: counters, gauges and phase
  // timers add; the utilization EMA becomes a finished-task-weighted
  // average. The multi-process driver uses this to aggregate per-shard
  // telemetry into one cross-process view.
  void merge(const ExecutorSnapshot& o);
};

class ExecutorStats {
 public:
  void scheduled_delta(uint64_t n) { scheduled_.fetch_add(n, std::memory_order_relaxed); }
  void stolen_delta(uint64_t n) { stolen_.fetch_add(n, std::memory_order_relaxed); }
  void finished_delta(uint64_t n) { finished_.fetch_add(n, std::memory_order_relaxed); }
  void cancelled_delta(uint64_t n) { cancelled_.fetch_add(n, std::memory_order_relaxed); }
  void running_delta(int v) { running_.fetch_add(v, std::memory_order_acq_rel); }
  void waiting_delta(int v) { waiting_.fetch_add(v, std::memory_order_acq_rel); }

  uint64_t scheduled() const { return scheduled_.load(std::memory_order_relaxed); }
  uint64_t stolen() const { return stolen_.load(std::memory_order_relaxed); }
  uint64_t finished() const { return finished_.load(std::memory_order_relaxed); }
  uint64_t cancelled() const { return cancelled_.load(std::memory_order_relaxed); }
  int running() const { return running_.load(std::memory_order_relaxed); }
  int waiting() const { return waiting_.load(std::memory_order_relaxed); }

  // Folds one worker's observation of `busy` seconds over `interval`
  // seconds into the utilization EMA with time constant `tau_seconds`.
  void update_ema_utilization(double busy, double interval);
  double ema_utilization() const { return ema_util_.load(std::memory_order_relaxed); }

  ExecutorSnapshot snapshot() const;

  // Per-phase timers; the slice runner feeds permute/gemm/memory from the
  // executors' ExecStats and the ReductionTree feeds `reduce`.
  PerfEvent permute, gemm, reduce, memory;

  static constexpr double tau_seconds = 0.1;

 private:
  std::atomic<uint64_t> scheduled_{0}, stolen_{0}, finished_{0}, cancelled_{0};
  std::atomic<int> running_{0}, waiting_{0};
  std::atomic<double> ema_util_{0.0};
  std::atomic<bool> ema_seeded_{false};
};

}  // namespace ltns::runtime
