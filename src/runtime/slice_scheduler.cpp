#include "runtime/slice_scheduler.hpp"

#include <algorithm>
#include <chrono>

#include "util/timer.hpp"

namespace ltns::runtime {

SliceScheduler::SliceScheduler(int workers) {
  if (workers <= 0) workers = int(std::max(1u, std::thread::hardware_concurrency()));
  deques_ = std::vector<TaskDeque>(size_t(workers));
  threads_.reserve(size_t(workers - 1));
  for (int i = 1; i < workers; ++i) threads_.emplace_back([this, i] { worker_loop(i); });
  // Return only once every helper has started: a thread still starting up
  // may hold allocator locks, and a caller that forks right after
  // construction (exec::run_sharded) would hand the child a locked heap.
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return helpers_started_ == workers - 1; });
}

SliceScheduler::~SliceScheduler() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void SliceScheduler::worker_loop(int id) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++helpers_started_;
  }
  cv_done_.notify_all();
  uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
    }
    participate(id);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--helpers_active_ == 0) cv_done_.notify_one();
    }
  }
}

void SliceScheduler::run_range(int id, TaskRange r) {
  for (uint64_t t = r.lo; t < r.hi; ++t) {
    if (cancelled()) {
      // Drain without executing so the run still terminates exactly.
      cur_stats_->cancelled_delta(r.hi - t);
      remaining_.fetch_sub(r.hi - t, std::memory_order_acq_rel);
      return;
    }
    cur_stats_->running_delta(+1);
    (*body_)(id, t);
    cur_stats_->running_delta(-1);
    cur_stats_->finished_delta(1);
    executed_.fetch_add(1, std::memory_order_relaxed);
    remaining_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

bool SliceScheduler::try_steal(int thief, TaskRange* out) {
  const int nw = size();
  // Scan victims round-robin from the thief's right-hand neighbour; the
  // size hint skips obviously empty deques cheaply.
  for (int d = 1; d < nw; ++d) {
    int victim = (thief + d) % nw;
    if (deques_[size_t(victim)].approx_size() == 0) continue;
    if (deques_[size_t(victim)].steal(out)) return true;
  }
  return false;
}

void SliceScheduler::participate(int id) {
  Timer interval;
  double busy = 0;
  int idle_scans = 0;
  for (;;) {
    TaskRange r;
    if (deques_[size_t(id)].pop(grain_, &r)) {
      idle_scans = 0;
      Timer t;
      run_range(id, r);
      busy += t.seconds();
    } else if (try_steal(id, &r)) {
      idle_scans = 0;
      // Keep only `grain` tasks in hand; park the rest in our own deque so
      // other idle workers can re-steal from it. Only the kept tasks count
      // as stolen — the parked remainder is charged to whoever executes it
      // off this deque, so `stolen` never exceeds `scheduled`.
      if (r.size() > grain_) {
        deques_[size_t(id)].push({r.lo + grain_, r.hi});
        r.hi = r.lo + grain_;
      }
      cur_stats_->stolen_delta(r.size());
      Timer t;
      run_range(id, r);
      busy += t.seconds();
    } else if (remaining_.load(std::memory_order_acquire) == 0) {
      break;
    } else {
      // Out of local and stealable work but tasks are still in flight
      // elsewhere (or a loaded worker is between pops): idle-scan with
      // backoff so a long serial tail doesn't burn the other cores.
      cur_stats_->waiting_delta(+1);
      if (++idle_scans < 16) {
        std::this_thread::yield();
      } else {
        int shift = std::min(idle_scans - 16, 5);  // 50us .. 1.6ms
        std::this_thread::sleep_for(std::chrono::microseconds(50L << shift));
      }
      cur_stats_->waiting_delta(-1);
    }
    if (interval.seconds() > ExecutorStats::tau_seconds) {
      cur_stats_->update_ema_utilization(busy, interval.seconds());
      busy = 0;
      interval.reset();
    }
  }
  if (interval.seconds() > 0) cur_stats_->update_ema_utilization(busy, interval.seconds());
}

uint64_t SliceScheduler::run(uint64_t first_task, uint64_t num_tasks, const TaskFn& body,
                             uint64_t grain, ExecutorStats* stats_sink) {
  if (num_tasks == 0) return 0;
  std::lock_guard<std::mutex> run_lk(run_mu_);

  const int nw = size();
  body_ = &body;
  cur_stats_ = stats_sink != nullptr ? stats_sink : &stats_;
  grain_ = std::max<uint64_t>(1, grain);
  cancel_.store(false, std::memory_order_release);
  executed_.store(0, std::memory_order_relaxed);
  remaining_.store(num_tasks, std::memory_order_release);
  cur_stats_->scheduled_delta(num_tasks);

  // Seed each deque with the shard a static partition would get; stealing
  // erases whatever imbalance the shard boundaries carry.
  const uint64_t per = num_tasks / uint64_t(nw), rem = num_tasks % uint64_t(nw);
  uint64_t lo = first_task;
  for (int w = 0; w < nw; ++w) {
    uint64_t len = per + (uint64_t(w) < rem ? 1 : 0);
    deques_[size_t(w)].push({lo, lo + len});
    lo += len;
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    helpers_active_ = int(threads_.size());
    ++epoch_;
  }
  cv_work_.notify_all();
  participate(0);  // caller is worker 0

  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return helpers_active_ == 0; });
  body_ = nullptr;
  cur_stats_ = &stats_;
  return executed_.load(std::memory_order_relaxed);
}

SliceScheduler& SliceScheduler::global() {
  static SliceScheduler sched;
  return sched;
}

}  // namespace ltns::runtime
