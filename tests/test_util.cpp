// RNG, fork-join and timer tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <set>

#include "exec/gemm.hpp"
#include "runtime/slice_scheduler.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace ltns {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(6);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NormalHasReasonableMoments) {
  Rng rng(8);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.next_normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

// The scheduler's fork-join (SliceScheduler::parallel_for) and the GEMM row
// split built on it, called from inside a 1-task run so idle workers help.
using test::in_one_task;

TEST(ForkJoin, ParallelForCoversRangeExactlyOnce) {
  runtime::SliceScheduler sched(4);
  std::vector<std::atomic<int>> hits(1000);
  in_one_task(sched, [&] { sched.parallel_for(1000, [&](int, uint64_t i) { hits[i]++; }); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ForkJoin, RowPanelsPartitionRange) {
  runtime::SliceScheduler sched(3);
  std::mutex mu;
  std::vector<std::pair<int, int>> panels;
  // 100 x 64 x 64 is past the split threshold.
  in_one_task(sched, [&] {
    exec::for_row_panels(&sched, 100, 64, 64, [&](int, int b, int e) {
      std::lock_guard<std::mutex> lk(mu);
      panels.emplace_back(b, e);
    });
  });
  EXPECT_EQ(panels.size(), 3u);
  std::sort(panels.begin(), panels.end());
  int expect = 0;
  for (auto [b, e] : panels) {
    EXPECT_EQ(b, expect);
    EXPECT_GT(e, b);
    expect = e;
  }
  EXPECT_EQ(expect, 100);
}

TEST(ForkJoin, WorkerIdsWithinBounds) {
  runtime::SliceScheduler sched(5);
  std::atomic<bool> ok{true};
  in_one_task(sched, [&] {
    sched.parallel_for(64, [&](int w, uint64_t) {
      if (w < 0 || w >= sched.size()) ok = false;
    });
  });
  EXPECT_TRUE(ok.load());
}

TEST(ForkJoin, EmptyRangeIsNoop) {
  runtime::SliceScheduler sched(2);
  bool called = false;
  in_one_task(sched, [&] { sched.parallel_for(0, [&](int, uint64_t) { called = true; }); });
  EXPECT_FALSE(called);
}

TEST(ForkJoin, ReusableAcrossManyCalls) {
  runtime::SliceScheduler sched(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> sum{0};
    in_one_task(sched, [&] { sched.parallel_for(100, [&](int, uint64_t i) { sum += long(i); }); });
    EXPECT_EQ(sum.load(), 4950);
  }
  // ...and many calls within one task.
  std::atomic<long> sum{0};
  in_one_task(sched, [&] {
    for (int round = 0; round < 50; ++round)
      sched.parallel_for(100, [&](int, uint64_t i) { sum += long(i); });
  });
  EXPECT_EQ(sum.load(), 50 * 4950);
}

TEST(ForkJoin, SingleWorkerStillWorks) {
  runtime::SliceScheduler sched(1);
  std::vector<int> hits(10, 0);
  in_one_task(sched, [&] { sched.parallel_for(10, [&](int, uint64_t i) { hits[i]++; }); });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(Timer, MeasuresNonNegativeTime) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 10000; ++i) x += i;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.millis(), 0.0);
}

TEST(Stopwatch, AccumulatesAcrossStartStop) {
  Stopwatch w;
  w.start();
  w.stop();
  double t1 = w.total_seconds();
  w.start();
  w.stop();
  EXPECT_GE(w.total_seconds(), t1);
  w.clear();
  EXPECT_EQ(w.total_seconds(), 0.0);
}

}  // namespace
}  // namespace ltns
