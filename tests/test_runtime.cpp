// Work-stealing slice runtime tests. The load-bearing invariants:
//   1. the tournament reduction is bitwise deterministic: accumulated
//      amplitudes are identical across worker counts, steal patterns,
//      fork-join help and completion orders;
//   2. the shard API (first_task/num_tasks) partitions losslessly: shard
//      sums equal the full run;
//   3. stats accounting is exact under contention and cancellation:
//      finished + cancelled == scheduled, no task lost or run twice.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <complex>
#include <cstring>
#include <thread>

#include "core/greedy_slicer.hpp"
#include "exec/slice_runner.hpp"
#include "runtime/reduction.hpp"
#include "runtime/slice_scheduler.hpp"
#include "runtime/task_deque.hpp"
#include "test_helpers.hpp"

namespace ltns::runtime {
namespace {

TEST(TaskDeque, PopRespectsGrain) {
  TaskDeque d;
  d.push({0, 10});
  TaskRange r;
  ASSERT_TRUE(d.pop(3, &r));
  EXPECT_EQ(r.lo, 0u);
  EXPECT_EQ(r.hi, 3u);
  ASSERT_TRUE(d.pop(100, &r));
  EXPECT_EQ(r.lo, 3u);
  EXPECT_EQ(r.hi, 10u);
  EXPECT_FALSE(d.pop(1, &r));
  EXPECT_EQ(d.approx_size(), 0u);
}

TEST(TaskDeque, StealTakesUpperHalf) {
  TaskDeque d;
  d.push({0, 8});
  TaskRange stolen;
  ASSERT_TRUE(d.steal(&stolen));
  EXPECT_EQ(stolen.lo, 4u);
  EXPECT_EQ(stolen.hi, 8u);
  TaskRange own;
  ASSERT_TRUE(d.pop(8, &own));
  EXPECT_EQ(own.lo, 0u);
  EXPECT_EQ(own.hi, 4u);
}

TEST(TaskDeque, StealSingleTaskTakesIt) {
  TaskDeque d;
  d.push({5, 6});
  TaskRange r;
  ASSERT_TRUE(d.steal(&r));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_FALSE(d.steal(&r));
}

exec::Tensor scalar_tensor(double v) { return exec::Tensor::scalar(exec::cfloat(float(v), 0)); }

// The reduction must produce the same bits no matter the completion order.
TEST(ReductionTree, OrderIndependentBitwise) {
  const uint64_t n = 13;  // ragged: exercises empty-sibling promotion
  auto value = [](uint64_t t) { return 1.0 / double(t + 3); };

  ReductionTree fwd(0, n);
  for (uint64_t t = 0; t < n; ++t) fwd.add(t, scalar_tensor(value(t)));
  ASSERT_TRUE(fwd.complete());
  auto a = fwd.take_root();

  ReductionTree rev(0, n);
  for (uint64_t t = n; t-- > 0;) rev.add(t, scalar_tensor(value(t)));
  ASSERT_TRUE(rev.complete());
  auto b = rev.take_root();

  ReductionTree shuffled(0, n);
  for (uint64_t t : {7, 2, 12, 0, 9, 4, 11, 1, 6, 10, 3, 8, 5})
    shuffled.add(uint64_t(t), scalar_tensor(value(uint64_t(t))));
  ASSERT_TRUE(shuffled.complete());
  auto c = shuffled.take_root();

  EXPECT_EQ(std::memcmp(a.raw(), b.raw(), sizeof(exec::cfloat)), 0);
  EXPECT_EQ(std::memcmp(a.raw(), c.raw(), sizeof(exec::cfloat)), 0);
  EXPECT_EQ(fwd.merges(), rev.merges());
}

TEST(ReductionTree, ConcurrentAddsMatchSerial) {
  const uint64_t n = 256;
  auto value = [](uint64_t t) { return std::sin(double(t)) * 1e-2; };
  ReductionTree serial(0, n);
  for (uint64_t t = 0; t < n; ++t) serial.add(t, scalar_tensor(value(t)));
  auto expect = serial.take_root();

  for (int trial = 0; trial < 4; ++trial) {
    ReductionTree tree(0, n);
    std::atomic<uint64_t> next{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w)
      threads.emplace_back([&] {
        uint64_t t;
        while ((t = next.fetch_add(1)) < n) tree.add(t, scalar_tensor(value(t)));
      });
    for (auto& th : threads) th.join();
    ASSERT_TRUE(tree.complete());
    auto got = tree.take_root();
    EXPECT_EQ(std::memcmp(expect.raw(), got.raw(), sizeof(exec::cfloat)), 0) << "trial " << trial;
  }
}

TEST(ReductionTree, SingleTaskAndOffsetWindow) {
  ReductionTree one(42, 1);
  one.add(42, scalar_tensor(7));
  ASSERT_TRUE(one.complete());
  EXPECT_EQ(one.take_root().data()[0], exec::cfloat(7, 0));
  EXPECT_EQ(one.merges(), 0u);

  ReductionTree window(100, 5);
  for (uint64_t t = 100; t < 105; ++t) window.add(t, scalar_tensor(1));
  ASSERT_TRUE(window.complete());
  EXPECT_EQ(window.take_root().data()[0], exec::cfloat(5, 0));
}

TEST(SliceScheduler, RunsEveryTaskExactlyOnce) {
  SliceScheduler sched(4);
  const uint64_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  auto begin = sched.stats().snapshot();
  uint64_t executed = sched.run(0, n, [&](int, uint64_t t) { hits[t].fetch_add(1); });
  EXPECT_EQ(executed, n);
  for (uint64_t t = 0; t < n; ++t) ASSERT_EQ(hits[t].load(), 1) << "task " << t;
  auto delta = sched.stats().snapshot().since(begin);
  EXPECT_EQ(delta.scheduled, n);
  EXPECT_EQ(delta.finished, n);
  EXPECT_EQ(delta.cancelled, 0u);
  EXPECT_EQ(delta.running, 0);
  EXPECT_EQ(delta.waiting, 0);
  EXPECT_GE(delta.ema_utilization, 0.0);
  EXPECT_LE(delta.ema_utilization, 1.0);
}

TEST(SliceScheduler, OffsetShardAndReuse) {
  SliceScheduler sched(2);
  std::atomic<uint64_t> sum{0};
  EXPECT_EQ(sched.run(1000, 64, [&](int, uint64_t t) { sum.fetch_add(t); }), 64u);
  EXPECT_EQ(sum.load(), (1000u + 1063u) * 64 / 2);
  // Reuse across runs: counters keep accumulating.
  auto before = sched.stats().snapshot();
  EXPECT_EQ(sched.run(0, 8, [](int, uint64_t) {}), 8u);
  EXPECT_EQ(sched.stats().snapshot().since(before).finished, 8u);
}

TEST(SliceScheduler, StealsFromSkewedShard) {
  SliceScheduler sched(4);
  const uint64_t n = 16;
  // The seed gives worker 0 tasks [0, 4); make exactly those slow so the
  // other workers drain their shards and come stealing.
  auto begin = sched.stats().snapshot();
  sched.run(0, n, [&](int, uint64_t t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(t < 4 ? 40 : 1));
  });
  auto delta = sched.stats().snapshot().since(begin);
  EXPECT_EQ(delta.finished, n);
  EXPECT_GT(delta.stolen, 0u);
  EXPECT_LE(delta.stolen, n);  // kept-tasks accounting never over-counts
}

TEST(SliceScheduler, CancellationDrainsExactly) {
  SliceScheduler sched(2);
  const uint64_t n = 1000;
  auto begin = sched.stats().snapshot();
  std::atomic<uint64_t> ran{0};
  uint64_t executed = sched.run(0, n, [&](int, uint64_t) {
    ran.fetch_add(1);
    sched.cancel();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  auto delta = sched.stats().snapshot().since(begin);
  EXPECT_EQ(executed, ran.load());
  EXPECT_LT(executed, n);  // the drain discarded the bulk of the range
  EXPECT_EQ(delta.finished, executed);
  EXPECT_EQ(delta.finished + delta.cancelled, n);  // nothing lost
  // A later run on the same scheduler starts with a cleared flag.
  EXPECT_EQ(sched.run(0, 4, [](int, uint64_t) {}), 4u);
}

// --- fork-join inside a task (parallel_for) --------------------------------

TEST(SliceScheduler, ParallelForInOneTaskRunIsHelped) {
  SliceScheduler sched(4);
  const uint64_t n = 64;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  std::atomic<bool> other_ran{false};
  const uint64_t helped_before = sched.helped();
  auto begin = sched.stats().snapshot();
  sched.run(0, 1, [&](int owner, uint64_t) {
    std::atomic<bool> owner_waited{false};
    sched.parallel_for(n, [&](int w, uint64_t i) {
      hits[i].fetch_add(1);
      if (w != owner) {
        other_ran = true;
      } else if (!owner_waited.exchange(true)) {
        // Hold the owner on its first index: the remaining indices can then
        // only progress through the idle workers.
        auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!other_ran && std::chrono::steady_clock::now() < deadline)
          std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  });
  for (uint64_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  EXPECT_TRUE(other_ran.load());
  EXPECT_GT(sched.helped(), helped_before);
  auto delta = sched.stats().snapshot().since(begin);
  EXPECT_EQ(delta.finished, 1u);  // helped indices are not tasks
  EXPECT_EQ(delta.running, 0);
  EXPECT_EQ(delta.waiting, 0);
}

TEST(SliceScheduler, ConcurrentParallelForsFromManyTasks) {
  SliceScheduler sched(4);
  const uint64_t tasks = 24, n = 257;
  std::vector<std::atomic<int>> hits(tasks * n);
  for (auto& h : hits) h.store(0);
  std::vector<uint64_t> sums(tasks, 0);
  EXPECT_EQ(sched.run(0, tasks,
                      [&](int, uint64_t t) {
                        std::atomic<uint64_t> sum{0};
                        sched.parallel_for(n, [&](int w, uint64_t i) {
                          EXPECT_GE(w, 0);
                          EXPECT_LT(w, sched.size());
                          hits[t * n + i].fetch_add(1);
                          sum.fetch_add(i);
                          if (i % 64 == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
                        });
                        sums[t] = sum.load();  // every index is done on return
                      }),
            tasks);
  for (uint64_t k = 0; k < tasks * n; ++k) ASSERT_EQ(hits[k].load(), 1) << "slot " << k;
  for (uint64_t t = 0; t < tasks; ++t) EXPECT_EQ(sums[t], n * (n - 1) / 2) << "task " << t;
}

TEST(SliceScheduler, CancelWhileParallelForInFlight) {
  SliceScheduler sched(4);
  const uint64_t tasks = 64, n = 100;
  std::vector<std::atomic<int>> hits(tasks * n);
  for (auto& h : hits) h.store(0);
  auto begin = sched.stats().snapshot();
  const uint64_t executed = sched.run(0, tasks, [&](int, uint64_t t) {
    sched.parallel_for(n, [&](int, uint64_t i) {
      hits[t * n + i].fetch_add(1);
      if (i == n / 2) sched.cancel();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
  });
  auto delta = sched.stats().snapshot().since(begin);
  EXPECT_LT(executed, tasks);
  EXPECT_EQ(delta.finished, executed);
  EXPECT_EQ(delta.finished + delta.cancelled, tasks);
  // cancel() stops tasks, never a fork-join half way: a task that started
  // ran every index once, a discarded one ran none.
  uint64_t started = 0;
  for (uint64_t t = 0; t < tasks; ++t) {
    const int first = hits[t * n].load();
    started += uint64_t(first);
    for (uint64_t i = 0; i < n; ++i) ASSERT_EQ(hits[t * n + i].load(), first) << t << "/" << i;
  }
  EXPECT_EQ(started, executed);
}

TEST(SliceScheduler, ParallelForOutsideARunIsInline) {
  SliceScheduler sched(4);
  std::vector<uint64_t> order;
  std::vector<int> ids;
  const auto caller = std::this_thread::get_id();
  bool same_thread = true;
  sched.parallel_for(10, [&](int w, uint64_t i) {
    order.push_back(i);
    ids.push_back(w);
    same_thread = same_thread && std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(same_thread);
  EXPECT_EQ(order, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(ids, std::vector<int>(10, 0));
  sched.parallel_for(0, [&](int, uint64_t) { ADD_FAILURE() << "empty range ran"; });
  EXPECT_EQ(sched.helped(), 0u);

  // A task of another scheduler, and a 1-worker scheduler's own task, run
  // the fork-join inline as well.
  SliceScheduler one(1);
  std::atomic<int> ran{0};
  one.run(0, 2, [&](int, uint64_t) {
    sched.parallel_for(8, [&](int w, uint64_t) { ran += w == 0 ? 1 : 100; });
    one.parallel_for(8, [&](int w, uint64_t) { ran += w == 0 ? 1 : 100; });
  });
  EXPECT_EQ(ran.load(), 32);
  EXPECT_EQ(sched.helped(), 0u);
  EXPECT_EQ(one.helped(), 0u);
}

// --- run_sliced integration -------------------------------------------------

struct SlicedFixture {
  circuit::LoweredNetwork ln;
  std::shared_ptr<tn::ContractionTree> tree;
  core::SliceSet slices;

  exec::LeafProvider leaves() const {
    return [this](tn::VertId v) -> const exec::Tensor& { return ln.tensors[size_t(v)]; };
  }
};

SlicedFixture make_sliced_fixture(int min_slices = 3) {
  SlicedFixture f{test::small_network(3, 4, 6), nullptr, core::SliceSet{}};
  f.tree = std::make_shared<tn::ContractionTree>(test::greedy_tree(f.ln.net));
  core::GreedySlicerOptions go;
  go.target_log2size = std::max(2.0, f.tree->max_log2size() - double(min_slices));
  f.slices = core::greedy_slice(*f.tree, go);
  return f;
}

using test::bitwise_equal;

TEST(RunSliced, BitStableAcrossWorkerCounts) {
  auto f = make_sliced_fixture();
  ASSERT_GE(f.slices.size(), 2);

  SliceScheduler one(1);
  exec::SliceRunOptions serial;
  serial.scheduler = &one;
  auto ref = run_sliced(*f.tree, f.leaves(), f.slices, serial);
  ASSERT_EQ(ref.tasks_run, uint64_t(1) << f.slices.size());

  for (int workers : {2, 3, 4}) {
    SliceScheduler sched(workers);
    exec::SliceRunOptions ws;
    ws.scheduler = &sched;
    auto rw = run_sliced(*f.tree, f.leaves(), f.slices, ws);
    EXPECT_EQ(rw.tasks_run, ref.tasks_run);
    EXPECT_TRUE(bitwise_equal(ref.accumulated, rw.accumulated))
        << "work stealing diverged at " << workers << " workers";
  }
}

TEST(RunSliced, FusedBitStableUnderWorkStealing) {
  auto f = make_sliced_fixture();
  auto stem = tn::extract_stem(*f.tree);
  auto plan = exec::plan_fused(stem, f.slices.to_vector(), 1 << 12);

  SliceScheduler one(1);
  exec::SliceRunOptions serial;
  serial.scheduler = &one;
  serial.fused = &plan;
  auto ref = run_sliced(*f.tree, f.leaves(), f.slices, serial);

  SliceScheduler sched(4);
  exec::SliceRunOptions ws;
  ws.scheduler = &sched;
  ws.fused = &plan;
  auto rw = run_sliced(*f.tree, f.leaves(), f.slices, ws);
  EXPECT_TRUE(bitwise_equal(ref.accumulated, rw.accumulated));
  EXPECT_GT(rw.memory.ldm_subtasks, 0u);
  EXPECT_GT(rw.memory.scratch_bytes(), 0.0);
}

TEST(RunSliced, OneTaskFusedRunSpreadsOverIdleWorkers) {
  // Unsliced: the whole contraction is one task, and three of four workers
  // have nothing to do but help with its windows' secondary subtasks.
  SlicedFixture f{test::small_network(4, 4, 8), nullptr, core::SliceSet{}};
  f.tree = std::make_shared<tn::ContractionTree>(test::greedy_tree(f.ln.net));
  auto stem = tn::extract_stem(*f.tree);
  auto plan = exec::plan_fused(stem, {}, 1 << 10);

  SliceScheduler one(1);
  exec::SliceRunOptions ro;
  ro.fused = &plan;
  ro.scheduler = &one;
  auto ref = run_sliced(*f.tree, f.leaves(), f.slices, ro);
  ASSERT_EQ(ref.tasks_run, 1u);
  ASSERT_GT(ref.memory.ldm_subtasks, 100u);

  SliceScheduler four(4);
  ro.scheduler = &four;
  // The helpers must wake within the task's lifetime; retry a few times
  // so a descheduled helper on a loaded host does not read as a failure.
  for (int attempt = 0; attempt < 20 && four.helped() == 0; ++attempt) {
    auto r = run_sliced(*f.tree, f.leaves(), f.slices, ro);
    ASSERT_TRUE(bitwise_equal(ref.accumulated, r.accumulated)) << "attempt " << attempt;
    EXPECT_EQ(r.memory.ldm_subtasks, ref.memory.ldm_subtasks);
  }
  EXPECT_GT(four.helped(), 0u) << "no idle worker ran a secondary subtask";
}

TEST(RunSliced, ShardsPartitionTheFullRun) {
  auto f = make_sliced_fixture();
  const uint64_t all = uint64_t(1) << f.slices.size();

  SliceScheduler sched(2);
  exec::SliceRunOptions base;
  base.scheduler = &sched;
  auto full = run_sliced(*f.tree, f.leaves(), f.slices, base);

  // Uneven three-way split, like three processes sharding one slice range.
  const uint64_t cuts[4] = {0, all / 3, all / 3 + all / 5 + 1, all};
  std::complex<double> sum{0, 0};
  uint64_t tasks = 0;
  for (int s = 0; s < 3; ++s) {
    exec::SliceRunOptions shard = base;
    shard.first_task = cuts[s];
    shard.num_tasks = cuts[s + 1] - cuts[s];
    auto r = run_sliced(*f.tree, f.leaves(), f.slices, shard);
    EXPECT_EQ(r.tasks_run, shard.num_tasks);
    EXPECT_EQ(r.executor_stats.finished, shard.num_tasks);
    sum += std::complex<double>(r.accumulated.data()[0]);
    tasks += r.tasks_run;
  }
  EXPECT_EQ(tasks, all);
  std::complex<double> whole(full.accumulated.data()[0]);
  EXPECT_NEAR(std::abs(sum - whole), 0.0, 1e-5 * std::max(1.0, std::abs(whole)));
}

// Regression: out-of-range shard windows used to slip past a release-build
// assert and schedule nonexistent tasks; they are clamped to [0, 2^|S|) now.
TEST(RunSliced, WindowClampedToTaskRange) {
  auto f = make_sliced_fixture();
  const uint64_t all = uint64_t(1) << f.slices.size();

  SliceScheduler sched(2);
  exec::SliceRunOptions base;
  base.scheduler = &sched;
  auto full = run_sliced(*f.tree, f.leaves(), f.slices, base);
  ASSERT_TRUE(full.completed);

  // first_task past the end: nothing to run, still a completed (empty) run.
  exec::SliceRunOptions past = base;
  past.first_task = all + 5;
  past.num_tasks = 3;
  auto rp = run_sliced(*f.tree, f.leaves(), f.slices, past);
  EXPECT_TRUE(rp.completed);
  EXPECT_EQ(rp.tasks_run, 0u);
  EXPECT_EQ(rp.executor_stats.scheduled, 0u);
  EXPECT_EQ(rp.accumulated.size(), 0u);

  // num_tasks overflowing the range: clamped to the remainder.
  exec::SliceRunOptions over = base;
  over.first_task = all - 2;
  over.num_tasks = 100;
  auto ro = run_sliced(*f.tree, f.leaves(), f.slices, over);
  EXPECT_TRUE(ro.completed);
  EXPECT_EQ(ro.tasks_run, 2u);

  // num_tasks = 0 with a nonzero first_task: everything from first_task on.
  exec::SliceRunOptions tail = base;
  tail.first_task = all / 2;
  tail.num_tasks = 0;
  auto rt = run_sliced(*f.tree, f.leaves(), f.slices, tail);
  EXPECT_TRUE(rt.completed);
  EXPECT_EQ(rt.tasks_run, all - all / 2);

  // The clamped tail plus the head still sum to the full run (the windows
  // partition, so this pins that clamping kept the window semantics).
  exec::SliceRunOptions head = base;
  head.first_task = 0;
  head.num_tasks = all / 2;
  auto rh = run_sliced(*f.tree, f.leaves(), f.slices, head);
  std::complex<double> sum = std::complex<double>(rh.accumulated.data()[0]) +
                             std::complex<double>(rt.accumulated.data()[0]);
  std::complex<double> whole(full.accumulated.data()[0]);
  EXPECT_NEAR(std::abs(sum - whole), 0.0, 1e-5 * std::max(1.0, std::abs(whole)));
}

TEST(RunSliced, StatsInvariantsUnderContention) {
  auto f = make_sliced_fixture();
  const uint64_t all = uint64_t(1) << f.slices.size();
  SliceScheduler sched(8);  // oversubscribed on purpose
  exec::SliceRunOptions ws;
  ws.scheduler = &sched;
  auto r = run_sliced(*f.tree, f.leaves(), f.slices, ws);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.tasks_run, all);
  EXPECT_EQ(r.executor_stats.scheduled, all);
  EXPECT_EQ(r.executor_stats.finished, all);
  EXPECT_EQ(r.executor_stats.cancelled, 0u);
  EXPECT_EQ(r.executor_stats.running, 0);
  EXPECT_EQ(r.executor_stats.waiting, 0);
  // Tournament over n leaves performs exactly n-1 merges.
  EXPECT_EQ(r.reduce_merges, all - 1);
  EXPECT_EQ(r.executor_stats.reduce.count, all - 1);
  EXPECT_GT(r.executor_stats.gemm.count, 0u);
  EXPECT_GT(r.stats.flops, 0.0);
  EXPECT_GT(r.memory.main_bytes, 0.0);
}

}  // namespace
}  // namespace ltns::runtime
