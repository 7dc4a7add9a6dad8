// Tree executor, slice runner and fused (secondary slicing) executor tests.
// The load-bearing invariants:
//   1. sliced execution summed over all subtasks == unsliced execution;
//   2. fused execution == step-by-step execution;
//   3. the fused executor respects the LDM capacity;
//   4. TNC amplitudes match the statevector simulator (see
//      test_integration.cpp for the full pipeline version).
#include <gtest/gtest.h>

#include "core/greedy_slicer.hpp"
#include "core/slice_finder.hpp"
#include "exec/fused_executor.hpp"
#include "exec/slice_runner.hpp"
#include "exec/tree_executor.hpp"
#include "test_helpers.hpp"

namespace ltns::exec {
namespace {

struct Fixture {
  circuit::LoweredNetwork ln;
  std::shared_ptr<tn::ContractionTree> tree;
  tn::Stem stem;

  LeafProvider leaves() const {
    return [this](tn::VertId v) -> const Tensor& { return ln.tensors[size_t(v)]; };
  }
};

Fixture make_fixture(int rows, int cols, int cycles, uint64_t seed = 42) {
  Fixture f{test::small_network(rows, cols, cycles, seed), nullptr, {}};
  f.tree = std::make_shared<tn::ContractionTree>(test::greedy_tree(f.ln.net, seed));
  f.stem = tn::extract_stem(*f.tree);
  return f;
}

TEST(TreeExecutor, ClosedNetworkYieldsScalar) {
  auto f = make_fixture(3, 3, 4);
  auto r = execute_tree(*f.tree, f.leaves(), {}, 0);
  EXPECT_EQ(r.rank(), 0);
  EXPECT_TRUE(std::isfinite(r.data()[0].real()));
}

TEST(TreeExecutor, StatsPopulated) {
  auto f = make_fixture(3, 3, 4);
  ExecStats st;
  execute_tree(*f.tree, f.leaves(), {}, 0, nullptr, &st);
  EXPECT_GT(st.flops, 0.0);
  EXPECT_GT(st.bytes_main, 0.0);
  EXPECT_GT(st.peak_live_elems, 0u);
}

TEST(TreeExecutor, SlicedSubtasksSumToUnsliced) {
  auto f = make_fixture(3, 3, 6);
  auto full = execute_tree(*f.tree, f.leaves(), {}, 0);

  core::GreedySlicerOptions go;
  go.target_log2size = std::max(2.0, f.tree->max_log2size() - 2);
  auto S = core::greedy_slice(*f.tree, go);
  ASSERT_GT(S.size(), 0);

  auto rr = run_sliced(*f.tree, f.leaves(), S);
  EXPECT_EQ(rr.tasks_run, uint64_t(1) << S.size());
  EXPECT_NEAR(std::abs(std::complex<double>(rr.accumulated.data()[0]) -
                       std::complex<double>(full.data()[0])),
              0.0, 1e-3 * std::max(1.0, double(std::abs(full.data()[0]))));
}

TEST(TreeExecutor, EachSubtaskIndependentOfOrder) {
  auto f = make_fixture(3, 3, 5);
  core::SliceSet S(f.ln.net);
  // Slice two stem edges.
  auto lt = core::StemLifetimes::build(f.stem);
  int added = 0;
  for (int e : f.ln.net.alive_edges()) {
    if (lt.of(e).alive() && lt.of(e).length() >= 2) {
      S.add(e);
      if (++added == 2) break;
    }
  }
  ASSERT_EQ(added, 2);
  auto sliced = S.to_vector();
  // Sum in forward and reverse order agree.
  std::complex<double> fwd{0, 0}, rev{0, 0};
  for (uint64_t t = 0; t < 4; ++t)
    fwd += std::complex<double>(execute_tree(*f.tree, f.leaves(), sliced, t).data()[0]);
  for (uint64_t t = 4; t-- > 0;)
    rev += std::complex<double>(execute_tree(*f.tree, f.leaves(), sliced, t).data()[0]);
  EXPECT_NEAR(std::abs(fwd - rev), 0.0, 1e-5);
}

TEST(SliceRunner, SubsetOfTasksRunsRequestedCount) {
  auto f = make_fixture(3, 3, 6);
  core::GreedySlicerOptions go;
  go.target_log2size = std::max(2.0, f.tree->max_log2size() - 2);
  auto S = core::greedy_slice(*f.tree, go);
  SliceRunOptions opt;
  opt.first_task = 1;
  opt.num_tasks = 2;
  auto rr = run_sliced(*f.tree, f.leaves(), S, opt);
  EXPECT_EQ(rr.tasks_run, 2u);
  EXPECT_GT(rr.stats.flops, 0.0);
}

TEST(FusedPlan, CoversEveryStemStepExactlyOnce) {
  auto f = make_fixture(4, 4, 8);
  auto plan = plan_fused(f.stem, {}, 1 << 13);
  int expect_begin = 0;
  for (const auto& w : plan.windows) {
    EXPECT_EQ(w.begin_step, expect_begin);
    EXPECT_GT(w.end_step, w.begin_step);
    expect_begin = w.end_step;
  }
  EXPECT_EQ(expect_begin, f.stem.length() - 1);
}

TEST(FusedPlan, RespectsLdmCapacityAtPlanTime) {
  auto f = make_fixture(4, 4, 8);
  const size_t cap = 1 << 10;
  auto plan = plan_fused(f.stem, {}, cap);
  for (const auto& w : plan.windows) {
    if (w.in_ldm) {
      EXPECT_LE(w.ldm_peak_elems, cap);
    }
  }
}

TEST(FusedPlan, BiggerLdmFusesLongerWindows) {
  auto f = make_fixture(4, 4, 8);
  auto small = plan_fused(f.stem, {}, 1 << 8);
  auto big = plan_fused(f.stem, {}, 1 << 16);
  EXPECT_LE(big.windows.size(), small.windows.size());
  EXPECT_GE(big.average_fused_length(), small.average_fused_length());
}

TEST(FusedExecutor, MatchesStepwiseUnsliced) {
  auto f = make_fixture(3, 4, 6);
  auto plan = plan_fused(f.stem, {}, 1 << 12);
  FusedStats fs, ss;
  auto fused = execute_fused(plan, f.leaves(), 0, nullptr, &fs);
  auto step = execute_stem_stepwise(f.stem, f.leaves(), {}, 0, nullptr, &ss);
  ASSERT_EQ(fused.rank(), step.rank());
  EXPECT_NEAR(std::abs(std::complex<double>(fused.data()[0]) -
                       std::complex<double>(step.data()[0])),
              0.0, 1e-3 * std::max(1.0, double(std::abs(step.data()[0]))));
  EXPECT_GT(fs.ldm_subtasks, 0u);
}

TEST(FusedExecutor, MatchesStepwiseUnderProcessSlicing) {
  auto f = make_fixture(3, 4, 8);
  core::SliceFinderOptions fo;
  fo.target_log2size = std::max(2.0, f.tree->max_log2size() - 2);
  auto S = core::lifetime_slice_finder(f.stem, fo);
  auto sliced = S.to_vector();
  ASSERT_GT(sliced.size(), 0u);
  auto plan = plan_fused(f.stem, sliced, 1 << 12);
  for (uint64_t task : {uint64_t(0), (uint64_t(1) << sliced.size()) - 1}) {
    auto fused = execute_fused(plan, f.leaves(), task);
    auto step = execute_stem_stepwise(f.stem, f.leaves(), sliced, task);
    EXPECT_NEAR(std::abs(std::complex<double>(fused.data()[0]) -
                         std::complex<double>(step.data()[0])),
                0.0, 1e-3 * std::max(1.0, double(std::abs(step.data()[0]))))
        << "task " << task;
  }
}

TEST(FusedExecutor, ParallelMatchesSerial) {
  auto f = make_fixture(3, 4, 6);
  auto plan = plan_fused(f.stem, {}, 1 << 10);
  runtime::SliceScheduler sched(4);
  auto serial = execute_fused(plan, f.leaves(), 0, nullptr);
  Tensor parallel;
  test::in_one_task(sched, [&] { parallel = execute_fused(plan, f.leaves(), 0, &sched); });
  EXPECT_NEAR(std::abs(std::complex<double>(serial.data()[0]) -
                       std::complex<double>(parallel.data()[0])),
              0.0, 1e-4 * std::max(1.0, double(std::abs(serial.data()[0]))));
}

TEST(FusedExecutor, RespectsLdmAtRuntime) {
  auto f = make_fixture(4, 4, 8);
  const size_t cap = 1 << 11;
  auto plan = plan_fused(f.stem, {}, cap);
  FusedStats fs;
  execute_fused(plan, f.leaves(), 0, nullptr, &fs);
  EXPECT_LE(fs.ldm_peak_elems, cap);
}

TEST(FusedExecutor, ReducesDmaTrafficVsStepwise) {
  // The whole point of secondary slicing: less main-memory traffic.
  auto f = make_fixture(4, 4, 10);
  auto plan = plan_fused(f.stem, {}, 1 << 13);
  if (plan.average_fused_length() < 1.5) GTEST_SKIP() << "stem too small to fuse";
  FusedStats fused, step;
  execute_fused(plan, f.leaves(), 0, nullptr, &fused);
  execute_stem_stepwise(f.stem, f.leaves(), {}, 0, nullptr, &step);
  EXPECT_LT(fused.dma.total_bytes(), step.dma.total_bytes());
}

TEST(FusedExecutor, CooperativeDmaRestoresGranularity) {
  auto f = make_fixture(4, 4, 10);
  auto coop = plan_fused(f.stem, {}, 1 << 12, /*cooperative_dma=*/true);
  auto raw = plan_fused(f.stem, {}, 1 << 12, /*cooperative_dma=*/false);
  FusedStats a, b;
  execute_fused(coop, f.leaves(), 0, nullptr, &a);
  execute_fused(raw, f.leaves(), 0, nullptr, &b);
  EXPECT_GE(a.dma.min_granularity, std::min(512.0, b.dma.min_granularity));
  if (b.dma.min_granularity < 512.0) {
    EXPECT_GT(a.dma.rma_bytes, 0.0);
  }
}

TEST(SliceRunner, FusedModeMatchesStepMode) {
  auto f = make_fixture(3, 4, 8);
  core::SliceFinderOptions fo;
  fo.target_log2size = std::max(2.0, f.tree->max_log2size() - 2);
  auto S = core::lifetime_slice_finder(f.stem, fo);
  auto plan = plan_fused(f.stem, S.to_vector(), 1 << 12);

  SliceRunOptions fused_opt;
  fused_opt.fused = &plan;
  auto rf = run_sliced(*f.tree, f.leaves(), S, fused_opt);
  auto rs = run_sliced(*f.tree, f.leaves(), S);
  EXPECT_NEAR(std::abs(std::complex<double>(rf.accumulated.data()[0]) -
                       std::complex<double>(rs.accumulated.data()[0])),
              0.0, 1e-3 * std::max(1.0, double(std::abs(rs.accumulated.data()[0]))));
}

class FusedLdmSweep : public ::testing::TestWithParam<int> {};

TEST_P(FusedLdmSweep, CorrectAcrossLdmSizes) {
  auto f = make_fixture(3, 3, 6);
  auto plan = plan_fused(f.stem, {}, size_t(1) << GetParam());
  auto fused = execute_fused(plan, f.leaves(), 0);
  auto step = execute_stem_stepwise(f.stem, f.leaves(), {}, 0);
  EXPECT_NEAR(std::abs(std::complex<double>(fused.data()[0]) -
                       std::complex<double>(step.data()[0])),
              0.0, 1e-3 * std::max(1.0, double(std::abs(step.data()[0]))));
}

INSTANTIATE_TEST_SUITE_P(LdmSizes, FusedLdmSweep, ::testing::Values(6, 8, 10, 12, 14, 16));

}  // namespace
}  // namespace ltns::exec
