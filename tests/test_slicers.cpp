// Tests for the three slicers: greedy baseline, Algorithm 1 (lifetime
// finder), Algorithm 2 (SA refiner) — plus the Theorem 1 flavored property
// that smaller lifetime-guided sets beat greedy overhead on RQC networks.
#include <gtest/gtest.h>

#include "core/greedy_slicer.hpp"
#include "core/slice_finder.hpp"
#include "core/slice_refiner.hpp"
#include "test_helpers.hpp"

namespace ltns::core {
namespace {

struct Setup {
  circuit::LoweredNetwork ln;
  std::shared_ptr<tn::ContractionTree> tree;
  tn::Stem stem;
};

Setup make_setup(int rows, int cols, int cycles, uint64_t seed = 42) {
  Setup s{test::small_network(rows, cols, cycles, seed), nullptr, {}};
  s.tree = std::make_shared<tn::ContractionTree>(test::greedy_tree(s.ln.net, seed));
  s.stem = tn::extract_stem(*s.tree);
  return s;
}

double pick_target(const tn::ContractionTree& tree, double below = 3.0) {
  return std::max(2.0, tree.max_log2size() - below);
}

TEST(GreedySlicer, MeetsMemoryBound) {
  auto s = make_setup(4, 4, 8);
  GreedySlicerOptions opt;
  opt.target_log2size = pick_target(*s.tree);
  SlicedMetrics m;
  auto S = greedy_slice(*s.tree, opt, &m);
  EXPECT_TRUE(satisfies_memory_bound(*s.tree, S, opt.target_log2size));
  EXPECT_LE(m.max_log2size, opt.target_log2size + 1e-9);
  EXPECT_GT(S.size(), 0);
}

TEST(GreedySlicer, NoWorkWhenAlreadyUnderBound) {
  auto s = make_setup(3, 3, 4);
  GreedySlicerOptions opt;
  opt.target_log2size = s.tree->max_log2size() + 1;
  auto S = greedy_slice(*s.tree, opt);
  EXPECT_EQ(S.size(), 0);
}

TEST(LifetimeSliceFinder, MeetsMemoryBoundOnStem) {
  auto s = make_setup(4, 4, 8);
  SliceFinderOptions opt;
  opt.target_log2size = pick_target(*s.tree);
  SlicedMetrics m;
  auto S = lifetime_slice_finder(s.stem, opt, &m);
  EXPECT_TRUE(satisfies_memory_bound(*s.tree, S, opt.target_log2size));
  EXPECT_GT(S.size(), 0);
}

TEST(LifetimeSliceFinder, DeterministicAcrossRuns) {
  auto s = make_setup(4, 4, 8);
  SliceFinderOptions opt;
  opt.target_log2size = pick_target(*s.tree);
  auto a = lifetime_slice_finder(s.stem, opt);
  auto b = lifetime_slice_finder(s.stem, opt);
  EXPECT_EQ(a.to_vector(), b.to_vector());
}

TEST(LifetimeSliceFinder, SlicesOnlyStemEdges) {
  auto s = make_setup(4, 4, 8);
  SliceFinderOptions opt;
  opt.target_log2size = pick_target(*s.tree);
  opt.fixup_whole_tree = false;
  auto S = lifetime_slice_finder(s.stem, opt);
  auto lt = StemLifetimes::build(s.stem);
  for (int e : S.to_vector()) EXPECT_TRUE(lt.of(e).alive()) << "edge " << e << " not on stem";
}

TEST(LifetimeSliceFinder, FindsSetAtLeastAsSmallAsGreedyOnRqc) {
  // The Fig. 10 claim: the in-place slicing strategy finds potentially
  // smaller sets. Check over several circuits: never more than one extra
  // edge, usually fewer or equal.
  int wins = 0, ties = 0, losses = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    auto s = make_setup(4, 5, 10, seed);
    double t = pick_target(*s.tree, 4.0);
    GreedySlicerOptions go;
    go.target_log2size = t;
    auto Sg = greedy_slice(*s.tree, go);
    SliceFinderOptions fo;
    fo.target_log2size = t;
    auto Sf = lifetime_slice_finder(s.stem, fo);
    if (Sf.size() < Sg.size()) ++wins;
    else if (Sf.size() == Sg.size()) ++ties;
    else ++losses;
  }
  EXPECT_GE(wins + ties, losses) << "lifetime finder should not be systematically larger";
}

TEST(SliceRefiner, NeverViolatesBoundAndNeverWorseThanInput) {
  for (uint64_t seed : {3u, 7u, 11u}) {
    auto s = make_setup(4, 4, 8, seed);
    double t = pick_target(*s.tree);
    SliceFinderOptions fo;
    fo.target_log2size = t;
    auto S0 = lifetime_slice_finder(s.stem, fo);
    double c0 = evaluate_slicing(*s.tree, S0).log2_total_cost;

    SliceRefinerOptions ro;
    ro.target_log2size = t;
    ro.seed = seed;
    RefineStats st;
    auto S1 = refine_slices(s.stem, S0, ro, &st);
    auto m1 = evaluate_slicing(*s.tree, S1);
    EXPECT_TRUE(satisfies_memory_bound(*s.tree, S1, t));
    EXPECT_LE(m1.log2_total_cost, c0 + 1e-9) << "refiner returns the best seen";
    EXPECT_NEAR(st.final_log2cost, m1.log2_total_cost, 1e-9);
    EXPECT_GE(st.proposed, 0);
  }
}

TEST(SliceRefiner, DropsUselessSlices) {
  // Hand the refiner a set with one obviously useless edge (a tiny branch
  // edge whose lifetime holds no critical tensor): it should be dropped.
  auto s = make_setup(4, 4, 8);
  double t = pick_target(*s.tree);
  SliceFinderOptions fo;
  fo.target_log2size = t;
  auto S = lifetime_slice_finder(s.stem, fo);
  // Add a useless edge: one absent from every critical (== t) stem tensor.
  auto lt = StemLifetimes::build(s.stem);
  int useless = -1;
  for (int e : s.ln.net.alive_edges()) {
    if (S.contains(e) || lt.of(e).alive()) continue;
    useless = e;
    break;
  }
  if (useless < 0) GTEST_SKIP() << "no off-stem edge available";
  S.add(useless);
  int before = S.size();
  SliceRefinerOptions ro;
  ro.target_log2size = t;
  auto S2 = refine_slices(s.stem, S, ro);
  EXPECT_LE(S2.size(), before);
  EXPECT_TRUE(satisfies_memory_bound(*s.tree, S2, t));
}

TEST(SliceRefiner, EmptySetIsReturnedUntouched) {
  auto s = make_setup(3, 3, 4);
  SliceRefinerOptions ro;
  ro.target_log2size = s.tree->max_log2size();
  RefineStats st;
  auto S = refine_slices(s.stem, SliceSet(s.ln.net), ro, &st);
  EXPECT_EQ(S.size(), 0);
  EXPECT_EQ(st.proposed, 0);
  EXPECT_EQ(st.initial_log2cost, evaluate_slicing(*s.tree, S).log2_total_cost);
  EXPECT_EQ(st.final_log2cost, st.initial_log2cost);
}

TEST(Theorem1Flavor, SmallerSetsCorrelateWithLowerOverhead) {
  // Theorem 1's practical content: when the lifetime finder produces a
  // strictly smaller set than greedy, its (refined) overhead should not be
  // dramatically worse, and on average should be better.
  double sum_log_ratio = 0;
  int n = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto s = make_setup(4, 5, 10, seed);
    double t = pick_target(*s.tree, 4.0);
    GreedySlicerOptions go;
    go.target_log2size = t;
    SlicedMetrics mg;
    greedy_slice(*s.tree, go, &mg);

    SliceFinderOptions fo;
    fo.target_log2size = t;
    auto Sf = lifetime_slice_finder(s.stem, fo);
    SliceRefinerOptions ro;
    ro.target_log2size = t;
    ro.seed = seed;
    auto Sr = refine_slices(s.stem, Sf, ro);
    auto mr = evaluate_slicing(*s.tree, Sr);
    sum_log_ratio += mr.log2_overhead - mg.log2_overhead;
    ++n;
  }
  EXPECT_LE(sum_log_ratio / n, 0.75) << "lifetime+SA should be competitive with greedy";
}

class SlicerSweep : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(SlicerSweep, AllSlicersMeetAnyFeasibleTarget) {
  auto [below, seed] = GetParam();
  auto s = make_setup(4, 4, 8, seed);
  double t = std::max(2.0, s.tree->max_log2size() - below);
  GreedySlicerOptions go;
  go.target_log2size = t;
  auto Sg = greedy_slice(*s.tree, go);
  EXPECT_TRUE(satisfies_memory_bound(*s.tree, Sg, t));
  SliceFinderOptions fo;
  fo.target_log2size = t;
  auto Sf = lifetime_slice_finder(s.stem, fo);
  EXPECT_TRUE(satisfies_memory_bound(*s.tree, Sf, t));
}

INSTANTIATE_TEST_SUITE_P(TargetsAndSeeds, SlicerSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                                            ::testing::Values(uint64_t(2), uint64_t(9))));

}  // namespace
}  // namespace ltns::core
