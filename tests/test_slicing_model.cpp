// Eq. 2 / Eq. 4 slicing cost model tests, including the brute-force
// cross-check over explicit subtask enumeration.
#include <gtest/gtest.h>

#include "core/slicing.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace ltns::core {
namespace {

TEST(SliceSet, TracksSizeAndSubtasks) {
  auto ln = test::small_network(3, 3, 4);
  SliceSet S(ln.net);
  EXPECT_EQ(S.size(), 0);
  EXPECT_DOUBLE_EQ(S.log2_num_subtasks(), 0.0);
  auto edges = ln.net.alive_edges();
  S.add(edges[0]);
  S.add(edges[1]);
  EXPECT_EQ(S.size(), 2);
  EXPECT_DOUBLE_EQ(S.log2_num_subtasks(), 2.0);
  S.remove(edges[0]);
  EXPECT_EQ(S.size(), 1);
  EXPECT_TRUE(S.contains(edges[1]));
  EXPECT_FALSE(S.contains(edges[0]));
}

TEST(EvaluateSlicing, EmptySetIsFree) {
  auto ln = test::small_network(3, 3, 4);
  auto tree = test::greedy_tree(ln.net);
  SliceSet S(ln.net);
  auto m = evaluate_slicing(tree, S);
  EXPECT_DOUBLE_EQ(m.log2_num_subtasks, 0.0);
  EXPECT_NEAR(m.log2_total_cost, tree.total_log2cost(), 1e-12);
  EXPECT_NEAR(m.log2_overhead, 0.0, 1e-12);
  EXPECT_NEAR(m.overhead(), 1.0, 1e-12);
  EXPECT_NEAR(m.max_log2size, tree.max_log2size(), 1e-12);
}

TEST(EvaluateSlicing, SingleEdgeAcrossWholeTreeHasNoOverhead) {
  // A path graph a-b-c contracted left to right: slicing the edge held to
  // the very end would halve everything it touches. Construct a case where
  // an open edge lives in every intermediate: lifetime = whole tree, so
  // overhead is exactly 1.
  tn::TensorNetwork net;
  auto a = net.add_vertex(), b = net.add_vertex(), c = net.add_vertex();
  net.add_edge(a, b);
  net.add_edge(b, c);
  int open = net.add_edge(a, tn::kNone);
  tn::SsaPath p;
  p.leaf_vertices = {a, b, c};
  p.steps = {{0, 1}, {3, 2}};
  auto tree = tn::ContractionTree::build(net, p);
  SliceSet S(net);
  S.add(open);
  auto m = evaluate_slicing(tree, S);
  EXPECT_NEAR(m.log2_overhead, 0.0, 1e-12) << "lifetime spans every contraction";
}

TEST(EvaluateSlicing, UntouchedEdgeDoublesTotal) {
  // Slicing an edge that appears in NO contraction of interest doubles the
  // whole computation: overhead = 2.
  tn::TensorNetwork net;
  auto a = net.add_vertex(), b = net.add_vertex(), c = net.add_vertex(), d = net.add_vertex();
  net.add_edge(a, b);
  net.add_edge(c, d);
  int cd2 = net.add_edge(c, d);
  tn::SsaPath p;
  p.leaf_vertices = {a, b, c, d};
  p.steps = {{0, 1}, {2, 3}, {4, 5}};
  auto tree = tn::ContractionTree::build(net, p);
  SliceSet S(net);
  // Slice the a-b edge: it is absent from the c-d contraction, which gets
  // recomputed in both subtasks.
  S.add(0);
  auto m = evaluate_slicing(tree, S);
  EXPECT_GT(m.overhead(), 1.0);
  (void)cd2;
}

TEST(EvaluateSlicing, MatchesBruteForce) {
  Rng rng(17);
  for (uint64_t seed : {4u, 8u, 15u, 16u, 23u, 42u}) {
    auto net = tn::random_network(14, 2.6, seed);
    auto tree = test::greedy_tree(net, seed);
    auto edges = net.alive_edges();
    SliceSet S(net);
    for (int k = 0; k < 3 && k < int(edges.size()); ++k) {
      int e;
      do {
        e = edges[rng.next_below(edges.size())];
      } while (S.contains(e));
      S.add(e);
    }
    auto m = evaluate_slicing(tree, S);
    EXPECT_NEAR(m.log2_total_cost, brute_force_sliced_log2cost(tree, S), 1e-9);
  }
}

TEST(EvaluateSlicing, SubtaskCostDecomposition) {
  auto ln = test::small_network(3, 4, 6);
  auto tree = test::greedy_tree(ln.net);
  SliceSet S(ln.net);
  auto edges = ln.net.alive_edges();
  S.add(edges[3]);
  S.add(edges[5]);
  auto m = evaluate_slicing(tree, S);
  EXPECT_NEAR(m.log2_total_cost, m.log2_cost_per_subtask + m.log2_num_subtasks, 1e-12);
  EXPECT_GE(m.log2_overhead, -1e-12) << "slicing can never reduce total flops";
}

TEST(EvaluateSlicing, MoreSlicesNeverReduceTotal) {
  // "More sliced edges tend to lead to higher overhead ... will grow unless
  // the lifetimes of the added edges go across the whole contraction tree."
  auto ln = test::small_network(3, 4, 8);
  auto tree = test::greedy_tree(ln.net);
  SliceSet S(ln.net);
  double prev = evaluate_slicing(tree, S).log2_total_cost;
  for (int e : {0, 4, 9, 13}) {
    if (!ln.net.edge(e).alive) continue;
    S.add(e);
    double cur = evaluate_slicing(tree, S).log2_total_cost;
    EXPECT_GE(cur + 1e-9, prev);
    prev = cur;
  }
}

TEST(MemoryBound, DetectsOversizedNodes) {
  auto ln = test::small_network(4, 4, 8);
  auto tree = test::greedy_tree(ln.net);
  SliceSet S(ln.net);
  EXPECT_FALSE(satisfies_memory_bound(tree, S, tree.max_log2size() - 1));
  EXPECT_TRUE(satisfies_memory_bound(tree, S, tree.max_log2size()));
}

TEST(SlicedNodeSize, OnlyCountsPresentEdges) {
  auto ln = test::small_network(3, 3, 4);
  auto tree = test::greedy_tree(ln.net);
  SliceSet S(ln.net);
  // Find a leaf and slice an edge NOT on it.
  int leaf = -1;
  for (int i = 0; i < tree.num_nodes(); ++i)
    if (tree.node(i).is_leaf()) {
      leaf = i;
      break;
    }
  int absent = -1;
  for (int e : ln.net.alive_edges())
    if (!tree.node(leaf).ixs.contains(e)) {
      absent = e;
      break;
    }
  ASSERT_GE(absent, 0);
  S.add(absent);
  EXPECT_DOUBLE_EQ(sliced_node_log2size(tree, leaf, S.edges()), tree.node(leaf).log2size);
}

// The incremental state must agree with the oracle bit for bit (EXPECT_EQ on
// doubles, no tolerance) after every proposal, commit and reject: the SA
// refiner's decisions, and so every plan, rest on that.
void expect_matches_oracle(const ContractionTree& tree, const IncrementalSlicing& st,
                           double target) {
  const SliceSet& S = st.slices();
  EXPECT_EQ(st.log2_total_cost(), evaluate_slicing(tree, S).log2_total_cost);
  EXPECT_EQ(st.fits(), satisfies_memory_bound(tree, S, target));
  for (int i = 0; i < tree.num_nodes(); ++i)
    ASSERT_EQ(st.node_log2size(i), sliced_node_log2size(tree, i, S.edges())) << "node " << i;
}

TEST(IncrementalSlicing, MatchesOracleOverRandomSwapSequences) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto ln = test::small_network(4, 5, 10, seed);
    auto tree = test::greedy_tree(ln.net, seed);
    const auto edges = ln.net.alive_edges();
    Rng rng(seed);
    // Slice the widest tensor's first edges and bound at the result, so
    // unslicing one of them breaks the bound and other swaps keep it.
    int widest = 0;
    for (int i = 0; i < tree.num_nodes(); ++i)
      if (tree.node(i).log2size > tree.node(widest).log2size) widest = i;
    SliceSet S(ln.net);
    for (int e : tree.node(widest).ixs.to_vector())
      if (S.size() < 6) S.add(e);
    const double target = evaluate_slicing(tree, S).max_log2size;
    IncrementalSlicing st(tree, S, target);
    expect_matches_oracle(tree, st, target);

    int commits = 0, rejects = 0, drops = 0, over_bound = 0;
    for (int step = 0; step < 400; ++step) {
      auto sliced = st.slices().to_vector();
      EdgeId a = sliced[rng.next_below(sliced.size())];
      EdgeId b = tn::kNone;
      if (sliced.size() <= 3 || rng.next_below(8) != 0) {
        do {
          b = edges[rng.next_below(edges.size())];
        } while (st.slices().contains(b));
      }
      const IndexSet before = st.slices().edges();
      st.propose(a, b);
      expect_matches_oracle(tree, st, target);
      over_bound += !st.fits();
      if (rng.next_below(2) == 0) {
        st.commit();
        ++commits;
        drops += b == tn::kNone;
      } else {
        st.reject();
        ++rejects;
        EXPECT_EQ(st.slices().edges(), before);
      }
      expect_matches_oracle(tree, st, target);
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(commits, 0);
    EXPECT_GT(rejects, 0);
    EXPECT_GT(drops, 0);
    EXPECT_GT(over_bound, 0);
    EXPECT_LT(over_bound, 400);
  }
}

// A caterpillar tree: one leaf joins per step, as along a stem.
tn::ContractionTree caterpillar_tree(const tn::TensorNetwork& net) {
  tn::SsaPath p;
  p.leaf_vertices = net.alive_vertices();
  const int leaves = int(p.leaf_vertices.size());
  for (int i = 1; i < leaves; ++i) p.steps.push_back({i == 1 ? 0 : leaves + i - 2, i});
  return tn::ContractionTree::build(net, p);
}

TEST(IncrementalSlicing, EverySingleSwapMatchesOracleAndUndoes) {
  // On a caterpillar the last leaves' edges first appear in the last
  // contractions, so some swaps refold only the last few terms of the
  // chain. Every swap is tried and undone.
  for (uint64_t seed : {4u, 8u, 15u, 16u, 23u, 42u}) {
    auto net = tn::random_network(14, 2.6, seed);
    auto tree = caterpillar_tree(net);
    auto edges = net.alive_edges();
    SliceSet S(net);
    S.add(edges[0]);
    S.add(edges[edges.size() / 2]);
    const double target = evaluate_slicing(tree, S).max_log2size;
    IncrementalSlicing st(tree, S, target);
    for (EdgeId a : S.to_vector())
      for (EdgeId b : edges) {
        if (S.contains(b)) continue;
        st.propose(a, b);
        expect_matches_oracle(tree, st, target);
        st.reject();
        expect_matches_oracle(tree, st, target);
        if (HasFatalFailure()) return;
      }
  }
}

}  // namespace
}  // namespace ltns::core
