#include "exec/permute.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "util/rng.hpp"

namespace ltns::exec {
namespace {

// Checks out[new order] == in element-by-element via at().
void expect_permutation_correct(const Tensor& in, const Tensor& out) {
  ASSERT_EQ(in.rank(), out.rank());
  const int r = in.rank();
  std::vector<int> bits(size_t(r), 0);
  for (size_t lin = 0; lin < in.size(); ++lin) {
    std::vector<int> in_bits(size_t(r), 0);
    for (int d = 0; d < r; ++d) in_bits[size_t(d)] = int((lin >> (r - 1 - d)) & 1);
    std::vector<int> out_bits(size_t(r), 0);
    for (int d = 0; d < r; ++d) {
      int edge = out.ixs()[size_t(d)];
      int src_axis = in.axis_of(edge);
      out_bits[size_t(d)] = in_bits[size_t(src_axis)];
    }
    EXPECT_EQ(out.at(out_bits), in.data()[lin]);
  }
  (void)bits;
}

TEST(PermutationBetween, ComputesCorrectMapping) {
  auto perm = permutation_between({4, 5, 6}, {6, 4, 5});
  EXPECT_EQ(perm, (std::vector<int>{2, 0, 1}));
}

TEST(PermuteNaive, SwapTwoAxes) {
  auto t = random_tensor({1, 2}, 3);
  auto p = permute_naive(t, {2, 1});
  expect_permutation_correct(t, p);
}

TEST(PermuteNaive, Rank3AllOrders) {
  auto t = random_tensor({7, 8, 9}, 4);
  std::vector<int> order{7, 8, 9};
  std::sort(order.begin(), order.end());
  do {
    auto p = permute_naive(t, order);
    expect_permutation_correct(t, p);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(Permute, IdentityIsCopy) {
  auto t = random_tensor({1, 2, 3}, 5);
  PermuteStats st;
  auto p = permute(t, {1, 2, 3}, &st);
  EXPECT_EQ(max_abs_diff(t, p), 0.0);
  EXPECT_EQ(st.map_entries, 0u);
}

TEST(Permute, MatchesNaive) {
  Rng rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    int r = 1 + int(rng.next_below(9));
    std::vector<int> ixs(size_t(r), 0);
    std::iota(ixs.begin(), ixs.end(), 100);
    auto t = random_tensor(ixs, uint64_t(trial));
    auto order = ixs;
    for (size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.next_below(i)]);
    auto fast = permute(t, order);
    auto slow = permute_naive(t, order);
    EXPECT_EQ(max_abs_diff(fast, slow), 0.0) << "rank " << r << " trial " << trial;
  }
}

TEST(PermuteMap, ReductionShrinksMapWhenSuffixFixed) {
  // Permute only the first two of six axes: the map should cover 2^2
  // entries, blocks of 2^4 elements (the §5.3.1 reduction).
  std::vector<int> perm{1, 0, 2, 3, 4, 5};
  PermuteMap map(perm, 6);
  EXPECT_EQ(map.block_axes(), 4);
  EXPECT_EQ(map.map_entries(), 4u);
  EXPECT_EQ(map.block_elems(), 16u);
}

TEST(PermuteMap, FullPermutationUsesFullMap) {
  std::vector<int> perm{5, 4, 3, 2, 1, 0};
  PermuteMap map(perm, 6);
  EXPECT_EQ(map.block_axes(), 0);
  EXPECT_EQ(map.map_entries(), 64u);
}

TEST(PermuteMap, FactoredTablesAreSqrtSized) {
  // The map is two tables over the split output block index, never the
  // full 2^lead map: 2^ceil(lead/2) + 2^floor(lead/2) offsets at most.
  Rng rng(17);
  for (int r = 1; r <= 18; ++r) {
    std::vector<int> ixs(size_t(r), 0);
    std::iota(ixs.begin(), ixs.end(), 0);
    std::vector<int> reversed(ixs.rbegin(), ixs.rend());
    std::vector<int> shuffled = ixs;
    for (size_t i = shuffled.size(); i > 1; --i)
      std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
    for (const auto& perm : {reversed, shuffled}) {
      PermuteMap map(perm, r);
      const int lead = r - map.block_axes();
      const size_t bound = (size_t(1) << (lead - lead / 2)) + (size_t(1) << (lead / 2));
      EXPECT_LE(map.table_entries(), bound) << "rank " << r;
      EXPECT_EQ(map.map_entries(), size_t(1) << lead) << "rank " << r;
      EXPECT_EQ(map.rows() * map.row_len(), map.map_entries());
    }
    auto t = random_tensor(ixs, uint64_t(r) + 300);
    EXPECT_EQ(max_abs_diff(permute(t, reversed), permute_naive(t, reversed)), 0.0) << "rank " << r;
  }
}

TEST(PermuteMap, ApplyMatchesNaiveWithBlocks) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    int r = 3 + int(rng.next_below(8));
    int keep_tail = 1 + int(rng.next_below(uint64_t(r - 1)));
    std::vector<int> ixs(size_t(r), 0);
    std::iota(ixs.begin(), ixs.end(), 0);
    auto t = random_tensor(ixs, uint64_t(trial) + 100);
    // Shuffle only the leading axes, keep the tail in place.
    std::vector<int> order = ixs;
    for (size_t i = size_t(r - keep_tail); i > 1; --i)
      std::swap(order[i - 1], order[rng.next_below(i)]);
    PermuteStats st;
    auto fast = permute(t, order, &st);
    auto slow = permute_naive(t, order);
    EXPECT_EQ(max_abs_diff(fast, slow), 0.0);
    if (order != ixs) {
      EXPECT_GE(st.block_elems, size_t(1) << keep_tail);
    }
  }
}

TEST(PermuteStats, ReportsElementCount) {
  auto t = random_tensor({0, 1, 2, 3}, 9);
  PermuteStats st;
  permute(t, {3, 2, 1, 0}, &st);
  EXPECT_EQ(st.elements, 16u);
}

TEST(Permute, DoublePermuteIsIdentity) {
  auto t = random_tensor({10, 20, 30, 40, 50}, 12);
  auto p = permute(t, {50, 30, 10, 40, 20});
  auto back = permute(p, {10, 20, 30, 40, 50});
  EXPECT_EQ(max_abs_diff(t, back), 0.0);
}

}  // namespace
}  // namespace ltns::exec
