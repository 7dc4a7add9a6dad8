#include <gtest/gtest.h>

#include "exec/contract.hpp"
#include "exec/gemm.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace ltns::exec {
namespace {

std::vector<cfloat> random_matrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  std::vector<cfloat> m(size_t(rows) * cols);
  for (auto& v : m) v = cfloat(float(rng.next_normal()), float(rng.next_normal()));
  return m;
}

double max_diff(const std::vector<cfloat>& a, const std::vector<cfloat>& b) {
  double d = 0;
  for (size_t i = 0; i < a.size(); ++i) d = std::max(d, double(std::abs(a[i] - b[i])));
  return d;
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, BlockedMatchesNaive) {
  auto [m, n, k] = GetParam();
  auto a = random_matrix(m, k, 1);
  auto b = random_matrix(k, n, 2);
  std::vector<cfloat> c1(size_t(m) * n), c2(size_t(m) * n);
  cgemm_naive(m, n, k, a.data(), b.data(), c1.data());
  cgemm(m, n, k, a.data(), b.data(), c2.data());
  EXPECT_LT(max_diff(c1, c2), 1e-3 * std::sqrt(double(k)));
}

INSTANTIATE_TEST_SUITE_P(
    SquareNarrowAndEdge, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{4, 4, 4}, std::tuple{16, 16, 16},
                      std::tuple{64, 64, 64}, std::tuple{128, 32, 64},
                      // the paper's narrow regime: two of m,n,k < 16
                      std::tuple{256, 2, 4}, std::tuple{2, 256, 4}, std::tuple{4, 2, 256},
                      std::tuple{1024, 4, 2}, std::tuple{3, 5, 7}, std::tuple{17, 33, 65},
                      std::tuple{100, 1, 100}));

TEST(Gemm, ParallelMatchesSerial) {
  runtime::SliceScheduler sched(4);
  const int m = 96, n = 40, k = 70;
  auto a = random_matrix(m, k, 3);
  auto b = random_matrix(k, n, 4);
  std::vector<cfloat> c1(size_t(m) * n), c2(size_t(m) * n);
  cgemm(m, n, k, a.data(), b.data(), c1.data(), nullptr);
  test::in_one_task(sched, [&] { cgemm(m, n, k, a.data(), b.data(), c2.data(), &sched); });
  EXPECT_LT(max_diff(c1, c2), 1e-4);
}

TEST(Gemm, IdentityMultiplication) {
  const int n = 8;
  std::vector<cfloat> eye(size_t(n) * n, cfloat{0, 0});
  for (int i = 0; i < n; ++i) eye[size_t(i) * n + i] = {1, 0};
  auto b = random_matrix(n, n, 5);
  std::vector<cfloat> c(size_t(n) * n);
  cgemm(n, n, n, eye.data(), b.data(), c.data());
  EXPECT_LT(max_diff(b, c), 1e-6);
}

TEST(Gemm, FlopsConvention) { EXPECT_DOUBLE_EQ(gemm_flops(2, 3, 4), 8.0 * 24); }

TEST(PlanContract, SplitsIndicesCorrectly) {
  auto p = plan_contract({1, 2, 3}, {3, 4});
  EXPECT_EQ(p.shared, (std::vector<int>{3}));
  EXPECT_EQ(p.out_ixs, (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(p.m, 4);
  EXPECT_EQ(p.n, 2);
  EXPECT_EQ(p.k, 2);
  EXPECT_TRUE(p.a_identity);  // keepA+shared == {1,2,3}
  EXPECT_TRUE(p.b_identity);  // shared+keepB == {3,4}
}

TEST(PlanContract, DetectsNeededPermutations) {
  auto p = plan_contract({3, 1, 2}, {4, 3});
  EXPECT_FALSE(p.a_identity);
  EXPECT_FALSE(p.b_identity);
  EXPECT_EQ(p.a_order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(p.b_order, (std::vector<int>{3, 4}));
}

TEST(Contract, MatrixVectorAsTensors) {
  // M[i,j] * v[j] = (Mv)[i]
  Tensor m({1, 2});
  m.set({0, 0}, {1, 0});
  m.set({0, 1}, {2, 0});
  m.set({1, 0}, {3, 0});
  m.set({1, 1}, {4, 0});
  Tensor v({2});
  v.set({0}, {1, 0});
  v.set({1}, {1, 0});
  auto r = contract(m, v);
  EXPECT_EQ(r.ixs(), std::vector<int>{1});
  EXPECT_EQ(r.at({0}), cfloat(3, 0));
  EXPECT_EQ(r.at({1}), cfloat(7, 0));
}

TEST(Contract, OuterProduct) {
  auto a = random_tensor({1}, 6);
  auto b = random_tensor({2}, 7);
  auto r = contract(a, b);
  EXPECT_EQ(r.rank(), 2);
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j)
      EXPECT_NEAR(std::abs(r.at({i, j}) - a.at({i}) * b.at({j})), 0.0, 1e-5);
}

TEST(Contract, FullInnerProductToScalar) {
  auto a = random_tensor({1, 2}, 8);
  auto b = random_tensor({1, 2}, 9);
  auto r = contract(a, b);
  EXPECT_EQ(r.rank(), 0);
  std::complex<double> want{0, 0};
  for (size_t i = 0; i < a.size(); ++i)
    want += std::complex<double>(a.data()[i]) * std::complex<double>(b.data()[i]);
  EXPECT_NEAR(std::abs(std::complex<double>(r.data()[0]) - want), 0.0, 1e-4);
}

TEST(Contract, MatchesNaiveOnRandomShapes) {
  Rng rng(41);
  for (int trial = 0; trial < 25; ++trial) {
    int ra = 1 + int(rng.next_below(5));
    int rb = 1 + int(rng.next_below(5));
    int nshared = int(rng.next_below(uint64_t(std::min(ra, rb)) + 1));
    std::vector<int> a_ixs, b_ixs;
    int next = 0;
    for (int i = 0; i < nshared; ++i) {
      a_ixs.push_back(next);
      b_ixs.push_back(next);
      ++next;
    }
    while (int(a_ixs.size()) < ra) a_ixs.push_back(next++);
    while (int(b_ixs.size()) < rb) b_ixs.push_back(next++);
    // Shuffle axis orders.
    Rng sh{uint64_t(trial)};
    for (size_t i = a_ixs.size(); i > 1; --i) std::swap(a_ixs[i - 1], a_ixs[sh.next_below(i)]);
    for (size_t i = b_ixs.size(); i > 1; --i) std::swap(b_ixs[i - 1], b_ixs[sh.next_below(i)]);
    auto a = random_tensor(a_ixs, uint64_t(trial) * 2 + 1);
    auto b = random_tensor(b_ixs, uint64_t(trial) * 2 + 2);
    auto fast = contract(a, b);
    auto slow = contract_naive(a, b);
    ASSERT_EQ(fast.ixs(), slow.ixs());
    EXPECT_LT(max_abs_diff(fast, slow), 1e-3) << "trial " << trial;
  }
}

TEST(Contract, StatsAccumulate) {
  ContractStats st;
  auto a = random_tensor({3, 1, 2}, 10);
  auto b = random_tensor({4, 3}, 11);
  contract(a, b, nullptr, &st);
  EXPECT_GT(st.flops, 0.0);
  EXPECT_GT(st.permute_elems, 0.0);  // both operands needed permutes
}

TEST(Contract, AssociativityOnAChain) {
  // (A·B)·C == A·(B·C) for a chain A[1,2] B[2,3] C[3,4].
  auto a = random_tensor({1, 2}, 12);
  auto b = random_tensor({2, 3}, 13);
  auto c = random_tensor({3, 4}, 14);
  auto left = contract(contract(a, b), c);
  auto right = contract(a, contract(b, c));
  ASSERT_EQ(left.ixs(), right.ixs());
  EXPECT_LT(max_abs_diff(left, right), 1e-4);
}

}  // namespace
}  // namespace ltns::exec
