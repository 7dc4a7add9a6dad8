// Tests for the extension modules: dynamic slicer (Alibaba baseline),
// mixed-precision GEMM, and circuit text IO.
#include <gtest/gtest.h>

#include <sstream>

#include "circuit/io.hpp"
#include "core/dynamic_slicer.hpp"
#include "core/greedy_slicer.hpp"
#include "exec/gemm.hpp"
#include "exec/simd_kernels.hpp"
#include "sv/statevector.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/ulp.hpp"

namespace ltns {
namespace {

TEST(DynamicSlicer, MeetsBoundOnRetunedTree) {
  auto ln = test::small_network(4, 4, 8);
  auto tree = test::greedy_tree(ln.net, 1, 2.0);  // deliberately noisy tree
  core::DynamicSlicerOptions opt;
  opt.target_log2size = std::max(2.0, tree.max_log2size() - 3);
  auto r = core::dynamic_slice(tree, opt);
  auto tuned = tn::ContractionTree::build(ln.net, r.path);
  EXPECT_TRUE(core::satisfies_memory_bound(tuned, r.slices, opt.target_log2size));
  EXPECT_GT(r.slices.size(), 0);
  EXPECT_LE(r.metrics.max_log2size, opt.target_log2size + 1e-9);
}

TEST(DynamicSlicer, NeverWorseThanStaticGreedyOnNoisyTrees) {
  double sum_log = 0;
  int n = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto ln = test::small_network(4, 4, 8, seed);
    auto tree = test::greedy_tree(ln.net, seed, 3.0);
    double target = std::max(2.0, tree.max_log2size() - 3);
    core::GreedySlicerOptions go;
    go.target_log2size = target;
    core::SlicedMetrics mg;
    core::greedy_slice(tree, go, &mg);
    core::DynamicSlicerOptions dopt;
    dopt.target_log2size = target;
    auto r = core::dynamic_slice(tree, dopt);
    // Dynamic may slice a different tree; compare end-to-end sliced cost.
    sum_log += r.metrics.log2_total_cost - mg.log2_total_cost;
    ++n;
  }
  EXPECT_LE(sum_log / n, 0.25) << "dynamic should be competitive on average";
}

TEST(DynamicSlicer, NoWorkWhenUnderBound) {
  auto ln = test::small_network(3, 3, 4);
  auto tree = test::greedy_tree(ln.net);
  core::DynamicSlicerOptions opt;
  opt.target_log2size = tree.max_log2size() + 1;
  auto r = core::dynamic_slice(tree, opt);
  EXPECT_EQ(r.slices.size(), 0);
  EXPECT_NEAR(r.metrics.log2_overhead, 0.0, 1e-12);
}

// The portable bf16 mixed-precision chain (every vector tier matches it
// bitwise; tests/test_kernels_parity.cpp).
void cgemm_bf16(int m, int n, int k, const exec::cfloat* a, const exec::cfloat* b,
                exec::cfloat* c, ThreadPool* pool = nullptr) {
  exec::cgemm_simd(exec::IsaTier::kPortable, exec::Precision::kBf16, m, n, k, a, b, c, pool);
}

TEST(MixedGemm, MatchesBf16RoundedReference) {
  // The bf16 mixed-precision mode: operands rounded to
  // bf16 (round-to-nearest-even) at pack time, fp32 accumulation in the
  // HOST chain order. The reference below replays exactly that — round
  // both operands, then run the fp32 host GEMM — so the comparison is
  // bitwise, not a tolerance band.
  Rng rng(3);
  const int m = 37, n = 21, k = 53;
  std::vector<exec::cfloat> a(size_t(m) * k), b(size_t(k) * n), c(size_t(m) * n);
  for (auto& v : a) v = exec::cfloat(float(rng.next_normal()), float(rng.next_normal()));
  for (auto& v : b) v = exec::cfloat(float(rng.next_normal()), float(rng.next_normal()));
  cgemm_bf16(m, n, k, a.data(), b.data(), c.data());
  std::vector<exec::cfloat> ar(a), br(b), want(size_t(m) * n);
  for (auto& v : ar) v = exec::cfloat(exec::bf16_round(v.real()), exec::bf16_round(v.imag()));
  for (auto& v : br) v = exec::cfloat(exec::bf16_round(v.real()), exec::bf16_round(v.imag()));
  exec::cgemm(m, n, k, ar.data(), br.data(), want.data());
  for (size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], want[i]) << "element " << i;
}

TEST(MixedGemm, UlpCloseToFp32OnWellScaledInputs) {
  // bf16 operands carry 8 mantissa bits, so against the fp32 result the
  // error is bounded by the operand rounding: small in units of float
  // spacing at the result's scale (util::ulp_distance_at_scale, the same
  // metric as --compare-mode=ulp:<N>), never bitwise-equal on generic
  // inputs, and reproducible.
  Rng rng(11);
  const int m = 24, n = 16, k = 96;
  std::vector<exec::cfloat> a(size_t(m) * k), b(size_t(k) * n);
  for (auto& v : a) v = exec::cfloat(float(rng.next_normal()), float(rng.next_normal()));
  for (auto& v : b) v = exec::cfloat(float(rng.next_normal()), float(rng.next_normal()));
  std::vector<exec::cfloat> cs(size_t(m) * n), cm(size_t(m) * n);
  exec::cgemm(m, n, k, a.data(), b.data(), cs.data());
  cgemm_bf16(m, n, k, a.data(), b.data(), cm.data());
  float scale = 0;
  for (const auto& v : cs) scale = std::max({scale, std::abs(v.real()), std::abs(v.imag())});
  int64_t max_ulp = 0;
  bool any_diff = false;
  for (size_t i = 0; i < cs.size(); ++i) {
    max_ulp = std::max(max_ulp, util::ulp_distance_at_scale(cs[i].real(), cm[i].real(), scale));
    max_ulp = std::max(max_ulp, util::ulp_distance_at_scale(cs[i].imag(), cm[i].imag(), scale));
    any_diff = any_diff || cs[i] != cm[i];
  }
  EXPECT_TRUE(any_diff) << "bf16 bitwise-equal to fp32 would mean rounding never happened";
  EXPECT_GT(max_ulp, 0);
  EXPECT_LE(max_ulp, int64_t(1) << 18) << "bf16 error should stay within ~2^10 of the "
                                          "2^8-mantissa operand rounding bound";
}

TEST(MixedGemm, DeterministicAcrossRepeatedRuns) {
  // The bf16 mode trades accuracy, never determinism: same inputs, same
  // bits, run after run (this is what lets bf16 fleets byte-diff).
  Rng rng(7);
  const int m = 19, n = 33, k = 257;  // crosses a K-panel boundary
  std::vector<exec::cfloat> a(size_t(m) * k), b(size_t(k) * n);
  for (auto& v : a) v = exec::cfloat(float(rng.next_normal()), float(rng.next_normal()));
  for (auto& v : b) v = exec::cfloat(float(rng.next_normal()), float(rng.next_normal()));
  std::vector<exec::cfloat> c1(size_t(m) * n), c2(size_t(m) * n);
  cgemm_bf16(m, n, k, a.data(), b.data(), c1.data());
  cgemm_bf16(m, n, k, a.data(), b.data(), c2.data());
  for (size_t i = 0; i < c1.size(); ++i) ASSERT_EQ(c1[i], c2[i]) << "element " << i;
}

TEST(MixedGemm, ParallelMatchesSerial) {
  ThreadPool pool(3);
  Rng rng(5);
  const int m = 64, n = 32, k = 48;
  std::vector<exec::cfloat> a(size_t(m) * k), b(size_t(k) * n), c1(size_t(m) * n),
      c2(size_t(m) * n);
  for (auto& v : a) v = exec::cfloat(float(rng.next_normal()), float(rng.next_normal()));
  for (auto& v : b) v = exec::cfloat(float(rng.next_normal()), float(rng.next_normal()));
  cgemm_bf16(m, n, k, a.data(), b.data(), c1.data());
  cgemm_bf16(m, n, k, a.data(), b.data(), c2.data(), &pool);
  for (size_t i = 0; i < c1.size(); ++i) EXPECT_EQ(c1[i], c2[i]);
}

TEST(CircuitIo, RoundTripRqc) {
  auto c = test::small_rqc(3, 3, 6, 11);
  auto text = circuit::circuit_to_string(c);
  auto c2 = circuit::circuit_from_string(text);
  ASSERT_EQ(c2.num_qubits, c.num_qubits);
  ASSERT_EQ(c2.ops.size(), c.ops.size());
  // Semantics must match exactly: same statevector.
  sv::Statevector a(c.num_qubits), b(c.num_qubits);
  a.run(c);
  b.run(c2);
  for (size_t i = 0; i < a.dim(); i += 17)
    EXPECT_NEAR(std::abs(a.amplitudes()[i] - b.amplitudes()[i]), 0.0, 1e-12);
}

TEST(CircuitIo, RoundTripEveryGate) {
  circuit::Circuit c;
  c.num_qubits = 3;
  c.apply(circuit::gate_x(), {0});
  c.apply(circuit::gate_y(), {1});
  c.apply(circuit::gate_z(), {2});
  c.apply(circuit::gate_h(), {0});
  c.apply(circuit::gate_sqrt_x(), {1});
  c.apply(circuit::gate_sqrt_y(), {2});
  c.apply(circuit::gate_sqrt_w(), {0});
  c.apply(circuit::gate_cz(), {0, 1});
  c.apply(circuit::gate_fsim(0.3, 0.9), {1, 2});
  c.apply(circuit::gate_sycamore(), {0, 2});
  auto c2 = circuit::circuit_from_string(circuit_to_string(c));
  sv::Statevector a(3), b(3);
  a.run(c);
  b.run(c2);
  for (size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(std::abs(a.amplitudes()[i] - b.amplitudes()[i]), 0.0, 1e-12) << i;
}

TEST(CircuitIo, RejectsGarbage) {
  EXPECT_THROW(circuit::circuit_from_string("not a circuit"), std::runtime_error);
  EXPECT_THROW(circuit::circuit_from_string("ltnsqc v1\nqubits 2\nwarp 0\n"),
               std::runtime_error);
  EXPECT_THROW(circuit::circuit_from_string("ltnsqc v1\nqubits 2\ncz 0 5\n"),
               std::runtime_error);
  EXPECT_THROW(circuit::circuit_from_string("ltnsqc v1\nqubits 2\nfsim 0 1\n"),
               std::runtime_error);
}

TEST(CircuitIo, CommentsAndBlankLinesIgnored) {
  auto c = circuit::circuit_from_string(
      "ltnsqc v1\nqubits 2\n# a comment\n\nh 0\ncz 0 1\n");
  EXPECT_EQ(c.ops.size(), 2u);
}

}  // namespace
}  // namespace ltns
