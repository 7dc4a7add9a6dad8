// Lowering and simplification: structural checks plus the key semantic
// invariant — contracting the lowered network reproduces the statevector
// amplitude, before AND after simplification.
#include <gtest/gtest.h>

#include "circuit/lowering.hpp"
#include "exec/tree_executor.hpp"
#include "path/greedy.hpp"
#include "sv/statevector.hpp"
#include "test_helpers.hpp"

namespace ltns::circuit {
namespace {

std::complex<double> contract_all(const LoweredNetwork& ln) {
  auto tree = test::greedy_tree(ln.net);
  auto leaves = [&](tn::VertId v) -> const exec::Tensor& { return ln.tensors[size_t(v)]; };
  auto r = exec::execute_tree(tree, leaves, {}, 0);
  EXPECT_EQ(r.rank(), 0);
  return std::complex<double>(r.data()[0]) * ln.scalar;
}

TEST(Lowering, StructureOfTinyCircuit) {
  Circuit c;
  c.num_qubits = 2;
  c.apply(gate_h(), {0});
  c.apply(gate_cz(), {0, 1});
  auto ln = lower(c);
  // 2 kets + 2 gates + 2 bras = 6 vertices; closed network.
  EXPECT_EQ(ln.net.num_alive_vertices(), 6);
  EXPECT_TRUE(ln.net.open_edges().empty());
  EXPECT_TRUE(ln.net.validate());
  for (auto v : ln.net.alive_vertices())
    EXPECT_EQ(ln.tensors[size_t(v)].rank(), ln.net.vertex_rank(v));
}

TEST(Lowering, OpenQubitsLeaveOpenEdges) {
  Circuit c;
  c.num_qubits = 3;
  c.apply(gate_h(), {0});
  LoweringOptions opt;
  opt.open_qubits = {0, 2};
  auto ln = lower(c, opt);
  EXPECT_EQ(ln.net.open_edges().size(), 2u);
  EXPECT_NE(ln.output_edge[0], tn::kNone);
  EXPECT_EQ(ln.output_edge[1], tn::kNone);
  EXPECT_NE(ln.output_edge[2], tn::kNone);
}

TEST(Lowering, AmplitudeMatchesStatevectorZeroBits) {
  auto c = test::small_rqc(2, 3, 4);
  auto ln = lower(c);
  auto want = sv::simulate_amplitude(c, test::zero_bits(c.num_qubits));
  auto got = contract_all(ln);
  EXPECT_NEAR(std::abs(got - want), 0.0, 1e-4);
}

TEST(Lowering, AmplitudeMatchesStatevectorArbitraryBits) {
  auto c = test::small_rqc(2, 3, 4, 7);
  std::vector<int> bits{1, 0, 1, 1, 0, 1};
  LoweringOptions opt;
  opt.output_bits = bits;
  auto ln = lower(c, opt);
  auto want = sv::simulate_amplitude(c, bits);
  EXPECT_NEAR(std::abs(contract_all(ln) - want), 0.0, 1e-4);
}

TEST(Simplify, RemovesAllLowRankTensors) {
  auto c = test::small_rqc(3, 3, 6);
  auto ln = lower(c);
  auto st = simplify(ln);
  EXPECT_GT(st.absorbed_rank1, 0);
  EXPECT_GT(st.absorbed_rank2, 0);
  for (auto v : ln.net.alive_vertices())
    EXPECT_GE(ln.net.vertex_rank(v), 3) << "rank<=2 tensor survived simplification";
  EXPECT_TRUE(ln.net.validate());
}

TEST(Simplify, ShrinksTheNetworkSubstantially) {
  auto c = test::small_rqc(3, 3, 6);
  auto ln = lower(c);
  int before = ln.net.num_alive_vertices();
  simplify(ln);
  EXPECT_LT(ln.net.num_alive_vertices(), before / 2);
}

TEST(Simplify, PreservesAmplitude) {
  for (uint64_t seed : {1u, 5u, 9u}) {
    auto c = test::small_rqc(2, 3, 5, seed);
    auto ln = lower(c);
    auto before = contract_all(ln);
    simplify(ln);
    auto after = contract_all(ln);
    EXPECT_NEAR(std::abs(before - after), 0.0, 1e-4) << "seed " << seed;
  }
}

TEST(Simplify, PreservesAmplitudeWithOpenQubits) {
  auto c = test::small_rqc(2, 3, 5);
  LoweringOptions opt;
  opt.open_qubits = {2, 4};
  auto ln = lower(c, opt);
  auto tree1 = test::greedy_tree(ln.net);
  auto leaves1 = [&](tn::VertId v) -> const exec::Tensor& { return ln.tensors[size_t(v)]; };
  auto before = exec::execute_tree(tree1, leaves1, {}, 0);

  simplify(ln);
  auto tree2 = test::greedy_tree(ln.net);
  auto leaves2 = [&](tn::VertId v) -> const exec::Tensor& { return ln.tensors[size_t(v)]; };
  auto after = exec::execute_tree(tree2, leaves2, {}, 0);

  ASSERT_EQ(before.rank(), 2);
  ASSERT_EQ(after.rank(), 2);
  // Compare entries via edge-labelled access (axis orders may differ).
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) {
      std::vector<int> bits_b(2), bits_a(2);
      bits_b[size_t(before.axis_of(ln.output_edge[2]))] = i;
      bits_b[size_t(before.axis_of(ln.output_edge[4]))] = j;
      bits_a[size_t(after.axis_of(ln.output_edge[2]))] = i;
      bits_a[size_t(after.axis_of(ln.output_edge[4]))] = j;
      EXPECT_NEAR(std::abs(std::complex<double>(before.at(bits_b)) -
                           std::complex<double>(after.at(bits_a))),
                  0.0, 1e-4);
    }
}

TEST(Simplify, TinyCircuitCollapsesToScalar) {
  Circuit c;
  c.num_qubits = 1;
  c.apply(gate_h(), {0});
  auto ln = lower(c);
  auto want = sv::simulate_amplitude(c, {0});
  simplify(ln);
  // Everything should fold into the scalar (or a trivial remnant).
  std::complex<double> got = ln.scalar;
  for (auto v : ln.net.alive_vertices()) {
    const auto& t = ln.tensors[size_t(v)];
    if (t.rank() == 0) got *= std::complex<double>(t.data()[0]);
  }
  if (ln.net.num_alive_vertices() == 0) {
    EXPECT_NEAR(std::abs(got - want), 0.0, 1e-6);
  }
}

TEST(Lowering, GateTensorConventionMatchesMatrix) {
  // For H: T[in, out] == H[out][in].
  auto c = Circuit{};
  c.num_qubits = 1;
  c.apply(gate_h(), {0});
  auto ln = lower(c);
  // Vertex 1 is the H gate (0 is the ket).
  const auto& t = ln.tensors[1];
  auto h = gate_h();
  for (int in = 0; in < 2; ++in)
    for (int out = 0; out < 2; ++out)
      EXPECT_NEAR(std::abs(std::complex<double>(t.at({in, out})) - h.matrix[size_t(out * 2 + in)]),
                  0.0, 1e-7);
}

}  // namespace
}  // namespace ltns::circuit
