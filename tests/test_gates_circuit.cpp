#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "circuit/circuit.hpp"
#include "circuit/gates.hpp"

namespace ltns::circuit {
namespace {

TEST(Gates, AllUnitary) {
  for (const auto& g : {gate_x(), gate_y(), gate_z(), gate_h(), gate_sqrt_x(), gate_sqrt_y(),
                        gate_sqrt_w(), gate_cz(), gate_fsim(1.2, 0.7), gate_sycamore()}) {
    EXPECT_LT(unitarity_defect(g), 1e-12) << g.name;
  }
}

TEST(Gates, SqrtGatesSquareToTheirBase) {
  auto square = [](const GateDef& g) {
    GateDef r = g;
    const int n = 1 << g.arity;
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        cd acc = 0;
        for (int k = 0; k < n; ++k)
          acc += g.matrix[size_t(i * n + k)] * g.matrix[size_t(k * n + j)];
        r.matrix[size_t(i * n + j)] = acc;
      }
    return r;
  };
  auto close = [](const GateDef& a, const GateDef& b) {
    double d = 0;
    for (size_t i = 0; i < a.matrix.size(); ++i) d = std::max(d, std::abs(a.matrix[i] - b.matrix[i]));
    return d;
  };
  EXPECT_LT(close(square(gate_sqrt_x()), gate_x()), 1e-12);
  EXPECT_LT(close(square(gate_sqrt_y()), gate_y()), 1e-12);
  // sqrt(W)^2 = W = (X+Y)/sqrt(2).
  auto w2 = square(gate_sqrt_w());
  auto x = gate_x(), y = gate_y();
  for (size_t i = 0; i < 4; ++i)
    EXPECT_LT(std::abs(w2.matrix[i] - (x.matrix[i] + y.matrix[i]) / std::sqrt(2.0)), 1e-12);
}

TEST(Gates, FsimSpecialCases) {
  // fSim(0, 0) == identity.
  auto id = gate_fsim(0, 0);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      EXPECT_LT(std::abs(id.matrix[size_t(i * 4 + j)] - (i == j ? cd(1) : cd(0))), 1e-12);
  // fSim(pi/2, 0) == iSWAP^-1-ish: |01> -> -i|10>.
  auto is = gate_fsim(M_PI / 2, 0);
  EXPECT_LT(std::abs(is.matrix[6] - cd(0, -1)), 1e-12);
  EXPECT_LT(std::abs(is.matrix[5]), 1e-12);
}

TEST(Device, GridConstruction) {
  auto d = Device::grid(3, 4);
  EXPECT_EQ(d.num_qubits(), 12);
  // 2*4 vertical + 3*3 horizontal couplers.
  EXPECT_EQ(d.couplers.size(), 8u + 9u);
  for (auto [a, b] : d.couplers) {
    auto [ra, ca] = d.coords[size_t(a)];
    auto [rb, cb] = d.coords[size_t(b)];
    EXPECT_EQ(std::abs(ra - rb) + std::abs(ca - cb), 1) << "couplers join nearest neighbors";
  }
}

TEST(Device, Sycamore53Layout) {
  auto d = Device::sycamore53();
  EXPECT_EQ(d.num_qubits(), 53);
  std::set<std::pair<int, int>> coords(d.coords.begin(), d.coords.end());
  EXPECT_EQ(coords.size(), 53u) << "no duplicate sites";
  EXPECT_EQ(coords.count({0, 6}), 0u) << "the dropped qubit";
  for (auto [a, b] : d.couplers) {
    auto [ra, ca] = d.coords[size_t(a)];
    auto [rb, cb] = d.coords[size_t(b)];
    EXPECT_EQ(std::abs(ra - rb) + std::abs(ca - cb), 1);
  }
  // The diamond is connected with a realistic coupler count (86 for 53q).
  EXPECT_GT(d.couplers.size(), 70u);
}

TEST(Patterns, SequenceIsABCDCDAB) {
  std::vector<int> got;
  for (int c = 0; c < 8; ++c) got.push_back(pattern_for_cycle(c));
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 2, 3, 0, 1}));
  EXPECT_EQ(pattern_for_cycle(8), pattern_for_cycle(0));
}

TEST(Patterns, EveryCouplerInExactlyOnePattern) {
  auto d = Device::grid(4, 4);
  for (auto [a, b] : d.couplers) {
    int count = 0;
    for (int pat = 0; pat < 4; ++pat)
      count += coupler_in_pattern(d.coords[size_t(a)], d.coords[size_t(b)], pat);
    EXPECT_EQ(count, 1);
  }
}

TEST(Rqc, LayerStructure) {
  auto d = Device::grid(3, 3);
  RqcOptions opt;
  opt.cycles = 8;
  auto c = random_quantum_circuit(d, opt);
  EXPECT_EQ(c.num_qubits, 9);
  // 8 cycles x 9 single-qubit + 1 final layer = 81 single-qubit gates.
  int singles = 0, doubles = 0;
  for (const auto& op : c.ops) (op.gate.arity == 1 ? singles : doubles)++;
  EXPECT_EQ(singles, 9 * 9);
  EXPECT_EQ(doubles, c.num_two_qubit_ops());
  EXPECT_GT(doubles, 0);
}

TEST(Rqc, SingleQubitGatesNeverRepeatOnAQubit) {
  auto d = Device::grid(3, 3);
  RqcOptions opt;
  opt.cycles = 12;
  auto c = random_quantum_circuit(d, opt);
  std::vector<std::string> last(9);
  for (const auto& op : c.ops) {
    if (op.gate.arity != 1) continue;
    int q = op.qubits[0];
    EXPECT_NE(op.gate.name, last[size_t(q)]) << "qubit " << q;
    last[size_t(q)] = op.gate.name;
  }
}

TEST(Rqc, TwoQubitGatesFollowThePattern) {
  auto d = Device::grid(4, 4);
  RqcOptions opt;
  opt.cycles = 4;
  auto c = random_quantum_circuit(d, opt);
  int cycle = -1;
  int singles_seen = 0;
  for (const auto& op : c.ops) {
    if (op.gate.arity == 1) {
      if (singles_seen % 16 == 0) ++cycle;
      ++singles_seen;
      continue;
    }
    if (cycle >= opt.cycles) break;  // final layer
    EXPECT_TRUE(coupler_in_pattern(d.coords[size_t(op.qubits[0])],
                                   d.coords[size_t(op.qubits[1])], pattern_for_cycle(cycle)));
  }
}

TEST(Rqc, DeterministicPerSeed) {
  auto d = Device::grid(3, 3);
  RqcOptions opt;
  opt.cycles = 6;
  opt.seed = 5;
  auto a = random_quantum_circuit(d, opt);
  auto b = random_quantum_circuit(d, opt);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].gate.name, b.ops[i].gate.name);
    EXPECT_EQ(a.ops[i].qubits, b.ops[i].qubits);
  }
}

TEST(Rqc, DifferentSeedsDiffer) {
  auto d = Device::grid(3, 3);
  RqcOptions a, b;
  a.seed = 1;
  b.seed = 2;
  auto ca = random_quantum_circuit(d, a);
  auto cb = random_quantum_circuit(d, b);
  bool differ = false;
  for (size_t i = 0; i < std::min(ca.ops.size(), cb.ops.size()); ++i)
    differ = differ || ca.ops[i].gate.name != cb.ops[i].gate.name;
  EXPECT_TRUE(differ);
}

TEST(Rqc, SycamoreM20HasExpectedScale) {
  auto d = Device::sycamore53();
  RqcOptions opt;
  opt.cycles = 20;
  auto c = random_quantum_circuit(d, opt);
  EXPECT_EQ(c.num_qubits, 53);
  EXPECT_EQ(c.ops.size() - size_t(c.num_two_qubit_ops()), size_t(53 * 21));
  // Roughly a quarter of couplers fire each cycle.
  EXPECT_GT(c.num_two_qubit_ops(), 300);
  EXPECT_LT(c.num_two_qubit_ops(), 600);
}

TEST(Circuit, ApplyRejectsBadQubitsInRelease) {
  Circuit c;
  c.num_qubits = 3;
  EXPECT_THROW(c.apply(gate_cz(), {1}), std::invalid_argument);        // arity
  EXPECT_THROW(c.apply(gate_h(), {0, 1}), std::invalid_argument);      // arity
  EXPECT_THROW(c.apply(gate_cz(), {1, 1}), std::invalid_argument);     // repeated
  EXPECT_THROW(c.apply(gate_cz(), {0, 3}), std::invalid_argument);     // out of range
  EXPECT_THROW(c.apply(gate_x(), {-1}), std::invalid_argument);        // out of range
  EXPECT_TRUE(c.ops.empty());
  c.apply(gate_cz(), {2, 0});
  EXPECT_EQ(c.ops.size(), 1u);
}

}  // namespace
}  // namespace ltns::circuit
