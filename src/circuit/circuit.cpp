#include "circuit/circuit.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace ltns::circuit {

void Circuit::apply(GateDef g, std::vector<int> qubits) {
  if (int(qubits.size()) != g.arity)
    throw std::invalid_argument("gate '" + g.name + "' takes " + std::to_string(g.arity) +
                                " qubit(s), got " + std::to_string(qubits.size()));
  for (size_t i = 0; i < qubits.size(); ++i) {
    const int q = qubits[i];
    if (q < 0 || q >= num_qubits)
      throw std::invalid_argument("gate '" + g.name + "': qubit " + std::to_string(q) +
                                  " is out of range [0, " + std::to_string(num_qubits) + ")");
    if (std::find(qubits.begin(), qubits.begin() + std::ptrdiff_t(i), q) !=
        qubits.begin() + std::ptrdiff_t(i))
      throw std::invalid_argument("gate '" + g.name + "' repeats qubit " + std::to_string(q));
  }
  ops.push_back(Op{std::move(g), std::move(qubits)});
}

int Circuit::num_two_qubit_ops() const {
  int c = 0;
  for (const auto& op : ops) c += (op.gate.arity == 2);
  return c;
}

Device Device::grid(int rows, int cols) {
  Device d;
  auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) d.coords.emplace_back(r, c);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      if (r + 1 < rows) d.couplers.emplace_back(id(r, c), id(r + 1, c));
      if (c + 1 < cols) d.couplers.emplace_back(id(r, c), id(r, c + 1));
    }
  return d;
}

Device Device::sycamore53() {
  // Row spans of the Sycamore diamond (cirq's device map), 54 sites; the
  // experiment's broken qubit — here (0,6) — is dropped, leaving 53.
  static const std::pair<int, std::pair<int, int>> rows[] = {
      {0, {5, 6}}, {1, {4, 7}}, {2, {3, 8}}, {3, {2, 9}}, {4, {1, 9}},
      {5, {0, 8}}, {6, {1, 7}}, {7, {2, 6}}, {8, {3, 5}}, {9, {4, 4}},
  };
  Device d;
  std::map<std::pair<int, int>, int> id;
  for (const auto& [r, span] : rows)
    for (int c = span.first; c <= span.second; ++c) {
      if (r == 0 && c == 6) continue;  // the removed qubit
      id[{r, c}] = int(d.coords.size());
      d.coords.emplace_back(r, c);
    }
  for (const auto& [rc, q] : id) {
    auto [r, c] = rc;
    for (auto [dr, dc] : {std::pair{1, 0}, std::pair{0, 1}}) {
      auto it = id.find({r + dr, c + dc});
      if (it != id.end()) d.couplers.emplace_back(q, it->second);
    }
  }
  assert(d.num_qubits() == 53);
  return d;
}

int pattern_for_cycle(int cycle) {
  static const int seq[8] = {0, 1, 2, 3, 2, 3, 0, 1};  // A B C D C D A B
  return seq[cycle % 8];
}

bool coupler_in_pattern(std::pair<int, int> a, std::pair<int, int> b, int pat) {
  const bool vertical = a.first != b.first;
  const int parity = (a.first + a.second) & 1;  // parity of the lower-id end
  if (vertical) return (pat == 0 && parity == 0) || (pat == 1 && parity == 1);
  return (pat == 2 && parity == 0) || (pat == 3 && parity == 1);
}

Circuit random_quantum_circuit(const Device& dev, const RqcOptions& opt) {
  Rng rng(opt.seed);
  Circuit c;
  c.num_qubits = dev.num_qubits();
  const GateDef singles[3] = {gate_sqrt_x(), gate_sqrt_y(), gate_sqrt_w()};
  std::vector<int> last(size_t(c.num_qubits), -1);

  GateDef fsim = gate_fsim(opt.fsim_theta, opt.fsim_phi);
  for (int cyc = 0; cyc < opt.cycles; ++cyc) {
    for (int q = 0; q < c.num_qubits; ++q) {
      // Non-repeating draw from the 3-gate set.
      int pick;
      do {
        pick = int(rng.next_below(3));
      } while (pick == last[size_t(q)]);
      last[size_t(q)] = pick;
      c.apply(singles[pick], {q});
    }
    const int pat = pattern_for_cycle(cyc);
    for (auto [qa, qb] : dev.couplers) {
      if (coupler_in_pattern(dev.coords[size_t(qa)], dev.coords[size_t(qb)], pat))
        c.apply(fsim, {qa, qb});
    }
  }
  // Final single-qubit layer before measurement, as in the experiments.
  for (int q = 0; q < c.num_qubits; ++q) {
    int pick;
    do {
      pick = int(rng.next_below(3));
    } while (pick == last[size_t(q)]);
    c.apply(singles[pick], {q});
  }
  return c;
}

}  // namespace ltns::circuit
