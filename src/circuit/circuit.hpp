// Circuit IR and the Sycamore-style random-quantum-circuit generator.
//
// The RQC ensemble follows the quantum-advantage experiments the paper
// simulates: per cycle, every qubit gets a random single-qubit gate from
// {sqrt(X), sqrt(Y), sqrt(W)} (never repeating on the same qubit in
// consecutive cycles), then the two-qubit fSim gate fires on the couplers
// of the cycle's pattern, with patterns sequenced A B C D C D A B. Devices
// are 2-D grids: rectangular lattices of any size plus the 53-qubit
// Sycamore diamond layout.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "circuit/gates.hpp"

namespace ltns::circuit {

struct Op {
  GateDef gate;
  std::vector<int> qubits;  // gate.arity entries
};

struct Circuit {
  int num_qubits = 0;
  std::vector<Op> ops;

  // Appends `g` on `qubits`. Throws std::invalid_argument unless there are
  // exactly g.arity distinct qubits, each in [0, num_qubits).
  void apply(GateDef g, std::vector<int> qubits);
  int num_two_qubit_ops() const;
};

// A device: qubit coordinates plus couplers (pairs of qubit ids).
struct Device {
  std::vector<std::pair<int, int>> coords;  // (row, col) per qubit
  std::vector<std::pair<int, int>> couplers;
  int num_qubits() const { return int(coords.size()); }

  static Device grid(int rows, int cols);
  // The 54-site Sycamore diamond with one site removed (the experiment used
  // 53 working qubits).
  static Device sycamore53();
};

// Coupler pattern id (A=0..D=3) active in the given cycle: A B C D C D A B.
int pattern_for_cycle(int cycle);
// True if the coupler (between coords a and b) belongs to pattern `pat`.
// Vertical couplers split into A/B by (row+col) parity, horizontal into C/D.
bool coupler_in_pattern(std::pair<int, int> a, std::pair<int, int> b, int pat);

struct RqcOptions {
  int cycles = 10;      // the paper's m
  uint64_t seed = 2019;
  double fsim_theta = M_PI / 2;
  double fsim_phi = M_PI / 6;
};

// Random circuit on `dev` in the ensemble described above.
Circuit random_quantum_circuit(const Device& dev, const RqcOptions& opt);

}  // namespace ltns::circuit
