// Shared fixtures: small circuits, networks and trees used across the suite.
#pragma once

#include <cstring>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/lowering.hpp"
#include "core/planner.hpp"
#include "exec/contract.hpp"
#include "exec/gemm.hpp"
#include "exec/permute.hpp"
#include "exec/simd_kernels.hpp"
#include "exec/tensor.hpp"
#include "path/greedy.hpp"
#include "tn/contraction_tree.hpp"
#include "tn/stem.hpp"

namespace ltns::test {

// The byte-comparison behind every bitwise-identity acceptance criterion:
// identical index order, identical size, identical payload bits.
inline bool bitwise_equal(const exec::Tensor& a, const exec::Tensor& b) {
  return a.ixs() == b.ixs() && a.size() == b.size() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(exec::cfloat)) == 0;
}

// The reference composition exec::contract must reproduce bit for bit:
// exec::permute + exec::cgemm at fp32, the portable bf16 chain at bf16.
inline exec::Tensor reference_contract(const exec::Tensor& a, const exec::Tensor& b,
                                       exec::Precision prec = exec::Precision::kFp32) {
  const exec::ContractPlan p = exec::plan_contract(a.ixs(), b.ixs());
  const exec::Tensor ap = exec::permute(a, p.a_order);
  const exec::Tensor bp = exec::permute(b, p.b_order);
  exec::Tensor out(p.out_ixs);
  if (prec == exec::Precision::kFp32)
    exec::cgemm(p.m, p.n, p.k, ap.raw(), bp.raw(), out.raw());
  else
    exec::cgemm_simd(exec::IsaTier::kPortable, prec, p.m, p.n, p.k, ap.raw(), bp.raw(),
                     out.raw());
  return out;
}

// A small RQC on a rows x cols grid.
inline circuit::Circuit small_rqc(int rows, int cols, int cycles, uint64_t seed = 42) {
  auto dev = circuit::Device::grid(rows, cols);
  circuit::RqcOptions opt;
  opt.cycles = cycles;
  opt.seed = seed;
  return circuit::random_quantum_circuit(dev, opt);
}

// Lowered + simplified network of a small RQC.
inline circuit::LoweredNetwork small_network(int rows, int cols, int cycles,
                                             uint64_t seed = 42) {
  auto ln = circuit::lower(small_rqc(rows, cols, cycles, seed));
  circuit::simplify(ln);
  return ln;
}

// Deterministic greedy tree over a network.
inline tn::ContractionTree greedy_tree(const tn::TensorNetwork& net, uint64_t seed = 1,
                                       double temperature = 0.0) {
  path::GreedyOptions g;
  g.seed = seed;
  g.temperature = temperature;
  return tn::ContractionTree::build(net, path::greedy_path(net, g));
}

inline std::vector<int> zero_bits(int n) { return std::vector<int>(size_t(n), 0); }

}  // namespace ltns::test
