// Reference answers for the benchmark's checks: a multi-threaded
// statevector simulator written apart from the program's own src/sv/, so a
// defect shared by the tensor-network pipeline and src/sv/ cannot hide.
#pragma once

#include <complex>
#include <vector>

#include "circuit/circuit.hpp"

namespace perfbench {

using cd = std::complex<double>;

// |psi> = C|0...0> in double precision. Qubit q sits at bit (n-1-q) of the
// basis index (qubit 0 most significant), the program's convention.
// Single-qubit gates are folded into the next two-qubit gate on their
// qubit, so the state is swept once per two-qubit gate.
std::vector<cd> reference_state(const ltns::circuit::Circuit& c, int threads);

// Index of a bitstring (qubit 0 first) in reference_state's layout.
size_t basis_index(const std::vector<int>& bits);

}  // namespace perfbench
