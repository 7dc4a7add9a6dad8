// Text serialization for circuits — a qsim-flavored line format so circuits
// can be stored, diffed and re-run:
//
//   ltnsqc v1
//   qubits 12
//   sqrt_x 0
//   fsim 0 1 1.5707963 0.5235988
//   cz 3 4
//   ...
//
// Gate names match the library (case-insensitive); fsim takes theta phi.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "circuit/circuit.hpp"

namespace ltns::circuit {

// Malformed circuit text. what() reads "circuit io: line N: <message>";
// `line` is 1-based.
struct CircuitParseError : std::runtime_error {
  CircuitParseError(int line, const std::string& message);
  int line;
  std::string message;
};

void write_circuit(std::ostream& os, const Circuit& c);
// Throws CircuitParseError on malformed input: a bad header or qubit
// count, an unknown gate, a missing argument, or a gate Circuit::apply
// refuses (wrong arity, repeated or out-of-range qubit).
Circuit read_circuit(std::istream& is);

std::string circuit_to_string(const Circuit& c);
Circuit circuit_from_string(const std::string& text);

}  // namespace ltns::circuit
