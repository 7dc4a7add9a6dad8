#include "circuit/io.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace ltns::circuit {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) { return std::tolower(c); });
  return s;
}

// Serialized name for a gate (fsim carries its angles separately).
std::string wire_name(const GateDef& g, double* theta, double* phi) {
  std::string n = lower(g.name);
  if (n == "fsim" || n == "syc") {
    // Recover the angles from the matrix: cos(theta) at |01><01|,
    // exp(-i phi) at |11><11|.
    *theta = std::atan2(-g.matrix[6].imag(), g.matrix[5].real());
    *phi = -std::arg(g.matrix[15]);
    return "fsim";
  }
  return n;
}

}  // namespace

void write_circuit(std::ostream& os, const Circuit& c) {
  os.precision(17);  // round-trip exact doubles for the fsim angles
  os << "ltnsqc v1\n";
  os << "qubits " << c.num_qubits << "\n";
  for (const auto& op : c.ops) {
    double theta = 0, phi = 0;
    std::string name = wire_name(op.gate, &theta, &phi);
    os << name;
    for (int q : op.qubits) os << ' ' << q;
    if (name == "fsim") os << ' ' << theta << ' ' << phi;
    os << "\n";
  }
}

CircuitParseError::CircuitParseError(int line, const std::string& message)
    : std::runtime_error("circuit io: line " + std::to_string(line) + ": " + message),
      line(line),
      message(message) {}

Circuit read_circuit(std::istream& is) {
  std::string line, word;
  int line_no = 0;
  std::istringstream ls;
  auto fail = [&](const std::string& message) {
    return CircuitParseError(std::max(line_no, 1), message);
  };
  // Moves to the next line holding more than blanks or a '#' comment and
  // reads its first word into `word`; false at the end of the input.
  auto next_line = [&] {
    while (std::getline(is, line)) {
      ++line_no;
      ls.clear();
      ls.str(line);
      if (ls >> word && word[0] != '#') return true;
    }
    return false;
  };

  std::string version;
  if (!next_line() || word != "ltnsqc" || !(ls >> version) || version != "v1")
    throw fail("expected the header 'ltnsqc v1'");
  Circuit c;
  if (!next_line() || word != "qubits" || !(ls >> c.num_qubits) || c.num_qubits <= 0)
    throw fail("expected 'qubits N' with N > 0");

  while (next_line()) {
    const std::string name = lower(word);
    auto read_q = [&](int n) {
      std::vector<int> qs(size_t(n), 0);
      for (int& q : qs)
        if (!(ls >> q)) throw fail("gate '" + name + "' takes " + std::to_string(n) + " qubit(s)");
      return qs;
    };
    try {
      if (name == "x") c.apply(gate_x(), read_q(1));
      else if (name == "y") c.apply(gate_y(), read_q(1));
      else if (name == "z") c.apply(gate_z(), read_q(1));
      else if (name == "h") c.apply(gate_h(), read_q(1));
      else if (name == "sqrt_x") c.apply(gate_sqrt_x(), read_q(1));
      else if (name == "sqrt_y") c.apply(gate_sqrt_y(), read_q(1));
      else if (name == "sqrt_w") c.apply(gate_sqrt_w(), read_q(1));
      else if (name == "cz") c.apply(gate_cz(), read_q(2));
      else if (name == "fsim") {
        auto qs = read_q(2);
        double theta, phi;
        if (!(ls >> theta >> phi)) throw fail("fsim needs theta phi");
        c.apply(gate_fsim(theta, phi), qs);
      } else {
        throw fail("unknown gate '" + name + "'");
      }
    } catch (const std::invalid_argument& e) {
      throw fail(e.what());  // Circuit::apply's arity and qubit checks
    }
  }
  return c;
}

std::string circuit_to_string(const Circuit& c) {
  std::ostringstream os;
  write_circuit(os, c);
  return os.str();
}

Circuit circuit_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_circuit(is);
}

}  // namespace ltns::circuit
