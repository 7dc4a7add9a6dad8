#include "reference.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

using Mat2 = std::array<cd, 4>;   // row-major
using Mat4 = std::array<cd, 16>;  // row-major over |qa qb>, qa most significant

constexpr Mat2 kIdentity2 = {cd(1), cd(0), cd(0), cd(1)};

Mat2 mul(const Mat2& a, const Mat2& b) {
  Mat2 r{};
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) r[2 * i + j] = a[2 * i] * b[j] + a[2 * i + 1] * b[2 + j];
  return r;
}

Mat4 mul(const Mat4& a, const Mat4& b) {
  Mat4 r{};
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      for (int k = 0; k < 4; ++k) r[4 * i + j] += a[4 * i + k] * b[4 * k + j];
  return r;
}

Mat4 kron(const Mat2& a, const Mat2& b) {
  Mat4 r{};
  for (int i1 = 0; i1 < 2; ++i1)
    for (int i2 = 0; i2 < 2; ++i2)
      for (int j1 = 0; j1 < 2; ++j1)
        for (int j2 = 0; j2 < 2; ++j2)
          r[4 * (2 * i1 + i2) + (2 * j1 + j2)] = a[2 * i1 + j1] * b[2 * i2 + j2];
  return r;
}

// A fused two-qubit gate on bit positions (pa, pb) of the basis index.
struct Gate {
  int pa, pb;
  Mat4 m;
};

// Applies a gate on buffer positions (pa, pb) to 2^bits amplitudes. The
// inner loop runs over the 2^min(pa,pb) contiguous amplitudes below the
// lower position, in split real arithmetic so the compiler vectorizes it.
void apply_local(cd* psi, int bits, int pa, int pb, const Mat4& m) {
  const int lo = pa < pb ? pa : pb;
  const size_t ma = size_t(1) << pa, mb = size_t(1) << pb, mhi = std::max(ma, mb);
  const size_t seg = size_t(1) << lo, total = size_t(1) << bits;
  double mr[16], mi[16];
  for (int i = 0; i < 16; ++i) mr[i] = m[size_t(i)].real(), mi[i] = m[size_t(i)].imag();
  double* p = reinterpret_cast<double*>(psi);  // std::complex is layout-compatible
  const size_t off[4] = {0, mb, ma, ma | mb};
  for (size_t base = 0; base < total; base += 2 * seg) {
    if (base & mhi) continue;
    for (size_t j = base; j < base + seg; ++j) {
      double ar[4], ai[4];
      for (int c = 0; c < 4; ++c) ar[c] = p[2 * (j + off[c])], ai[c] = p[2 * (j + off[c]) + 1];
      for (int o = 0; o < 4; ++o) {
        double re = 0, im = 0;
        for (int c = 0; c < 4; ++c) {
          re += mr[4 * o + c] * ar[c] - mi[4 * o + c] * ai[c];
          im += mr[4 * o + c] * ai[c] + mi[4 * o + c] * ar[c];
        }
        p[2 * (j + off[o])] = re;
        p[2 * (j + off[o]) + 1] = im;
      }
    }
  }
}

// Cache blocking: a sweep is a run of consecutive gates whose positions
// outside the low kLow bits number at most kHigh. For each assignment of
// the remaining high bits, the 2^(kLow+kHigh) amplitudes the sweep mixes
// are gathered into a buffer, every gate of the sweep is applied there,
// and the buffer is scattered back: one pass over memory per sweep instead
// of one per gate.
constexpr int kLow = 12;
constexpr int kHigh = 3;

void apply_sweep(std::vector<cd>& psi, int n, const std::vector<Gate>& sweep,
                 const std::vector<int>& highs, int threads) {
  const int low = std::min(kLow, n);
  const int local_bits = low + int(highs.size());
  std::vector<int> outer;  // high positions the sweep does not touch
  for (int p = low; p < n; ++p)
    if (std::find(highs.begin(), highs.end(), p) == highs.end()) outer.push_back(p);
  // Gates re-addressed to buffer positions: highs[j] -> low + j.
  std::vector<Gate> local = sweep;
  auto to_local = [&](int p) {
    if (p < low) return p;
    return low + int(std::find(highs.begin(), highs.end(), p) - highs.begin());
  };
  for (auto& g : local) g.pa = to_local(g.pa), g.pb = to_local(g.pb);
  const size_t num_outer = size_t(1) << outer.size();
  const size_t chunk = size_t(1) << low;
  auto work = [&](size_t begin, size_t end) {
    std::vector<cd> buf(size_t(1) << local_bits);
    for (size_t o = begin; o < end; ++o) {
      size_t base = 0;
      for (size_t j = 0; j < outer.size(); ++j)
        if ((o >> j) & 1) base |= size_t(1) << outer[j];
      for (size_t h = 0; h < (size_t(1) << highs.size()); ++h) {
        size_t off = base;
        for (size_t j = 0; j < highs.size(); ++j)
          if ((h >> j) & 1) off |= size_t(1) << highs[j];
        std::copy(psi.begin() + long(off), psi.begin() + long(off + chunk),
                  buf.begin() + long(h * chunk));
      }
      for (const auto& g : local) apply_local(buf.data(), local_bits, g.pa, g.pb, g.m);
      for (size_t h = 0; h < (size_t(1) << highs.size()); ++h) {
        size_t off = base;
        for (size_t j = 0; j < highs.size(); ++j)
          if ((h >> j) & 1) off |= size_t(1) << highs[j];
        std::copy(buf.begin() + long(h * chunk), buf.begin() + long((h + 1) * chunk),
                  psi.begin() + long(off));
      }
    }
  };
  std::vector<std::thread> pool;
  const size_t per = (num_outer + size_t(threads) - 1) / size_t(threads);
  for (int t = 0; t < threads; ++t) {
    const size_t b = size_t(t) * per, e = std::min(num_outer, b + per);
    if (b < e) pool.emplace_back(work, b, e);
  }
  for (auto& th : pool) th.join();
}

void apply_gates(std::vector<cd>& psi, int n, const std::vector<Gate>& gates, int threads) {
  const int low = std::min(kLow, n);
  std::vector<Gate> sweep;
  std::vector<int> highs;
  auto flush = [&] {
    if (!sweep.empty()) apply_sweep(psi, n, sweep, highs, threads);
    sweep.clear();
    highs.clear();
  };
  for (const auto& g : gates) {
    std::vector<int> h = highs;
    for (int p : {g.pa, g.pb})
      if (p >= low && std::find(h.begin(), h.end(), p) == h.end()) h.push_back(p);
    if (int(h.size()) > kHigh) {
      flush();
      h.clear();
      for (int p : {g.pa, g.pb})
        if (p >= low) h.push_back(p);
    }
    highs = h;
    sweep.push_back(g);
  }
  flush();
}

}  // namespace

std::vector<cd> reference_state(const ltns::circuit::Circuit& c, int threads) {
  const int n = c.num_qubits;
  if (n < 2 || n > 30) throw std::invalid_argument("reference_state needs 2..30 qubits");
  std::vector<Gate> gates;
  std::vector<Mat2> pending(size_t(n), kIdentity2);
  for (const auto& op : c.ops) {
    const auto& g = op.gate.matrix;
    if (op.gate.arity == 1) {
      const int q = op.qubits[0];
      pending[size_t(q)] = mul(Mat2{g[0], g[1], g[2], g[3]}, pending[size_t(q)]);
    } else if (op.gate.arity == 2) {
      const int qa = op.qubits[0], qb = op.qubits[1];
      Mat4 m;
      for (int i = 0; i < 16; ++i) m[size_t(i)] = g[size_t(i)];
      m = mul(m, kron(pending[size_t(qa)], pending[size_t(qb)]));
      pending[size_t(qa)] = pending[size_t(qb)] = kIdentity2;
      gates.push_back(Gate{n - 1 - qa, n - 1 - qb, m});
    } else {
      throw std::invalid_argument("reference_state handles 1- and 2-qubit gates only");
    }
  }
  // Trailing single-qubit gates, two qubits per fused gate.
  for (int q = 0; q < n; q += 2) {
    const int p = q + 1 < n ? q + 1 : q - 1;
    const Mat2& second = q + 1 < n ? pending[size_t(p)] : kIdentity2;
    gates.push_back(Gate{n - 1 - q, n - 1 - p, kron(pending[size_t(q)], second)});
  }
  std::vector<cd> psi(size_t(1) << n, cd(0));
  psi[0] = 1;
  apply_gates(psi, n, gates, threads);
  return psi;
}

size_t basis_index(const std::vector<int>& bits) {
  size_t idx = 0;
  for (int b : bits) idx = (idx << 1) | size_t(b != 0);
  return idx;
}

}  // namespace perfbench
