#include "exec/gemm.hpp"

#include <algorithm>
#include <vector>

namespace ltns::exec {

void cgemm_naive(int m, int n, int k, const cfloat* a, const cfloat* b, cfloat* c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      cfloat acc{0, 0};
      for (int p = 0; p < k; ++p) acc += a[size_t(i) * k + p] * b[size_t(p) * n + j];
      c[size_t(i) * n + j] = acc;
    }
  }
}

namespace {

// 4x4 register tile over a K-strip. Split-complex accumulation keeps the
// compiler free to vectorize the float math.
inline void micro_4x4(int k, const cfloat* a, int lda, const cfloat* b, int ldb, cfloat* c,
                      int ldc) {
  float cr[4][4] = {}, ci[4][4] = {};
  for (int p = 0; p < k; ++p) {
    float br[4], bi[4];
    for (int j = 0; j < 4; ++j) {
      br[j] = b[size_t(p) * ldb + j].real();
      bi[j] = b[size_t(p) * ldb + j].imag();
    }
    for (int i = 0; i < 4; ++i) {
      const cfloat av = a[size_t(i) * lda + p];
      const float ar = av.real(), ai = av.imag();
      for (int j = 0; j < 4; ++j) {
        cr[i][j] += ar * br[j] - ai * bi[j];
        ci[i][j] += ar * bi[j] + ai * br[j];
      }
    }
  }
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) c[size_t(i) * ldc + j] += cfloat(cr[i][j], ci[i][j]);
}

// Generic edge tile.
inline void micro_edge(int mm, int nn, int k, const cfloat* a, int lda, const cfloat* b, int ldb,
                       cfloat* c, int ldc) {
  for (int i = 0; i < mm; ++i)
    for (int j = 0; j < nn; ++j) {
      cfloat acc{0, 0};
      for (int p = 0; p < k; ++p) acc += a[size_t(i) * lda + p] * b[size_t(p) * ldb + j];
      c[size_t(i) * ldc + j] += acc;
    }
}

constexpr int kKc = 256;  // K-panel so a 4-row A strip + 4-col B strip fit in L1

void cgemm_rows(int m0, int m1, int n, int k, const cfloat* a, const cfloat* b, cfloat* c) {
  std::fill_n(c + size_t(m0) * n, size_t(m1 - m0) * n, cfloat{});
  for (int kp = 0; kp < k; kp += kKc) {
    const int kc = std::min(kKc, k - kp);
    int i = m0;
    for (; i + 4 <= m1; i += 4) {
      int j = 0;
      for (; j + 4 <= n; j += 4)
        micro_4x4(kc, a + size_t(i) * k + kp, k, b + size_t(kp) * n + j, n, c + size_t(i) * n + j,
                  n);
      if (j < n)
        micro_edge(4, n - j, kc, a + size_t(i) * k + kp, k, b + size_t(kp) * n + j, n,
                   c + size_t(i) * n + j, n);
    }
    if (i < m1)
      micro_edge(m1 - i, n, kc, a + size_t(i) * k + kp, k, b + size_t(kp) * n, n,
                 c + size_t(i) * n, n);
  }
}

}  // namespace

void cgemm(int m, int n, int k, const cfloat* a, const cfloat* b, cfloat* c, ThreadPool* pool) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::fill_n(c, size_t(m) * n, cfloat{});
    return;
  }
  // Parallelize across row panels only when the work amortizes the fork.
  const double work = double(m) * n * k;
  if (pool != nullptr && pool->size() > 1 && work > 1 << 16) {
    pool->parallel_for(size_t(m), [&](int, size_t b0, size_t e0) {
      cgemm_rows(int(b0), int(e0), n, k, a, b, c);
    });
  } else {
    cgemm_rows(0, m, n, k, a, b, c);
  }
}

}  // namespace ltns::exec
