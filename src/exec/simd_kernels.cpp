// Vectorized kernel tiers. See the header for the bit-exactness contract;
// the short version: -ffp-contract=off pins the scalar reference to a fixed
// per-element chain (kKc panels ascending, p ascending, one mul+sub / mul+
// add pair per step, panel partial added to C), and every kernel here —
// vector lanes, scalar tails, bf16 mixed — reproduces exactly that chain.
// No FMA intrinsics anywhere: each multiply and add must round once.
#include "exec/simd_kernels.hpp"

#include <algorithm>
#include <cstring>

#include "exec/gemm.hpp"
#include "runtime/slice_scheduler.hpp"
#include "util/aligned_alloc.hpp"
#include "util/timer.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define LTNS_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define LTNS_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace ltns::exec {

namespace {

constexpr int kKc = 256;  // MUST match exec::cgemm's K panel (reduction order)

// 4-row and 1-row microkernels over pre-packed split-complex planes:
//   ar/ai: row-major [rows][kc] A panel planes, row stride `as`
//   br/bi: row-major [kc][n_full] B panel planes, row stride `bs`
// Each processes one lane-wide column block and adds the panel partial into
// the interleaved C rows.
using Micro4Fn = void (*)(int kc, const float* ar, const float* ai, int as, const float* br,
                          const float* bi, int bs, cfloat* c, int ldc);
using Micro1Fn = void (*)(int kc, const float* ar, const float* ai, const float* br,
                          const float* bi, int bs, cfloat* c);

// --- x86 tiers --------------------------------------------------------------

#ifdef LTNS_SIMD_X86

__attribute__((target("avx2"))) void add_store_avx2(__m256 cr, __m256 ci, cfloat* crow) {
  // Interleave (re, im) lanes back into complex order, then C += partial —
  // component-wise adds, exactly the scalar `c += cfloat(cr, ci)`.
  const __m256 t0 = _mm256_unpacklo_ps(cr, ci);
  const __m256 t1 = _mm256_unpackhi_ps(cr, ci);
  const __m256 lo = _mm256_permute2f128_ps(t0, t1, 0x20);
  const __m256 hi = _mm256_permute2f128_ps(t0, t1, 0x31);
  float* cp = reinterpret_cast<float*>(crow);
  _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), lo));
  _mm256_storeu_ps(cp + 8, _mm256_add_ps(_mm256_loadu_ps(cp + 8), hi));
}

__attribute__((target("avx2"))) void micro4_avx2(int kc, const float* ar, const float* ai,
                                                 int as, const float* br, const float* bi,
                                                 int bs, cfloat* c, int ldc) {
  __m256 cr[4], ci[4];
  for (int r = 0; r < 4; ++r) cr[r] = ci[r] = _mm256_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const __m256 brv = _mm256_loadu_ps(br + size_t(p) * bs);
    const __m256 biv = _mm256_loadu_ps(bi + size_t(p) * bs);
    for (int r = 0; r < 4; ++r) {
      const __m256 arv = _mm256_broadcast_ss(ar + size_t(r) * as + p);
      const __m256 aiv = _mm256_broadcast_ss(ai + size_t(r) * as + p);
      cr[r] = _mm256_add_ps(cr[r],
                            _mm256_sub_ps(_mm256_mul_ps(arv, brv), _mm256_mul_ps(aiv, biv)));
      ci[r] = _mm256_add_ps(ci[r],
                            _mm256_add_ps(_mm256_mul_ps(arv, biv), _mm256_mul_ps(aiv, brv)));
    }
  }
  for (int r = 0; r < 4; ++r) add_store_avx2(cr[r], ci[r], c + size_t(r) * ldc);
}

__attribute__((target("avx2"))) void micro1_avx2(int kc, const float* ar, const float* ai,
                                                 const float* br, const float* bi, int bs,
                                                 cfloat* c) {
  __m256 cr = _mm256_setzero_ps(), ci = _mm256_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const __m256 brv = _mm256_loadu_ps(br + size_t(p) * bs);
    const __m256 biv = _mm256_loadu_ps(bi + size_t(p) * bs);
    const __m256 arv = _mm256_broadcast_ss(ar + p);
    const __m256 aiv = _mm256_broadcast_ss(ai + p);
    cr = _mm256_add_ps(cr, _mm256_sub_ps(_mm256_mul_ps(arv, brv), _mm256_mul_ps(aiv, biv)));
    ci = _mm256_add_ps(ci, _mm256_add_ps(_mm256_mul_ps(arv, biv), _mm256_mul_ps(aiv, brv)));
  }
  add_store_avx2(cr, ci, c);
}

__attribute__((target("avx512f"))) void add_store_avx512(__m512 cr, __m512 ci, cfloat* crow) {
  const __m512i idx_lo =
      _mm512_set_epi32(23, 7, 22, 6, 21, 5, 20, 4, 19, 3, 18, 2, 17, 1, 16, 0);
  const __m512i idx_hi =
      _mm512_set_epi32(31, 15, 30, 14, 29, 13, 28, 12, 27, 11, 26, 10, 25, 9, 24, 8);
  const __m512 lo = _mm512_permutex2var_ps(cr, idx_lo, ci);
  const __m512 hi = _mm512_permutex2var_ps(cr, idx_hi, ci);
  float* cp = reinterpret_cast<float*>(crow);
  _mm512_storeu_ps(cp, _mm512_add_ps(_mm512_loadu_ps(cp), lo));
  _mm512_storeu_ps(cp + 16, _mm512_add_ps(_mm512_loadu_ps(cp + 16), hi));
}

__attribute__((target("avx512f"))) void micro4_avx512(int kc, const float* ar, const float* ai,
                                                      int as, const float* br, const float* bi,
                                                      int bs, cfloat* c, int ldc) {
  __m512 cr[4], ci[4];
  for (int r = 0; r < 4; ++r) cr[r] = ci[r] = _mm512_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const __m512 brv = _mm512_loadu_ps(br + size_t(p) * bs);
    const __m512 biv = _mm512_loadu_ps(bi + size_t(p) * bs);
    for (int r = 0; r < 4; ++r) {
      const __m512 arv = _mm512_set1_ps(ar[size_t(r) * as + p]);
      const __m512 aiv = _mm512_set1_ps(ai[size_t(r) * as + p]);
      cr[r] = _mm512_add_ps(cr[r],
                            _mm512_sub_ps(_mm512_mul_ps(arv, brv), _mm512_mul_ps(aiv, biv)));
      ci[r] = _mm512_add_ps(ci[r],
                            _mm512_add_ps(_mm512_mul_ps(arv, biv), _mm512_mul_ps(aiv, brv)));
    }
  }
  for (int r = 0; r < 4; ++r) add_store_avx512(cr[r], ci[r], c + size_t(r) * ldc);
}

__attribute__((target("avx512f"))) void micro1_avx512(int kc, const float* ar, const float* ai,
                                                      const float* br, const float* bi, int bs,
                                                      cfloat* c) {
  __m512 cr = _mm512_setzero_ps(), ci = _mm512_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const __m512 brv = _mm512_loadu_ps(br + size_t(p) * bs);
    const __m512 biv = _mm512_loadu_ps(bi + size_t(p) * bs);
    const __m512 arv = _mm512_set1_ps(ar[p]);
    const __m512 aiv = _mm512_set1_ps(ai[p]);
    cr = _mm512_add_ps(cr, _mm512_sub_ps(_mm512_mul_ps(arv, brv), _mm512_mul_ps(aiv, biv)));
    ci = _mm512_add_ps(ci, _mm512_add_ps(_mm512_mul_ps(arv, biv), _mm512_mul_ps(aiv, brv)));
  }
  add_store_avx512(cr, ci, c);
}

__attribute__((target("avx2"))) void gather_avx2(const uint32_t* map, const cfloat* in,
                                                 cfloat* out, size_t n) {
  const long long* base = reinterpret_cast<const long long*>(in);
  size_t o = 0;
  for (; o + 4 <= n; o += 4) {
    const __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(map + o));
    const __m256i v = _mm256_i32gather_epi64(base, idx, 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + o), v);
  }
  for (; o < n; ++o) out[o] = in[map[o]];
}

// gcc 12 flags the intrinsic's deliberately undefined pass-through operand
// (_mm512_undefined_epi32 inside _mm512_i32gather_epi64) as
// -Wmaybe-uninitialized. The gather's mask is all ones, so that operand is
// never read: a false positive, silenced for this function only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
__attribute__((target("avx512f"))) void gather_avx512(const uint32_t* map, const cfloat* in,
                                                      cfloat* out, size_t n) {
  size_t o = 0;
  for (; o + 8 <= n; o += 8) {
    const __m256i idx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(map + o));
    const __m512i v = _mm512_i32gather_epi64(idx, in, 8);
    _mm512_storeu_si512(out + o, v);
  }
  for (; o < n; ++o) out[o] = in[map[o]];
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // LTNS_SIMD_X86

// --- NEON tier --------------------------------------------------------------

#ifdef LTNS_SIMD_NEON

void add_store_neon(float32x4_t cr, float32x4_t ci, cfloat* crow) {
  float* cp = reinterpret_cast<float*>(crow);
  float32x4x2_t cv = vld2q_f32(cp);  // deinterleave: val[0] = re, val[1] = im
  cv.val[0] = vaddq_f32(cv.val[0], cr);
  cv.val[1] = vaddq_f32(cv.val[1], ci);
  vst2q_f32(cp, cv);
}

void micro4_neon(int kc, const float* ar, const float* ai, int as, const float* br,
                 const float* bi, int bs, cfloat* c, int ldc) {
  float32x4_t cr[4], ci[4];
  for (int r = 0; r < 4; ++r) cr[r] = ci[r] = vdupq_n_f32(0.f);
  for (int p = 0; p < kc; ++p) {
    const float32x4_t brv = vld1q_f32(br + size_t(p) * bs);
    const float32x4_t biv = vld1q_f32(bi + size_t(p) * bs);
    for (int r = 0; r < 4; ++r) {
      const float32x4_t arv = vdupq_n_f32(ar[size_t(r) * as + p]);
      const float32x4_t aiv = vdupq_n_f32(ai[size_t(r) * as + p]);
      cr[r] = vaddq_f32(cr[r], vsubq_f32(vmulq_f32(arv, brv), vmulq_f32(aiv, biv)));
      ci[r] = vaddq_f32(ci[r], vaddq_f32(vmulq_f32(arv, biv), vmulq_f32(aiv, brv)));
    }
  }
  for (int r = 0; r < 4; ++r) add_store_neon(cr[r], ci[r], c + size_t(r) * ldc);
}

void micro1_neon(int kc, const float* ar, const float* ai, const float* br, const float* bi,
                 int bs, cfloat* c) {
  float32x4_t cr = vdupq_n_f32(0.f), ci = vdupq_n_f32(0.f);
  for (int p = 0; p < kc; ++p) {
    const float32x4_t brv = vld1q_f32(br + size_t(p) * bs);
    const float32x4_t biv = vld1q_f32(bi + size_t(p) * bs);
    const float32x4_t arv = vdupq_n_f32(ar[p]);
    const float32x4_t aiv = vdupq_n_f32(ai[p]);
    cr = vaddq_f32(cr, vsubq_f32(vmulq_f32(arv, brv), vmulq_f32(aiv, biv)));
    ci = vaddq_f32(ci, vaddq_f32(vmulq_f32(arv, biv), vmulq_f32(aiv, brv)));
  }
  add_store_neon(cr, ci, c);
}

#endif  // LTNS_SIMD_NEON

struct TierKernels {
  size_t lanes = 0;
  Micro4Fn micro4 = nullptr;
  Micro1Fn micro1 = nullptr;
};

TierKernels tier_kernels(IsaTier tier) {
  switch (tier) {
#ifdef LTNS_SIMD_X86
    case IsaTier::kAvx2:
      return {8, micro4_avx2, micro1_avx2};
    case IsaTier::kAvx512:
      return {16, micro4_avx512, micro1_avx512};
#endif
#ifdef LTNS_SIMD_NEON
    case IsaTier::kNeon:
      return {4, micro4_neon, micro1_neon};
#endif
    default:
      return {};  // portable: no vector microkernel
  }
}

// Scalar per-element chain over one K panel — identical to micro_4x4's /
// micro_edge's per-element semantics under -ffp-contract=off. Covers lane
// tails and the whole mixed-precision portable tier (`round` = bf16).
template <bool Round>
void scalar_panel(int i0, int i1, int j0, int j1, int kc, const cfloat* a, int lda,
                  const cfloat* b, int ldb, cfloat* c, int ldc) {
  for (int i = i0; i < i1; ++i)
    for (int j = j0; j < j1; ++j) {
      float cr = 0, ci = 0;
      for (int p = 0; p < kc; ++p) {
        const cfloat av = a[size_t(i) * lda + p];
        const cfloat bv = b[size_t(p) * ldb + j];
        float ar = av.real(), ai = av.imag();
        float br = bv.real(), bi = bv.imag();
        if (Round) {
          ar = bf16_round(ar);
          ai = bf16_round(ai);
          br = bf16_round(br);
          bi = bf16_round(bi);
        }
        cr += ar * br - ai * bi;
        ci += ar * bi + ai * br;
      }
      c[size_t(i) * ldc + j] += cfloat(cr, ci);
    }
}

// Reusable aligned float scratch for the packed split-complex planes.
struct PlaneBuf {
  float* p = nullptr;
  size_t cap = 0;
  float* get(size_t need) {
    if (need > cap) {
      release();
      util::AlignedAllocator<float, exec::kTensorAlignment> a;
      p = a.allocate(need);
      cap = need;
    }
    return p;
  }
  void release() {
    if (p != nullptr) {
      util::AlignedAllocator<float, exec::kTensorAlignment> a;
      a.deallocate(p, cap);
    }
    p = nullptr;
    cap = 0;
  }
  ~PlaneBuf() { release(); }
};

// One row chunk through the vector tier: pack the panel's A/B values into
// split-complex planes (rounding through bf16 in mixed mode — packing is
// where operand precision is applied, once per value), run the lane-wide
// microkernels over full column blocks, and finish ragged columns with the
// scalar chain.
void simd_rows(const TierKernels& tk, Precision prec, int m0, int m1, int n, int k,
               const cfloat* a, const cfloat* b, cfloat* c, SimdPackStats* ps) {
  const bool round = prec == Precision::kBf16;
  std::fill_n(c + size_t(m0) * n, size_t(m1 - m0) * n, cfloat{});
  const int lanes = int(tk.lanes);
  const int n_full = n - n % lanes;
  const int mc = m1 - m0;
  PlaneBuf buf;
  for (int kp = 0; kp < k; kp += kKc) {
    const int kc = std::min(kKc, k - kp);
    if (n_full > 0) {
      // Plane layout: [ B re | B im | A re | A im ], all 64-byte aligned.
      const size_t bplane = size_t(kc) * size_t(n_full);
      const size_t aplane = size_t(mc) * size_t(kc);
      float* br = buf.get(2 * bplane + 2 * aplane);
      float* bi = br + bplane;
      float* ar = bi + bplane;
      float* ai = ar + aplane;
      Timer t;
      for (int p = 0; p < kc; ++p) {
        const cfloat* brow = b + size_t(kp + p) * n;
        float* dr = br + size_t(p) * n_full;
        float* di = bi + size_t(p) * n_full;
        for (int j = 0; j < n_full; ++j) {
          dr[j] = round ? bf16_round(brow[j].real()) : brow[j].real();
          di[j] = round ? bf16_round(brow[j].imag()) : brow[j].imag();
        }
      }
      for (int i = 0; i < mc; ++i) {
        const cfloat* arow = a + size_t(m0 + i) * k + kp;
        float* dr = ar + size_t(i) * kc;
        float* di = ai + size_t(i) * kc;
        for (int p = 0; p < kc; ++p) {
          dr[p] = round ? bf16_round(arow[p].real()) : arow[p].real();
          di[p] = round ? bf16_round(arow[p].imag()) : arow[p].imag();
        }
      }
      if (ps != nullptr) {
        ps->ns += t.seconds() * 1e9;
        ps->bytes += double(2 * bplane + 2 * aplane) * sizeof(float);
        ps->packs += 1;
      }
      for (int jb = 0; jb < n_full; jb += lanes) {
        int i = 0;
        for (; i + 4 <= mc; i += 4)
          tk.micro4(kc, ar + size_t(i) * kc, ai + size_t(i) * kc, kc, br + jb, bi + jb, n_full,
                    c + size_t(m0 + i) * n + jb, n);
        for (; i < mc; ++i)
          tk.micro1(kc, ar + size_t(i) * kc, ai + size_t(i) * kc, br + jb, bi + jb, n_full,
                    c + size_t(m0 + i) * n + jb);
      }
    }
    if (n_full < n) {
      if (round)
        scalar_panel<true>(m0, m1, n_full, n, kc, a + kp, k, b + size_t(kp) * n, n, c, n);
      else
        scalar_panel<false>(m0, m1, n_full, n, kc, a + kp, k, b + size_t(kp) * n, n, c, n);
    }
  }
}

// Portable mixed-precision rows: the scalar chain with bf16-rounded
// operands — the reference every vector mixed tier must match bitwise.
void mixed_rows_portable(int m0, int m1, int n, int k, const cfloat* a, const cfloat* b,
                         cfloat* c) {
  std::fill_n(c + size_t(m0) * n, size_t(m1 - m0) * n, cfloat{});
  for (int kp = 0; kp < k; kp += kKc) {
    const int kc = std::min(kKc, k - kp);
    scalar_panel<true>(m0, m1, 0, n, kc, a + kp, k, b + size_t(kp) * n, n, c, n);
  }
}

void gather_scalar(const uint32_t* map, const cfloat* in, cfloat* out, size_t n) {
  for (size_t o = 0; o < n; ++o) out[o] = in[map[o]];
}

// Factored-map block copy: output row x holds n blocks read from
// in + hi[x] + lo[y]. B != 0 fixes the block size at compile time.
template <size_t B>
void copy_blocks(size_t rows, size_t n, const uint32_t* hi, const uint32_t* lo, const cfloat* in,
                 cfloat* out, size_t block = B) {
  const size_t bs = B != 0 ? B : block;
  for (size_t x = 0; x < rows; ++x) {
    const cfloat* src = in + hi[x];
    for (size_t y = 0; y < n; ++y, out += bs) std::memcpy(out, src + lo[y], bs * sizeof(cfloat));
  }
}

}  // namespace

const char* isa_name(IsaTier t) {
  switch (t) {
    case IsaTier::kAvx2:
      return "avx2";
    case IsaTier::kAvx512:
      return "avx512";
    case IsaTier::kNeon:
      return "neon";
    default:
      return "portable";
  }
}

size_t isa_lanes(IsaTier t) {
  const size_t lanes = tier_kernels(t).lanes;
  return lanes != 0 ? lanes : 4;  // portable: the scalar 4x4 tile width
}

std::vector<IsaTier> compiled_isa_tiers() {
  std::vector<IsaTier> tiers{IsaTier::kPortable};
#ifdef LTNS_SIMD_X86
  tiers.push_back(IsaTier::kAvx2);
  tiers.push_back(IsaTier::kAvx512);
#endif
#ifdef LTNS_SIMD_NEON
  tiers.push_back(IsaTier::kNeon);
#endif
  return tiers;
}

const char* precision_name(Precision p) {
  return p == Precision::kBf16 ? "bf16" : "fp32";
}

bool parse_precision(const std::string& name, Precision* out) {
  if (name == "fp32")
    *out = Precision::kFp32;
  else if (name == "bf16")
    *out = Precision::kBf16;
  else
    return false;
  return true;
}

void cgemm_simd(IsaTier tier, Precision prec, int m, int n, int k, const cfloat* a,
                const cfloat* b, cfloat* c, runtime::SliceScheduler* sched, SimdPackStats* pack) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::fill_n(c, size_t(m) * n, cfloat{});
    return;
  }
  const TierKernels tk = tier_kernels(tier);
  if (tk.micro4 == nullptr) {  // portable (or a tier not compiled for this arch)
    if (prec == Precision::kFp32) {
      cgemm(m, n, k, a, b, c, sched);
    } else {
      for_row_panels(sched, m, n, k,
                     [&](int, int m0, int m1) { mixed_rows_portable(m0, m1, n, k, a, b, c); });
    }
    return;
  }
  if (sched == nullptr) {
    simd_rows(tk, prec, 0, m, n, k, a, b, c, pack);
    return;
  }
  // One packing tally per worker: a worker runs one panel at a time.
  std::vector<SimdPackStats> acc(size_t(sched->size()));
  for_row_panels(sched, m, n, k, [&](int w, int m0, int m1) {
    simd_rows(tk, prec, m0, m1, n, k, a, b, c, &acc[size_t(w)]);
  });
  if (pack != nullptr)
    for (const auto& x : acc) {
      pack->bytes += x.bytes;
      pack->ns += x.ns;
      pack->packs += x.packs;
    }
}

void permute_apply_simd(IsaTier tier, const PermuteMap& map, const cfloat* in, cfloat* out) {
  const size_t block = map.block_elems();
  const size_t rows = map.rows();
  const size_t n = map.row_len();
  const uint32_t* hi = map.hi();
  const uint32_t* lo = map.lo();
  if (block == 1) {
    // Element-granular map: hardware gather where the tier has one, one
    // gather pass per row from base in + hi[x] through the lo table.
    void (*gather)(const uint32_t*, const cfloat*, cfloat*, size_t) = gather_scalar;
#ifdef LTNS_SIMD_X86
    if (tier == IsaTier::kAvx512) gather = gather_avx512;
    if (tier == IsaTier::kAvx2) gather = gather_avx2;
#endif
    (void)tier;
    for (size_t x = 0; x < rows; ++x) gather(lo, in + hi[x], out + x * n, n);
    return;
  }
  // Blocked copies: fixed-size copies compile to straight vector moves; the
  // generic memcpy already saturates bandwidth for larger blocks.
  if (block == 2)
    copy_blocks<2>(rows, n, hi, lo, in, out);
  else if (block == 4)
    copy_blocks<4>(rows, n, hi, lo, in, out);
  else
    copy_blocks<0>(rows, n, hi, lo, in, out, block);
}

Tensor permute_simd(IsaTier tier, const Tensor& t, const std::vector<int>& new_ixs,
                    PermuteStats* stats) {
  if (t.ixs() == new_ixs) {
    if (stats) {
      stats->elements = t.size();
      stats->map_entries = 0;
      stats->block_elems = t.size();
    }
    return t;
  }
  auto perm = permutation_between(t.ixs(), new_ixs);
  PermuteMap map(perm, t.rank());
  Tensor out(new_ixs);
  permute_apply_simd(tier, map, t.raw(), out.raw());
  if (stats) {
    stats->elements = t.size();
    stats->map_entries = map.map_entries();
    stats->block_elems = map.block_elems();
  }
  return out;
}

}  // namespace ltns::exec
