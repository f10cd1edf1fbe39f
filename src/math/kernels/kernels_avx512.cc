#include <cstddef>

#include "math/kernels/kernel_table.h"

// AVX-512 kernels: the reductions and elementwise kernels are the
// algorithms of kernels_avx2.cc at twice the width, with __mmask16
// predication replacing maskload/maskstore emulation; the GEMM runs wider
// register tiles (8x32) with the same per-element FMA chain. Compiled with
// -mavx512{f,dq,bw,vl} for this TU only. The polynomial cores
// (Exp16/Tanh16/Log16/SinCosTurn16) use the identical Cephes coefficients
// and FMA shapes as the AVX2 versions, so per-element results agree
// bitwise between the two vector ISAs.

#if defined(__x86_64__) || defined(_M_X64)

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <immintrin.h>

#include "common/random.h"

namespace fvae {
namespace {

__mmask16 TailMask16(size_t n) {
  return static_cast<__mmask16>((1u << n) - 1u);
}

// The maskz extract variants are used throughout instead of the plain
// ones: GCC's plain _mm512_extract*/_mm512_reduce_* wrappers pass an
// _mm256_undefined_*() passthrough operand that trips -Wuninitialized.
__m256 High256(__m512 v) {
  return _mm512_maskz_extractf32x8_ps(static_cast<__mmask8>(0xff), v, 1);
}

__m256d High256d(__m512d v) {
  return _mm512_maskz_extractf64x4_pd(static_cast<__mmask8>(0xf), v, 1);
}

double HorizontalSumPd512(__m512d v) {
  const __m256d s = _mm256_add_pd(_mm512_castpd512_pd256(v), High256d(v));
  __m128d lo = _mm256_castpd256_pd128(s);
  lo = _mm_add_pd(lo, _mm256_extractf128_pd(s, 1));
  lo = _mm_add_sd(lo, _mm_unpackhi_pd(lo, lo));
  return _mm_cvtsd_f64(lo);
}

float HorizontalMax512(__m512 v) {
  const __m256 m8 = _mm256_max_ps(_mm512_castps512_ps256(v), High256(v));
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(m8),
                        _mm256_extractf128_ps(m8, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  return _mm_cvtss_f32(m);
}

void AccumulateLanesPd512(__m512 v, __m512d* acc) {
  *acc = _mm512_add_pd(*acc,
                       _mm512_cvtps_pd(_mm512_castps512_ps256(v)));
  *acc = _mm512_add_pd(*acc, _mm512_cvtps_pd(High256(v)));
}

// Cephes expf, 16-wide; see Exp8 in kernels_avx2.cc for the derivation.
__m512 Exp16(__m512 x0) {
  const __m512 hi = _mm512_set1_ps(88.3762626647950f);
  const __m512 lo = _mm512_set1_ps(-87.3365478515625f);
  __m512 x = _mm512_max_ps(_mm512_min_ps(x0, hi), lo);
  __m512 fx = _mm512_fmadd_ps(x, _mm512_set1_ps(1.44269504088896341f),
                              _mm512_set1_ps(0.5f));
  fx = _mm512_roundscale_ps(fx, 0x09);  // floor, suppress exceptions
  x = _mm512_fnmadd_ps(fx, _mm512_set1_ps(0.693359375f), x);
  x = _mm512_fnmadd_ps(fx, _mm512_set1_ps(-2.12194440e-4f), x);
  const __m512 z = _mm512_mul_ps(x, x);
  __m512 y = _mm512_set1_ps(1.9875691500e-4f);
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.3981999507e-3f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(8.3334519073e-3f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(4.1665795894e-2f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.6666665459e-1f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(5.0000001201e-1f));
  y = _mm512_fmadd_ps(y, z, x);
  y = _mm512_add_ps(y, _mm512_set1_ps(1.0f));
  __m512i n = _mm512_cvttps_epi32(fx);
  n = _mm512_add_epi32(n, _mm512_set1_epi32(127));
  n = _mm512_slli_epi32(n, 23);
  __m512 r = _mm512_mul_ps(y, _mm512_castsi512_ps(n));
  r = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(x0, hi, _CMP_GT_OQ), r,
                           _mm512_set1_ps(HUGE_VALF));
  r = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(x0, lo, _CMP_LT_OQ), r,
                           _mm512_setzero_ps());
  r = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(x0, x0, _CMP_UNORD_Q), r, x0);
  return r;
}

// Cephes tanhf, 16-wide; see Tanh8 in kernels_avx2.cc.
__m512 Tanh16(__m512 x) {
  const __m512 sign_mask = _mm512_set1_ps(-0.0f);
  const __m512 ax = _mm512_andnot_ps(sign_mask, x);
  const __m512 z = _mm512_mul_ps(x, x);
  __m512 p = _mm512_set1_ps(-5.70498872745e-3f);
  p = _mm512_fmadd_ps(p, z, _mm512_set1_ps(2.06390887954e-2f));
  p = _mm512_fmadd_ps(p, z, _mm512_set1_ps(-5.37397155531e-2f));
  p = _mm512_fmadd_ps(p, z, _mm512_set1_ps(1.33314422036e-1f));
  p = _mm512_fmadd_ps(p, z, _mm512_set1_ps(-3.33332819422e-1f));
  const __m512 small = _mm512_fmadd_ps(_mm512_mul_ps(x, z), p, x);
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 e = Exp16(_mm512_add_ps(ax, ax));
  __m512 big = _mm512_sub_ps(
      one, _mm512_div_ps(_mm512_set1_ps(2.0f), _mm512_add_ps(e, one)));
  big = _mm512_or_ps(big, _mm512_and_ps(x, sign_mask));
  return _mm512_mask_blend_ps(
      _mm512_cmp_ps_mask(ax, _mm512_set1_ps(0.625f), _CMP_LT_OQ), big,
      small);
}

// Cephes logf, 16-wide, for positive normal x; see Log8 in kernels_avx2.cc.
__m512 Log16(__m512 x) {
  const __m512i bits = _mm512_castps_si512(x);
  __m512i e = _mm512_sub_epi32(_mm512_srli_epi32(bits, 23),
                               _mm512_set1_epi32(126));
  const __m512 m = _mm512_castsi512_ps(_mm512_or_si512(
      _mm512_and_si512(bits, _mm512_set1_epi32(0x007fffff)),
      _mm512_set1_epi32(0x3f000000)));
  const __mmask16 low =
      _mm512_cmp_ps_mask(m, _mm512_set1_ps(0.707106781186547524f),
                         _CMP_LT_OQ);
  __m512 f = _mm512_sub_ps(m, _mm512_set1_ps(1.0f));
  f = _mm512_mask_add_ps(f, low, f, m);
  e = _mm512_mask_sub_epi32(e, low, e, _mm512_set1_epi32(1));
  const __m512 z = _mm512_mul_ps(f, f);
  __m512 y = _mm512_set1_ps(7.0376836292e-2f);
  y = _mm512_fmadd_ps(y, f, _mm512_set1_ps(-1.1514610310e-1f));
  y = _mm512_fmadd_ps(y, f, _mm512_set1_ps(1.1676998740e-1f));
  y = _mm512_fmadd_ps(y, f, _mm512_set1_ps(-1.2420140846e-1f));
  y = _mm512_fmadd_ps(y, f, _mm512_set1_ps(1.4249322787e-1f));
  y = _mm512_fmadd_ps(y, f, _mm512_set1_ps(-1.6668057665e-1f));
  y = _mm512_fmadd_ps(y, f, _mm512_set1_ps(2.0000714765e-1f));
  y = _mm512_fmadd_ps(y, f, _mm512_set1_ps(-2.4999993993e-1f));
  y = _mm512_fmadd_ps(y, f, _mm512_set1_ps(3.3333331174e-1f));
  y = _mm512_mul_ps(y, f);
  y = _mm512_mul_ps(y, z);
  const __m512 fe = _mm512_cvtepi32_ps(e);
  y = _mm512_fmadd_ps(fe, _mm512_set1_ps(-2.12194440e-4f), y);
  y = _mm512_fmadd_ps(z, _mm512_set1_ps(-0.5f), y);
  const __m512 r = _mm512_add_ps(f, y);
  return _mm512_fmadd_ps(fe, _mm512_set1_ps(0.693359375f), r);
}

// sin and cos of 2*pi * turn / 2^24 for 24-bit turns, 16-wide; see
// SinCosTurn8 in kernels_avx2.cc.
void SinCosTurn16(__m512i turn, __m512* sin_out, __m512* cos_out) {
  const __m512i shifted = _mm512_add_epi32(turn, _mm512_set1_epi32(1 << 21));
  const __m512i q = _mm512_and_si512(_mm512_srli_epi32(shifted, 22),
                                     _mm512_set1_epi32(3));
  const __m512i t = _mm512_sub_epi32(
      _mm512_and_si512(shifted, _mm512_set1_epi32((1 << 22) - 1)),
      _mm512_set1_epi32(1 << 21));
  const __m512 a =
      _mm512_mul_ps(_mm512_cvtepi32_ps(t), _mm512_set1_ps(0x1.921fb6p-22f));
  const __m512 z = _mm512_mul_ps(a, a);
  __m512 sp = _mm512_set1_ps(-1.9515295891e-4f);
  sp = _mm512_fmadd_ps(sp, z, _mm512_set1_ps(8.3321608736e-3f));
  sp = _mm512_fmadd_ps(sp, z, _mm512_set1_ps(-1.6666654611e-1f));
  const __m512 s = _mm512_fmadd_ps(_mm512_mul_ps(z, a), sp, a);
  __m512 cp = _mm512_set1_ps(2.443315711809948e-5f);
  cp = _mm512_fmadd_ps(cp, z, _mm512_set1_ps(-1.388731625493765e-3f));
  cp = _mm512_fmadd_ps(cp, z, _mm512_set1_ps(4.166664568298827e-2f));
  const __m512 c = _mm512_fmadd_ps(
      _mm512_mul_ps(z, z), cp,
      _mm512_fmadd_ps(z, _mm512_set1_ps(-0.5f), _mm512_set1_ps(1.0f)));
  const __mmask16 odd = _mm512_test_epi32_mask(q, _mm512_set1_epi32(1));
  const __m512 sin_a = _mm512_mask_blend_ps(odd, s, c);
  const __m512 cos_a = _mm512_mask_blend_ps(odd, c, s);
  const __m512i two = _mm512_set1_epi32(2);
  const __m512i sin_sign = _mm512_slli_epi32(_mm512_and_si512(q, two), 30);
  const __m512i cos_sign = _mm512_slli_epi32(
      _mm512_and_si512(_mm512_add_epi32(q, _mm512_set1_epi32(1)), two), 30);
  *sin_out = _mm512_castsi512_ps(
      _mm512_xor_si512(_mm512_castps_si512(sin_a), sin_sign));
  *cos_out = _mm512_castsi512_ps(
      _mm512_xor_si512(_mm512_castps_si512(cos_a), cos_sign));
}

// NormalFillHash on 16 counters: lowbias32 keyed by each half of the
// stream.
__m512i Mix32x16(__m512i x) {
  x = _mm512_xor_si512(x, _mm512_srli_epi32(x, 16));
  x = _mm512_mullo_epi32(x, _mm512_set1_epi32(0x7feb352d));
  x = _mm512_xor_si512(x, _mm512_srli_epi32(x, 15));
  x = _mm512_mullo_epi32(x, _mm512_set1_epi32(static_cast<int>(0x846ca68bu)));
  return _mm512_xor_si512(x, _mm512_srli_epi32(x, 16));
}

__m512i NormalFillHash16(__m512i counter, __m512i lo, __m512i hi) {
  return Mix32x16(_mm512_xor_si512(Mix32x16(_mm512_xor_si512(counter, lo)),
                                   hi));
}

// ---- GEMM --------------------------------------------------------------

// One register tile: rows [0, R) x columns [j, j + 16·V) of `out` stay in
// R·V zmm accumulators for the whole k loop, so each k step costs V loads
// of B, R broadcasts of A and R·V FMAs. Two FMA ports at 4-cycle latency
// need 8+ independent chains to stay busy: the 8x32 tile keeps 16. The
// last vector of each row is predicated by `mask` (all ones except in the
// column tail). Every output element is one FMA chain over ascending p
// starting from `out`, in every tile shape and at every row stride, so
// results are bitwise those of the AVX2 kernels. GCC 12 does not fully
// unroll the r/v loops at -O2 on its own; left rolled, the accumulators
// spill.
template <int R, int V>
void GemmTileAvx512(const float* a, const float* b, float* out, size_t k,
                    size_t ldb, size_t ldc, size_t j, __mmask16 mask) {
  auto lane_mask = [mask](int v) {
    return v + 1 == V ? mask : static_cast<__mmask16>(0xffff);
  };
  b += j;
  out += j;
  __m512 c[R][V];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      c[r][v] = _mm512_maskz_loadu_ps(lane_mask(v), out + r * ldc + 16 * v);
    }
  }
  for (size_t p = 0; p < k; ++p) {
    const float* b_row = b + p * ldb;
    __m512 bv[V];
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      bv[v] = _mm512_maskz_loadu_ps(lane_mask(v), b_row + 16 * v);
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m512 va = _mm512_set1_ps(a[r * k + p]);
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        c[r][v] = _mm512_fmadd_ps(va, bv[v], c[r][v]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      _mm512_mask_storeu_ps(out + r * ldc + 16 * v, lane_mask(v), c[r][v]);
    }
  }
}

// R rows of out += a * b, all n columns. The multi-row tiles run 32
// columns wide (R·2 accumulators); the single row has only one broadcast
// to reuse, so it gets its chains from width instead: 128-column strips
// (8 accumulators), then 32. Leftover columns run 16 wide, the last one
// masked.
template <int R>
void GemmRowsAvx512(const float* a, const float* b, float* out, size_t k,
                    size_t n, size_t ldb, size_t ldc) {
  constexpr __mmask16 kFull = 0xffff;
  size_t j = 0;
  if constexpr (R == 1) {
    for (; j + 128 <= n; j += 128) {
      GemmTileAvx512<1, 8>(a, b, out, k, ldb, ldc, j, kFull);
    }
  }
  for (; j + 32 <= n; j += 32) {
    GemmTileAvx512<R, 2>(a, b, out, k, ldb, ldc, j, kFull);
  }
  for (; j < n; j += 16) {
    GemmTileAvx512<R, 1>(a, b, out, k, ldb, ldc, j,
                         TailMask16(n - j < 16 ? n - j : 16));
  }
}

static_assert(kGemmRowTile % 8 == 0, "pooled splits must not cut a tile");

void GemmAccumulateAvx512(const float* a, const float* b, float* out,
                          size_t m, size_t k, size_t n, size_t ldb,
                          size_t ldc) {
  size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    GemmRowsAvx512<8>(a + i * k, b, out + i * ldc, k, n, ldb, ldc);
  }
  if (i + 4 <= m) {
    GemmRowsAvx512<4>(a + i * k, b, out + i * ldc, k, n, ldb, ldc);
    i += 4;
  }
  for (; i < m; ++i) {
    GemmRowsAvx512<1>(a + i * k, b, out + i * ldc, k, n, ldb, ldc);
  }
}

// ---- reductions and elementwise ----------------------------------------

double DotAvx512(const float* a, const float* b, size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 va = _mm512_loadu_ps(a + i);
    const __m512 vb = _mm512_loadu_ps(b + i);
    acc0 = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm512_castps512_ps256(va)),
                           _mm512_cvtps_pd(_mm512_castps512_ps256(vb)),
                           acc0);
    acc1 = _mm512_fmadd_pd(_mm512_cvtps_pd(High256(va)),
                           _mm512_cvtps_pd(High256(vb)), acc1);
  }
  double acc = HorizontalSumPd512(_mm512_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return acc;
}

void AxpyAvx512(float alpha, const float* x, float* y, size_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        y + i, _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i),
                               _mm512_loadu_ps(y + i)));
  }
  if (i < n) {
    const __mmask16 mask = TailMask16(n - i);
    _mm512_mask_storeu_ps(
        y + i, mask,
        _mm512_fmadd_ps(va, _mm512_maskz_loadu_ps(mask, x + i),
                        _mm512_maskz_loadu_ps(mask, y + i)));
  }
}

// y + v*x as two rounded operations. The TU builds with -ffp-contract=off,
// so the compiler cannot fold the pair into one FMA (scale_add's contract).
__m512 ScaleAdd16(__m512 vv, __m512 x, __m512 y) {
  return _mm512_add_ps(y, _mm512_mul_ps(vv, x));
}

void ScaleAddAvx512(float v, const float* x, float* y, size_t n) {
  const __m512 vv = _mm512_set1_ps(v);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        y + i, ScaleAdd16(vv, _mm512_loadu_ps(x + i), _mm512_loadu_ps(y + i)));
  }
  if (i < n) {
    const __mmask16 mask = TailMask16(n - i);
    _mm512_mask_storeu_ps(y + i, mask,
                          ScaleAdd16(vv, _mm512_maskz_loadu_ps(mask, x + i),
                                     _mm512_maskz_loadu_ps(mask, y + i)));
  }
}

// One AdaGrad step on 16 lanes, operation for operation the scalar loop:
// acc + g*g, then w - (lr*g) / (sqrt(acc) + eps).
void AdagradStep16(__m512 vlr, __m512 veps, __m512* w, __m512* acc,
                   __m512 g) {
  *acc = _mm512_add_ps(*acc, _mm512_mul_ps(g, g));
  const __m512 step =
      _mm512_div_ps(_mm512_mul_ps(vlr, g),
                    _mm512_add_ps(_mm512_sqrt_ps(*acc), veps));
  *w = _mm512_sub_ps(*w, step);
}

void AdagradStepAvx512(float* w, float* acc, float* g, float lr, float eps,
                       size_t n) {
  const __m512 vlr = _mm512_set1_ps(lr);
  const __m512 veps = _mm512_set1_ps(eps);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 vw = _mm512_loadu_ps(w + i);
    __m512 va = _mm512_loadu_ps(acc + i);
    AdagradStep16(vlr, veps, &vw, &va, _mm512_loadu_ps(g + i));
    _mm512_storeu_ps(w + i, vw);
    _mm512_storeu_ps(acc + i, va);
    _mm512_storeu_ps(g + i, _mm512_setzero_ps());
  }
  if (i < n) {
    const __mmask16 mask = TailMask16(n - i);
    __m512 vw = _mm512_maskz_loadu_ps(mask, w + i);
    __m512 va = _mm512_maskz_loadu_ps(mask, acc + i);
    AdagradStep16(vlr, veps, &vw, &va, _mm512_maskz_loadu_ps(mask, g + i));
    _mm512_mask_storeu_ps(w + i, mask, vw);
    _mm512_mask_storeu_ps(acc + i, mask, va);
    _mm512_mask_storeu_ps(g + i, mask, _mm512_setzero_ps());
  }
}

float MaxOrNegInfAvx512(const float* x, size_t n) {
  __m512 vm = _mm512_set1_ps(-HUGE_VALF);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vm = _mm512_max_ps(vm, _mm512_loadu_ps(x + i));
  }
  float mx = HorizontalMax512(vm);
  for (; i < n; ++i) {
    if (x[i] > mx) mx = x[i];
  }
  return mx;
}

double ExpSumAvx512(const float* x, float* out, float mx, size_t n) {
  const __m512 vmx = _mm512_set1_ps(mx);
  __m512d acc = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 e = Exp16(_mm512_sub_ps(_mm512_loadu_ps(x + i), vmx));
    if (out != nullptr) _mm512_storeu_ps(out + i, e);
    AccumulateLanesPd512(e, &acc);
  }
  if (i < n) {
    const __mmask16 mask = TailMask16(n - i);
    const __m512 v = _mm512_maskz_loadu_ps(mask, x + i);
    __m512 e = Exp16(_mm512_sub_ps(v, vmx));
    if (out != nullptr) _mm512_mask_storeu_ps(out + i, mask, e);
    e = _mm512_maskz_mov_ps(mask, e);
    AccumulateLanesPd512(e, &acc);
  }
  return HorizontalSumPd512(acc);
}

void ScaleAvx512(float* x, float s, size_t n) {
  const __m512 vs = _mm512_set1_ps(s);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(x + i, _mm512_mul_ps(_mm512_loadu_ps(x + i), vs));
  }
  if (i < n) {
    const __mmask16 mask = TailMask16(n - i);
    _mm512_mask_storeu_ps(
        x + i, mask,
        _mm512_mul_ps(_mm512_maskz_loadu_ps(mask, x + i), vs));
  }
}

void AddScalarAvx512(float* x, float s, size_t n) {
  const __m512 vs = _mm512_set1_ps(s);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(x + i, _mm512_add_ps(_mm512_loadu_ps(x + i), vs));
  }
  if (i < n) {
    const __mmask16 mask = TailMask16(n - i);
    _mm512_mask_storeu_ps(
        x + i, mask,
        _mm512_add_ps(_mm512_maskz_loadu_ps(mask, x + i), vs));
  }
}

void SoftmaxAvx512(float* x, size_t n) {
  if (n == 0) return;
  const float mx = MaxOrNegInfAvx512(x, n);
  if (mx == -HUGE_VALF) {
    kernel_detail::SoftmaxDegenerate(x, n);
    return;
  }
  const double total = ExpSumAvx512(x, x, mx, n);
  ScaleAvx512(x, static_cast<float>(1.0 / total), n);
}

void LogSoftmaxAvx512(float* x, size_t n) {
  if (n == 0) return;
  const float mx = MaxOrNegInfAvx512(x, n);
  if (mx == -HUGE_VALF) {
    kernel_detail::LogSoftmaxDegenerate(x, n);
    return;
  }
  const double total = ExpSumAvx512(x, nullptr, mx, n);
  const float log_z = mx + static_cast<float>(std::log(total));
  AddScalarAvx512(x, -log_z, n);
}

void ExpInPlaceAvx512(float* x, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(x + i, Exp16(_mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const __mmask16 mask = TailMask16(n - i);
    _mm512_mask_storeu_ps(x + i, mask,
                          Exp16(_mm512_maskz_loadu_ps(mask, x + i)));
  }
}

void TanhInPlaceAvx512(float* x, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(x + i, Tanh16(_mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const __mmask16 mask = TailMask16(n - i);
    _mm512_mask_storeu_ps(x + i, mask,
                          Tanh16(_mm512_maskz_loadu_ps(mask, x + i)));
  }
}

void MultinomialGradAvx512(const float* log_probs, const float* counts,
                           float total_count, float scale, float* grad,
                           size_t n) {
  const __m512 vtc = _mm512_set1_ps(total_count);
  const __m512 vscale = _mm512_set1_ps(scale);
  const __m512 vmin = _mm512_set1_ps(FLT_MIN);
  const __m512 zero = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 t = _mm512_mul_ps(Exp16(_mm512_loadu_ps(log_probs + i)), vtc);
    t = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(t, vmin, _CMP_LT_OQ), t,
                             zero);
    _mm512_storeu_ps(
        grad + i,
        _mm512_mul_ps(_mm512_sub_ps(t, _mm512_loadu_ps(counts + i)), vscale));
  }
  if (i < n) {
    const __mmask16 mask = TailMask16(n - i);
    __m512 t = _mm512_mul_ps(
        Exp16(_mm512_maskz_loadu_ps(mask, log_probs + i)), vtc);
    t = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(t, vmin, _CMP_LT_OQ), t,
                             zero);
    _mm512_mask_storeu_ps(
        grad + i, mask,
        _mm512_mul_ps(_mm512_sub_ps(t, _mm512_maskz_loadu_ps(mask, counts + i)),
                      vscale));
  }
}

// 16 Box-Muller pairs per step: 32 consecutive elements. Element d's
// counter is d itself, so the pair's u1 comes from the even counters and
// its turn from the odd ones; the cos/sin results are interleaved back
// into element order, and the last step stores only the elements < dim.
void NormalFillAvx512(uint64_t seed, uint64_t key, float stddev, float* row,
                      size_t dim) {
  const uint64_t stream = MixKey(seed, key);
  const __m512i lo = _mm512_set1_epi32(static_cast<int>(stream));
  const __m512i hi = _mm512_set1_epi32(static_cast<int>(stream >> 32));
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i even_lanes = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16,
                                               18, 20, 22, 24, 26, 28, 30);
  const __m512i first_half = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4,
                                               20, 5, 21, 6, 22, 7, 23);
  const __m512i second_half = _mm512_setr_epi32(8, 24, 9, 25, 10, 26, 11, 27,
                                                12, 28, 13, 29, 14, 30, 15, 31);
  const __m512 vstddev = _mm512_set1_ps(stddev);
  for (size_t d = 0; d < dim; d += 32) {
    const __m512i even = _mm512_add_epi32(
        _mm512_set1_epi32(static_cast<int>(d)), even_lanes);
    const __m512i h1 = NormalFillHash16(even, lo, hi);
    const __m512i h2 = NormalFillHash16(_mm512_add_epi32(even, one), lo, hi);
    const __m512 u1 = _mm512_mul_ps(
        _mm512_cvtepi32_ps(_mm512_add_epi32(_mm512_srli_epi32(h1, 8), one)),
        _mm512_set1_ps(0x1p-24f));
    const __m512 scaled_r = _mm512_mul_ps(
        vstddev,
        _mm512_sqrt_ps(_mm512_mul_ps(Log16(u1), _mm512_set1_ps(-2.0f))));
    __m512 sin_theta, cos_theta;
    SinCosTurn16(_mm512_srli_epi32(h2, 8), &sin_theta, &cos_theta);
    const __m512 even_out = _mm512_mul_ps(scaled_r, cos_theta);
    const __m512 odd_out = _mm512_mul_ps(scaled_r, sin_theta);
    const __m512 out0 = _mm512_permutex2var_ps(even_out, first_half, odd_out);
    const __m512 out1 = _mm512_permutex2var_ps(even_out, second_half, odd_out);
    const size_t left = dim - d;
    if (left >= 32) {
      _mm512_storeu_ps(row + d, out0);
      _mm512_storeu_ps(row + d + 16, out1);
    } else if (left > 16) {
      _mm512_storeu_ps(row + d, out0);
      _mm512_mask_storeu_ps(row + d + 16, TailMask16(left - 16), out1);
    } else {
      _mm512_mask_storeu_ps(row + d, TailMask16(left), out0);
    }
  }
}

}  // namespace

void FillAvx512(KernelTable* t) {
  t->gemm_accumulate = GemmAccumulateAvx512;
  t->dot = DotAvx512;
  t->axpy = AxpyAvx512;
  t->scale_add = ScaleAddAvx512;
  t->adagrad_step = AdagradStepAvx512;
  t->softmax_inplace = SoftmaxAvx512;
  t->log_softmax_inplace = LogSoftmaxAvx512;
  t->exp_inplace = ExpInPlaceAvx512;
  t->tanh_inplace = TanhInPlaceAvx512;
  t->multinomial_grad = MultinomialGradAvx512;
  t->normal_fill = NormalFillAvx512;
}

}  // namespace fvae

#else  // !x86_64

namespace fvae {

void FillAvx512(KernelTable* t) { FillScalar(t); }

}  // namespace fvae

#endif
