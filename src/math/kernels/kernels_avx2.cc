#include <cstddef>

#include "math/kernels/kernel_table.h"

// AVX2+FMA kernels. Compiled with -mavx2 -mfma for this TU only (see
// src/math/CMakeLists.txt); nothing here runs unless DetectBestIsa or
// FVAE_FORCE_ISA selected kAvx2/kAvx512 on a CPU that has it.
//
// Numeric-parity rules (tested per-element against the scalar kernels in
// kernels_test.cc):
//  - every tail is handled with maskload/maskstore so partial vectors see
//    exactly the same arithmetic as full ones; dead lanes are zeroed
//    before any reduction so they cannot perturb sums;
//  - exp/log/tanh are Cephes-style polynomials (~2-3 ulp on floats) with
//    specials blended from the *original* input: exp(NaN)=NaN,
//    exp(>88.376)=+inf, exp(<-87.336)=0, log(0)=-inf, log(<0)=NaN,
//    log(+inf)=+inf — ExpApprox/LogApprox in src/math/special.h are the
//    scalar twins used to pin these semantics in tests;
//  - GEMM accumulates in ascending-p order in the 4-row tiles, the 1-row
//    leftovers, and every column tail, with no zero-operand skips.

#if defined(__x86_64__) || defined(_M_X64)

#include <cfloat>
#include <cmath>
#include <immintrin.h>

namespace fvae {
namespace {

// Lane mask for an n-element tail (n in [1,7]): lane i active iff i < n.
__m256i TailMask8(size_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

float HorizontalMax8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 m = _mm_max_ps(lo, hi);
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  return _mm_cvtss_f32(m);
}

double HorizontalSumPd(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  __m128d s = _mm_add_pd(lo, hi);
  s = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
  return _mm_cvtsd_f64(s);
}

// Accumulates all 8 float lanes of `v` into `acc` in double precision.
void AccumulateLanesPd(__m256 v, __m256d* acc) {
  *acc = _mm256_add_pd(*acc, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
  *acc = _mm256_add_pd(*acc, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
}

// Cephes expf, 8-wide. Range reduction x = n*ln2 + r with Cody-Waite
// splitting, degree-5 polynomial on r, 2^n via exponent-field assembly.
// Specials are blended from the original input afterwards, so the
// clamping min/max (which would otherwise absorb NaN and +/-inf) cannot
// leak wrong values. Mirrors ExpApprox in src/math/special.cc exactly.
__m256 Exp8(__m256 x0) {
  const __m256 hi = _mm256_set1_ps(88.3762626647950f);
  const __m256 lo = _mm256_set1_ps(-87.3365478515625f);
  __m256 x = _mm256_max_ps(_mm256_min_ps(x0, hi), lo);
  __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                              _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), x);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  __m256i n = _mm256_cvttps_epi32(fx);
  n = _mm256_add_epi32(n, _mm256_set1_epi32(127));
  n = _mm256_slli_epi32(n, 23);
  __m256 r = _mm256_mul_ps(y, _mm256_castsi256_ps(n));
  r = _mm256_blendv_ps(r, _mm256_set1_ps(HUGE_VALF),
                       _mm256_cmp_ps(x0, hi, _CMP_GT_OQ));
  r = _mm256_blendv_ps(r, _mm256_setzero_ps(),
                       _mm256_cmp_ps(x0, lo, _CMP_LT_OQ));
  r = _mm256_blendv_ps(r, x0, _mm256_cmp_ps(x0, x0, _CMP_UNORD_Q));
  return r;
}

// Cephes logf, 8-wide: exponent/mantissa split into [sqrt(1/2), sqrt(2)),
// degree-8 polynomial, Cody-Waite ln2 recombination. Specials from the
// original input: log(0)=-inf, log(<0)=NaN, log(+inf)=+inf, NaN->NaN.
// Subnormal inputs are treated as the smallest normal (the DAZ policy
// reads them as zero anyway). Mirrors LogApprox in src/math/special.cc.
__m256 Log8(__m256 x0) {
  const __m256 min_norm =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x00800000));
  __m256 x = _mm256_max_ps(x0, min_norm);
  __m256i xi = _mm256_castps_si256(x);
  const __m256i exp_bits = _mm256_srli_epi32(xi, 23);
  __m256 e = _mm256_cvtepi32_ps(
      _mm256_sub_epi32(exp_bits, _mm256_set1_epi32(126)));
  xi = _mm256_and_si256(xi, _mm256_set1_epi32(0x007fffff));
  xi = _mm256_or_si256(xi,
                       _mm256_castps_si256(_mm256_set1_ps(0.5f)));
  x = _mm256_castsi256_ps(xi);  // mantissa in [0.5, 1)
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 below_sqrth =
      _mm256_cmp_ps(x, _mm256_set1_ps(0.707106781186547524f), _CMP_LT_OQ);
  e = _mm256_sub_ps(e, _mm256_and_ps(one, below_sqrth));
  x = _mm256_sub_ps(_mm256_add_ps(x, _mm256_and_ps(x, below_sqrth)), one);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(7.0376836292e-2f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(-1.1514610310e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.1676998740e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(-1.2420140846e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.4249322787e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(-1.6668057665e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(2.0000714765e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(-2.4999993993e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(3.3333331174e-1f));
  y = _mm256_mul_ps(_mm256_mul_ps(y, x), z);
  y = _mm256_fmadd_ps(e, _mm256_set1_ps(-2.12194440e-4f), y);
  y = _mm256_fnmadd_ps(_mm256_set1_ps(0.5f), z, y);
  __m256 r = _mm256_add_ps(x, y);
  r = _mm256_fmadd_ps(e, _mm256_set1_ps(0.693359375f), r);
  const __m256 zero = _mm256_setzero_ps();
  r = _mm256_blendv_ps(r, _mm256_set1_ps(-HUGE_VALF),
                       _mm256_cmp_ps(x0, zero, _CMP_EQ_OQ));
  r = _mm256_blendv_ps(
      r, _mm256_set1_ps(std::numeric_limits<float>::quiet_NaN()),
      _mm256_cmp_ps(x0, zero, _CMP_LT_OQ));
  r = _mm256_blendv_ps(r, x0,
                       _mm256_cmp_ps(x0, _mm256_set1_ps(HUGE_VALF),
                                     _CMP_EQ_OQ));
  r = _mm256_blendv_ps(r, x0, _mm256_cmp_ps(x0, x0, _CMP_UNORD_Q));
  return r;
}

// Cephes tanhf, 8-wide: |x| < 0.625 uses x + x*z*P(z); otherwise
// sign(x) * (1 - 2/(exp(2|x|)+1)). exp overflow at large |x| gives
// exactly +/-1; NaN falls through the exp branch and propagates.
__m256 Tanh8(__m256 x) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256 ax = _mm256_andnot_ps(sign_mask, x);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 p = _mm256_set1_ps(-5.70498872745e-3f);
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(2.06390887954e-2f));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(-5.37397155531e-2f));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(1.33314422036e-1f));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(-3.33332819422e-1f));
  const __m256 small = _mm256_fmadd_ps(_mm256_mul_ps(x, z), p, x);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = Exp8(_mm256_add_ps(ax, ax));
  __m256 big = _mm256_sub_ps(
      one, _mm256_div_ps(_mm256_set1_ps(2.0f), _mm256_add_ps(e, one)));
  big = _mm256_or_ps(big, _mm256_and_ps(x, sign_mask));
  return _mm256_blendv_ps(big, small,
                          _mm256_cmp_ps(ax, _mm256_set1_ps(0.625f),
                                        _CMP_LT_OQ));
}

__m256 Sigmoid8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = Exp8(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

// ---- GEMM --------------------------------------------------------------

// One row of out += a_row * b: out_row[j] += sum_p a_row[p] * b[p*n + j],
// ascending p per 16/8/tail column strip.
void Gemm1RowAvx2(const float* a_row, const float* b, float* out_row,
                  size_t k, size_t n) {
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 c0 = _mm256_loadu_ps(out_row + j);
    __m256 c1 = _mm256_loadu_ps(out_row + j + 8);
    for (size_t p = 0; p < k; ++p) {
      const __m256 va = _mm256_set1_ps(a_row[p]);
      const float* b_row = b + p * n + j;
      c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b_row), c0);
      c1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b_row + 8), c1);
    }
    _mm256_storeu_ps(out_row + j, c0);
    _mm256_storeu_ps(out_row + j + 8, c1);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 c0 = _mm256_loadu_ps(out_row + j);
    for (size_t p = 0; p < k; ++p) {
      c0 = _mm256_fmadd_ps(_mm256_set1_ps(a_row[p]),
                           _mm256_loadu_ps(b + p * n + j), c0);
    }
    _mm256_storeu_ps(out_row + j, c0);
  }
  if (j < n) {
    const __m256i mask = TailMask8(n - j);
    __m256 c0 = _mm256_maskload_ps(out_row + j, mask);
    for (size_t p = 0; p < k; ++p) {
      // maskload keeps the final B row from reading past the buffer; dead
      // lanes are zero and never stored back.
      c0 = _mm256_fmadd_ps(_mm256_set1_ps(a_row[p]),
                           _mm256_maskload_ps(b + p * n + j, mask), c0);
    }
    _mm256_maskstore_ps(out_row + j, mask, c0);
  }
}

// Four rows of out += a * b sharing each B load across rows.
void Gemm4RowsAvx2(const float* a0, const float* a1, const float* a2,
                   const float* a3, const float* b, float* o0, float* o1,
                   float* o2, float* o3, size_t k, size_t n) {
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 c00 = _mm256_loadu_ps(o0 + j), c01 = _mm256_loadu_ps(o0 + j + 8);
    __m256 c10 = _mm256_loadu_ps(o1 + j), c11 = _mm256_loadu_ps(o1 + j + 8);
    __m256 c20 = _mm256_loadu_ps(o2 + j), c21 = _mm256_loadu_ps(o2 + j + 8);
    __m256 c30 = _mm256_loadu_ps(o3 + j), c31 = _mm256_loadu_ps(o3 + j + 8);
    for (size_t p = 0; p < k; ++p) {
      const float* b_row = b + p * n + j;
      const __m256 b0 = _mm256_loadu_ps(b_row);
      const __m256 b1 = _mm256_loadu_ps(b_row + 8);
      const __m256 v0 = _mm256_set1_ps(a0[p]);
      const __m256 v1 = _mm256_set1_ps(a1[p]);
      const __m256 v2 = _mm256_set1_ps(a2[p]);
      const __m256 v3 = _mm256_set1_ps(a3[p]);
      c00 = _mm256_fmadd_ps(v0, b0, c00);
      c01 = _mm256_fmadd_ps(v0, b1, c01);
      c10 = _mm256_fmadd_ps(v1, b0, c10);
      c11 = _mm256_fmadd_ps(v1, b1, c11);
      c20 = _mm256_fmadd_ps(v2, b0, c20);
      c21 = _mm256_fmadd_ps(v2, b1, c21);
      c30 = _mm256_fmadd_ps(v3, b0, c30);
      c31 = _mm256_fmadd_ps(v3, b1, c31);
    }
    _mm256_storeu_ps(o0 + j, c00);
    _mm256_storeu_ps(o0 + j + 8, c01);
    _mm256_storeu_ps(o1 + j, c10);
    _mm256_storeu_ps(o1 + j + 8, c11);
    _mm256_storeu_ps(o2 + j, c20);
    _mm256_storeu_ps(o2 + j + 8, c21);
    _mm256_storeu_ps(o3 + j, c30);
    _mm256_storeu_ps(o3 + j + 8, c31);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 c0 = _mm256_loadu_ps(o0 + j);
    __m256 c1 = _mm256_loadu_ps(o1 + j);
    __m256 c2 = _mm256_loadu_ps(o2 + j);
    __m256 c3 = _mm256_loadu_ps(o3 + j);
    for (size_t p = 0; p < k; ++p) {
      const __m256 b0 = _mm256_loadu_ps(b + p * n + j);
      c0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[p]), b0, c0);
      c1 = _mm256_fmadd_ps(_mm256_set1_ps(a1[p]), b0, c1);
      c2 = _mm256_fmadd_ps(_mm256_set1_ps(a2[p]), b0, c2);
      c3 = _mm256_fmadd_ps(_mm256_set1_ps(a3[p]), b0, c3);
    }
    _mm256_storeu_ps(o0 + j, c0);
    _mm256_storeu_ps(o1 + j, c1);
    _mm256_storeu_ps(o2 + j, c2);
    _mm256_storeu_ps(o3 + j, c3);
  }
  if (j < n) {
    const __m256i mask = TailMask8(n - j);
    __m256 c0 = _mm256_maskload_ps(o0 + j, mask);
    __m256 c1 = _mm256_maskload_ps(o1 + j, mask);
    __m256 c2 = _mm256_maskload_ps(o2 + j, mask);
    __m256 c3 = _mm256_maskload_ps(o3 + j, mask);
    for (size_t p = 0; p < k; ++p) {
      const __m256 b0 = _mm256_maskload_ps(b + p * n + j, mask);
      c0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[p]), b0, c0);
      c1 = _mm256_fmadd_ps(_mm256_set1_ps(a1[p]), b0, c1);
      c2 = _mm256_fmadd_ps(_mm256_set1_ps(a2[p]), b0, c2);
      c3 = _mm256_fmadd_ps(_mm256_set1_ps(a3[p]), b0, c3);
    }
    _mm256_maskstore_ps(o0 + j, mask, c0);
    _mm256_maskstore_ps(o1 + j, mask, c1);
    _mm256_maskstore_ps(o2 + j, mask, c2);
    _mm256_maskstore_ps(o3 + j, mask, c3);
  }
}

void GemmAccumulateAvx2(const float* a, const float* b, float* out, size_t m,
                        size_t k, size_t n) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    Gemm4RowsAvx2(a + i * k, a + (i + 1) * k, a + (i + 2) * k,
                  a + (i + 3) * k, b, out + i * n, out + (i + 1) * n,
                  out + (i + 2) * n, out + (i + 3) * n, k, n);
  }
  for (; i < m; ++i) {
    Gemm1RowAvx2(a + i * k, b, out + i * n, k, n);
  }
}

// ---- reductions and elementwise ----------------------------------------

double DotAvx2(const float* a, const float* b, size_t n) {
  // Products and accumulation in double, matching the scalar kernel's
  // precision (Dot in vector_ops.h promises a double-accumulated result).
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    acc0 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(va)),
                           _mm256_cvtps_pd(_mm256_castps256_ps128(vb)), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(va, 1)),
                           _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1)),
                           acc1);
  }
  double acc = HorizontalSumPd(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return acc;
}

void AxpyAvx2(float alpha, const float* x, float* y, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  if (i < n) {
    const __m256i mask = TailMask8(n - i);
    _mm256_maskstore_ps(
        y + i, mask,
        _mm256_fmadd_ps(va, _mm256_maskload_ps(x + i, mask),
                        _mm256_maskload_ps(y + i, mask)));
  }
}

float MaxOrNegInfAvx2(const float* x, size_t n) {
  __m256 vm = _mm256_set1_ps(-HUGE_VALF);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vm = _mm256_max_ps(vm, _mm256_loadu_ps(x + i));
  }
  float mx = HorizontalMax8(vm);
  // A NaN lane can make mx NaN (max_ps returns the second operand on
  // unordered compares) — harmless either way, since a NaN element always
  // poisons the exp/sum stage into an all-NaN output, same as scalar.
  for (; i < n; ++i) {
    if (x[i] > mx) mx = x[i];
  }
  return mx;
}

// Sum of exp(x[i] - mx) with lanes accumulated in double; when `out` is
// non-null also stores the exp values. Tail lanes are masked off before
// the reduction so dead lanes contribute exactly nothing.
double ExpSumAvx2(const float* x, float* out, float mx, size_t n) {
  const __m256 vmx = _mm256_set1_ps(mx);
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 e = Exp8(_mm256_sub_ps(_mm256_loadu_ps(x + i), vmx));
    if (out != nullptr) _mm256_storeu_ps(out + i, e);
    AccumulateLanesPd(e, &acc);
  }
  if (i < n) {
    const __m256i mask = TailMask8(n - i);
    const __m256 v = _mm256_maskload_ps(x + i, mask);
    __m256 e = Exp8(_mm256_sub_ps(v, vmx));
    if (out != nullptr) _mm256_maskstore_ps(out + i, mask, e);
    e = _mm256_and_ps(e, _mm256_castsi256_ps(mask));
    AccumulateLanesPd(e, &acc);
  }
  return HorizontalSumPd(acc);
}

void ScaleAvx2(float* x, float s, size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), vs));
  }
  if (i < n) {
    const __m256i mask = TailMask8(n - i);
    _mm256_maskstore_ps(
        x + i, mask,
        _mm256_mul_ps(_mm256_maskload_ps(x + i, mask), vs));
  }
}

void AddScalarAvx2(float* x, float s, size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_add_ps(_mm256_loadu_ps(x + i), vs));
  }
  if (i < n) {
    const __m256i mask = TailMask8(n - i);
    _mm256_maskstore_ps(
        x + i, mask,
        _mm256_add_ps(_mm256_maskload_ps(x + i, mask), vs));
  }
}

void SoftmaxAvx2(float* x, size_t n) {
  if (n == 0) return;
  const float mx = MaxOrNegInfAvx2(x, n);
  if (mx == -HUGE_VALF) {
    kernel_detail::SoftmaxDegenerate(x, n);
    return;
  }
  const double total = ExpSumAvx2(x, x, mx, n);
  ScaleAvx2(x, static_cast<float>(1.0 / total), n);
}

void LogSoftmaxAvx2(float* x, size_t n) {
  if (n == 0) return;
  const float mx = MaxOrNegInfAvx2(x, n);
  if (mx == -HUGE_VALF) {
    kernel_detail::LogSoftmaxDegenerate(x, n);
    return;
  }
  const double total = ExpSumAvx2(x, nullptr, mx, n);
  const float log_z = mx + static_cast<float>(std::log(total));
  AddScalarAvx2(x, -log_z, n);
}

double LogSumExpAvx2(const float* x, size_t n) {
  if (n == 0) return -HUGE_VAL;
  const float mx = MaxOrNegInfAvx2(x, n);
  if (mx == -HUGE_VALF) {
    return kernel_detail::HasNan(x, n)
               ? static_cast<double>(std::numeric_limits<float>::quiet_NaN())
               : -HUGE_VAL;
  }
  const double total = ExpSumAvx2(x, nullptr, mx, n);
  return static_cast<double>(mx) + std::log(total);
}

void ExpInPlaceAvx2(float* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, Exp8(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    const __m256i mask = TailMask8(n - i);
    _mm256_maskstore_ps(x + i, mask,
                        Exp8(_mm256_maskload_ps(x + i, mask)));
  }
}

void LogInPlaceAvx2(float* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, Log8(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    const __m256i mask = TailMask8(n - i);
    _mm256_maskstore_ps(x + i, mask,
                        Log8(_mm256_maskload_ps(x + i, mask)));
  }
}

void TanhInPlaceAvx2(float* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, Tanh8(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    const __m256i mask = TailMask8(n - i);
    _mm256_maskstore_ps(x + i, mask,
                        Tanh8(_mm256_maskload_ps(x + i, mask)));
  }
}

void SigmoidInPlaceAvx2(float* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, Sigmoid8(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    const __m256i mask = TailMask8(n - i);
    _mm256_maskstore_ps(x + i, mask,
                        Sigmoid8(_mm256_maskload_ps(x + i, mask)));
  }
}

void MultinomialGradAvx2(const float* log_probs, const float* counts,
                         float total_count, float* grad, size_t n) {
  const __m256 vtc = _mm256_set1_ps(total_count);
  const __m256 vmin = _mm256_set1_ps(FLT_MIN);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 t = _mm256_mul_ps(Exp8(_mm256_loadu_ps(log_probs + i)), vtc);
    // Ordered < keeps NaN lanes intact while flushing subnormal mass.
    t = _mm256_andnot_ps(_mm256_cmp_ps(t, vmin, _CMP_LT_OQ), t);
    _mm256_storeu_ps(grad + i,
                     _mm256_sub_ps(t, _mm256_loadu_ps(counts + i)));
  }
  if (i < n) {
    const __m256i mask = TailMask8(n - i);
    __m256 t = _mm256_mul_ps(
        Exp8(_mm256_maskload_ps(log_probs + i, mask)), vtc);
    t = _mm256_andnot_ps(_mm256_cmp_ps(t, vmin, _CMP_LT_OQ), t);
    _mm256_maskstore_ps(
        grad + i, mask,
        _mm256_sub_ps(t, _mm256_maskload_ps(counts + i, mask)));
  }
}

}  // namespace

void FillAvx2(KernelTable* t) {
  t->gemm_accumulate = GemmAccumulateAvx2;
  t->dot = DotAvx2;
  t->axpy = AxpyAvx2;
  t->softmax_inplace = SoftmaxAvx2;
  t->log_softmax_inplace = LogSoftmaxAvx2;
  t->log_sum_exp = LogSumExpAvx2;
  t->exp_inplace = ExpInPlaceAvx2;
  t->log_inplace = LogInPlaceAvx2;
  t->tanh_inplace = TanhInPlaceAvx2;
  t->sigmoid_inplace = SigmoidInPlaceAvx2;
  t->multinomial_grad = MultinomialGradAvx2;
}

}  // namespace fvae

#else  // !x86_64

namespace fvae {

void FillAvx2(KernelTable* t) { FillScalar(t); }

}  // namespace fvae

#endif
