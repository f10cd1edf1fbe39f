#include "math/special.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/random.h"

namespace fvae {

double Digamma(double x) {
  FVAE_CHECK(x > 0.0) << "Digamma domain error";
  double result = 0.0;
  // Shift x upward until the asymptotic expansion is accurate.
  while (x < 6.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  // Asymptotic series: ln x - 1/(2x) - sum B_2n / (2n x^{2n}).
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv;
  result -= inv2 * (1.0 / 12.0 -
                    inv2 * (1.0 / 120.0 -
                            inv2 * (1.0 / 252.0 -
                                    inv2 * (1.0 / 240.0 -
                                            inv2 * (1.0 / 132.0)))));
  return result;
}

double LogGamma(double x) { return std::lgamma(x); }

double ExpDigamma(double x) { return std::exp(Digamma(x)); }

// Scalar twin of Exp8/Exp16 in src/math/kernels/: the same Cephes range
// reduction, coefficients, and FMA shapes (std::fma mirrors the vector
// fmadd/fnmadd exactly), so the results are bit-identical to the SIMD
// lanes. Keep the three implementations in lockstep.

float ExpApprox(float x0) {
  if (std::isnan(x0)) return x0;
  if (x0 > 88.3762626647950f) return HUGE_VALF;
  if (x0 < -87.3365478515625f) return 0.0f;
  float x = x0;
  // x = n*ln2 + r via Cody-Waite; ln2 split keeps r's rounding exact.
  float fx = std::floor(std::fma(x, 1.44269504088896341f, 0.5f));
  x = std::fma(-fx, 0.693359375f, x);
  x = std::fma(fx, 2.12194440e-4f, x);
  const float z = x * x;
  float y = 1.9875691500e-4f;
  y = std::fma(y, x, 1.3981999507e-3f);
  y = std::fma(y, x, 8.3334519073e-3f);
  y = std::fma(y, x, 4.1665795894e-2f);
  y = std::fma(y, x, 1.6666665459e-1f);
  y = std::fma(y, x, 5.0000001201e-1f);
  y = std::fma(y, z, x);
  y += 1.0f;
  const int32_t n = static_cast<int32_t>(fx);
  const float pow2 = std::bit_cast<float>((n + 127) << 23);
  return y * pow2;
}

// Scalar twins of Log8/Log16, SinCosTurn8/SinCosTurn16 and the normal_fill
// bodies in src/math/kernels/: keep all of them in lockstep.

float LogApprox(float x) {
  // x = m * 2^e with m in [1/2, 1), then m in [sqrt(1/2), sqrt(2)): f = m - 1
  // and f + m are exact, so the reduction rounds nothing.
  const uint32_t bits = std::bit_cast<uint32_t>(x);
  int32_t e = static_cast<int32_t>(bits >> 23) - 126;
  const float m = std::bit_cast<float>((bits & 0x007fffffu) | 0x3f000000u);
  float f = m - 1.0f;
  if (m < 0.707106781186547524f) {
    e -= 1;
    f = f + m;
  }
  const float z = f * f;
  float y = 7.0376836292e-2f;
  y = std::fma(y, f, -1.1514610310e-1f);
  y = std::fma(y, f, 1.1676998740e-1f);
  y = std::fma(y, f, -1.2420140846e-1f);
  y = std::fma(y, f, 1.4249322787e-1f);
  y = std::fma(y, f, -1.6668057665e-1f);
  y = std::fma(y, f, 2.0000714765e-1f);
  y = std::fma(y, f, -2.4999993993e-1f);
  y = std::fma(y, f, 3.3333331174e-1f);
  y = y * f;
  y = y * z;
  // ln 2 = 0.693359375 - 2.12194440e-4, split as in ExpApprox.
  const float fe = static_cast<float>(e);
  y = std::fma(fe, -2.12194440e-4f, y);
  y = std::fma(z, -0.5f, y);
  const float r = f + y;
  return std::fma(fe, 0.693359375f, r);
}

void SinCosTurnApprox(uint32_t turn, float* sin_out, float* cos_out) {
  // turn = q * 2^22 + t with t in [-2^21, 2^21): quadrant q (mod 4) and an
  // angle a = 2*pi * t / 2^24 in [-pi/4, pi/4), rounded once.
  const uint32_t shifted = turn + (1u << 21);
  const uint32_t q = (shifted >> 22) & 3u;
  const int32_t t =
      static_cast<int32_t>(shifted & ((1u << 22) - 1)) - (1 << 21);
  const float a = static_cast<float>(t) * 0x1.921fb6p-22f;  // 2*pi / 2^24
  const float z = a * a;
  float sp = -1.9515295891e-4f;
  sp = std::fma(sp, z, 8.3321608736e-3f);
  sp = std::fma(sp, z, -1.6666654611e-1f);
  const float s = std::fma(z * a, sp, a);
  float cp = 2.443315711809948e-5f;
  cp = std::fma(cp, z, -1.388731625493765e-3f);
  cp = std::fma(cp, z, 4.166664568298827e-2f);
  const float c = std::fma(z * z, cp, std::fma(z, -0.5f, 1.0f));
  // Rotate by q quarter turns: odd q swaps sin and cos, q = 2, 3 negate
  // sin and q = 1, 2 negate cos (sign-bit flips, exact).
  const float sin_a = (q & 1u) ? c : s;
  const float cos_a = (q & 1u) ? s : c;
  *sin_out = std::bit_cast<float>(std::bit_cast<uint32_t>(sin_a) ^
                                  ((q & 2u) << 30));
  *cos_out = std::bit_cast<float>(std::bit_cast<uint32_t>(cos_a) ^
                                  (((q + 1u) & 2u) << 30));
}

namespace {

// Wellons' lowbias32: a bijective 32-bit mixer built from xorshifts and
// 32-bit multiplies.
uint32_t Mix32(uint32_t x) {
  x ^= x >> 16;
  x *= 0x7feb352du;
  x ^= x >> 15;
  x *= 0x846ca68bu;
  x ^= x >> 16;
  return x;
}

}  // namespace

uint32_t NormalFillHash(uint64_t stream, uint32_t counter) {
  return Mix32(Mix32(counter ^ static_cast<uint32_t>(stream)) ^
               static_cast<uint32_t>(stream >> 32));
}

void NormalFill(uint64_t seed, uint64_t key, float stddev, float* row,
                size_t dim) {
  const uint64_t stream = MixKey(seed, key);
  for (size_t d = 0; d < dim; d += 2) {
    const uint32_t h1 = NormalFillHash(stream, static_cast<uint32_t>(d));
    const uint32_t h2 = NormalFillHash(stream, static_cast<uint32_t>(d + 1));
    const float u1 = static_cast<float>((h1 >> 8) + 1) * 0x1p-24f;
    const float scaled_r = stddev * std::sqrt(LogApprox(u1) * -2.0f);
    float sin_theta, cos_theta;
    SinCosTurnApprox(h2 >> 8, &sin_theta, &cos_theta);
    row[d] = scaled_r * cos_theta;
    if (d + 1 < dim) row[d + 1] = scaled_r * sin_theta;
  }
}

}  // namespace fvae
