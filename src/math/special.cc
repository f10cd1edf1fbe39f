#include "math/special.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.h"

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

}  // namespace fvae
