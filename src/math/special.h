#ifndef FVAE_MATH_SPECIAL_H_
#define FVAE_MATH_SPECIAL_H_

#include <cstddef>
#include <cstdint>

namespace fvae {

/// Special functions needed by the LDA baseline's variational updates.

/// Digamma function psi(x) = d/dx ln Gamma(x), for x > 0.
/// Uses the recurrence psi(x) = psi(x+1) - 1/x to shift into the asymptotic
/// regime, then a 6-term asymptotic series; absolute error < 1e-10 for
/// x >= 1e-3.
double Digamma(double x);

/// Natural log of the Gamma function (wrapper over std::lgamma, pinned here
/// so callers do not depend on <cmath> signatures directly).
double LogGamma(double x);

/// exp(psi(x)): convenient for LDA's expected-topic-weight geometric means.
double ExpDigamma(double x);

/// Scalar twin of the vectorized exp polynomial kernel in
/// src/math/kernels/: identical Cephes range reduction, coefficients, FMA
/// shapes, and special-case semantics, so tests can pin the SIMD paths
/// element-for-element without depending on libm. Relative error vs the
/// true function is < 3 ulp over the non-saturated range.
///
/// ExpApprox saturates: x > 88.3762626647950 -> +inf,
/// x < -87.3365478515625 -> 0 (never subnormal), NaN -> NaN.
float ExpApprox(float x);

/// Scalar twins of the normal_fill kernel's pieces (Log8/Log16 and
/// SinCosTurn8/SinCosTurn16 in src/math/kernels/), built like ExpApprox:
/// the same coefficients, the same std::fma shapes as the vector
/// fmadd/fnmadd, and integer range reduction, so every ISA agrees bit for
/// bit.

/// Natural log for a positive normal x: Cephes logf (x = m * 2^e with m in
/// [sqrt(1/2), sqrt(2)), a degree-8 polynomial in m - 1). No special
/// cases; normal_fill only feeds it u in [2^-24, 1].
float LogApprox(float x);

/// sin and cos of the angle 2*pi * turn / 2^24 for a 24-bit turn: the
/// integer turn picks the quadrant exactly, and Cephes' sinf/cosf
/// polynomials run on the remaining |angle| <= pi/4.
void SinCosTurnApprox(uint32_t turn, float* sin_out, float* cos_out);

/// The 32-bit counter hash behind normal_fill: two rounds of a bijective
/// 32-bit mixer, keyed by the low and then the high half of `stream`.
/// Uses only 32-bit lane arithmetic, which every vector ISA has.
uint32_t NormalFillHash(uint64_t stream, uint32_t counter);

/// Writes `dim` N(0, stddev^2) draws into `row`: the scalar twin of the
/// normal_fill kernel, and the scalar ISA's normal_fill itself. Element d
/// is a pure function of (MixKey(seed, key), d): with s = MixKey(seed,
/// key), pair p = d / 2 reads h1 = NormalFillHash(s, 2p) and h2 =
/// NormalFillHash(s, 2p + 1), takes u1 = ((h1 >> 8) + 1) / 2^24 in (0, 1]
/// and the turn h2 >> 8, and gives
///   row[2p]     = (stddev * sqrt(-2 ln u1)) * cos(2*pi * turn / 2^24),
///   row[2p + 1] = (stddev * sqrt(-2 ln u1)) * sin(2*pi * turn / 2^24),
/// each product rounded. So a dim-d row is the first d floats of any
/// longer row, and |row[d]| / stddev stays below sqrt(-2 ln 2^-24) ~ 5.77.
void NormalFill(uint64_t seed, uint64_t key, float stddev, float* row,
                size_t dim);

}  // namespace fvae

#endif  // FVAE_MATH_SPECIAL_H_
