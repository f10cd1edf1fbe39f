#ifndef FVAE_MATH_SPECIAL_H_
#define FVAE_MATH_SPECIAL_H_

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

}  // namespace fvae

#endif  // FVAE_MATH_SPECIAL_H_
