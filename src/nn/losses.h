#ifndef FVAE_NN_LOSSES_H_
#define FVAE_NN_LOSSES_H_

#include <cstdint>
#include <span>

#include "math/matrix.h"

namespace fvae::nn {

/// KL(q || p) between the diagonal Gaussian q = N(mu, diag(exp(logvar)))
/// and the standard normal prior p = N(0, I), summed over dimensions and
/// averaged over the batch.
///
/// Forward value:  KL = -0.5 * sum(1 + logvar - mu^2 - exp(logvar)).
/// Gradients (per element, before the 1/batch factor the caller applies):
///   d/dmu     = mu
///   d/dlogvar = 0.5 * (exp(logvar) - 1)
double GaussianKl(const Matrix& mu, const Matrix& logvar);

/// Writes the KL gradients scaled by `weight` into the (already correctly
/// sized) gradient matrices, *accumulating* into them.
void GaussianKlBackward(const Matrix& mu, const Matrix& logvar, float weight,
                        Matrix* mu_grad, Matrix* logvar_grad);

/// Multinomial negative log-likelihood over a candidate set.
///
/// `logits` are unnormalized scores for C candidates; `counts` are the
/// observed counts for the same candidates (target distribution). Computes
/// -sum_j counts[j] * log softmax(logits)[j], and writes the gradient wrt
/// the logits into `grad` (resized to C):
///    grad[j] = N * softmax(logits)[j] - counts[j],  N = sum(counts).
/// This is the per-field reconstruction term of the FVAE ELBO (Eq. 4) and
/// of the Mult-VAE likelihood, evaluated over either the full vocabulary or
/// a batched-softmax candidate subset.
double MultinomialNll(std::span<const float> logits,
                      std::span<const float> counts, std::span<float> grad);

/// Convenience overload without a gradient (evaluation paths).
double MultinomialNll(std::span<const float> logits,
                      std::span<const float> counts);

/// The one multinomial NLL body, in place: `row` (C logits) becomes the
/// gradient (N * softmax - counts) * grad_scale, the difference rounded
/// before the scale multiplies it; returns -sum_j counts[j] * log_softmax_j.
/// N and the loss sum in double, ascending j, over `touched` only (every j
/// with a non-zero count, in any order and repeated at will; sorted in
/// place): bitwise the dense sum, as each skipped term is an exact zero.
/// Empty `touched`, or a non-finite log-prob, sums every j, so 0 * inf
/// still makes the loss NaN.
double MultinomialNllInPlace(std::span<float> row,
                             std::span<const float> counts,
                             std::span<uint32_t> touched, float grad_scale);

}  // namespace fvae::nn

#endif  // FVAE_NN_LOSSES_H_
