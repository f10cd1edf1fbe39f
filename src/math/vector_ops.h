#ifndef FVAE_MATH_VECTOR_OPS_H_
#define FVAE_MATH_VECTOR_OPS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace fvae {

/// Dense vector kernels shared by the NN layers, the baselines, and the
/// evaluation code. All functions operate on std::span<float> views so they
/// compose with Matrix rows and raw buffers alike.
///
/// Dot and the softmax family forward to the runtime-dispatched SIMD kernel
/// layer in src/math/kernels/kernel_table.h; see that header for the ISA
/// selection story and the shared numeric edge-case contract (empty spans,
/// all-(-inf) logits, NaN propagation, exp saturation).

/// Inner product <a, b>; sizes must match.
double Dot(std::span<const float> a, std::span<const float> b);

/// x *= alpha.
void ScaleInPlace(std::span<float> x, float alpha);

/// Euclidean norm.
double Norm2(std::span<const float> x);

/// Squared Euclidean distance between a and b.
double SquaredDistance(std::span<const float> a, std::span<const float> b);

/// Cosine similarity; returns 0 when either vector is all-zero.
double CosineSimilarity(std::span<const float> a, std::span<const float> b);

/// In-place numerically stable softmax (subtracts max before exp). Empty
/// spans are a no-op; all-(-inf) logits yield the uniform distribution;
/// a NaN anywhere yields an all-NaN output.
void SoftmaxInPlace(std::span<float> logits);

/// In-place numerically stable log-softmax. Empty spans are a no-op;
/// all-(-inf) logits yield -log(n); NaN anywhere yields all-NaN.
void LogSoftmaxInPlace(std::span<float> logits);

/// L2-normalizes x in place; leaves an all-zero vector untouched.
void L2NormalizeInPlace(std::span<float> x);

}  // namespace fvae

#endif  // FVAE_MATH_VECTOR_OPS_H_
