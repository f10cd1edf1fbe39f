#include "math/vector_ops.h"

#include <cmath>

#include "common/check.h"
#include "math/kernels/kernel_table.h"

namespace fvae {

double Dot(std::span<const float> a, std::span<const float> b) {
  FVAE_CHECK(a.size() == b.size()) << "dot size mismatch";
  return Kernels().dot(a.data(), b.data(), a.size());
}

void ScaleInPlace(std::span<float> x, float alpha) {
  for (float& v : x) v *= alpha;
}

double Norm2(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) acc += double(v) * v;
  return std::sqrt(acc);
}

double SquaredDistance(std::span<const float> a, std::span<const float> b) {
  FVAE_CHECK(a.size() == b.size()) << "distance size mismatch";
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = double(a[i]) - b[i];
    acc += d * d;
  }
  return acc;
}

double CosineSimilarity(std::span<const float> a, std::span<const float> b) {
  const double na = Norm2(a), nb = Norm2(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

void SoftmaxInPlace(std::span<float> logits) {
  Kernels().softmax_inplace(logits.data(), logits.size());
}

void LogSoftmaxInPlace(std::span<float> logits) {
  Kernels().log_softmax_inplace(logits.data(), logits.size());
}

void L2NormalizeInPlace(std::span<float> x) {
  const double norm = Norm2(x);
  if (norm == 0.0) return;
  ScaleInPlace(x, static_cast<float>(1.0 / norm));
}

}  // namespace fvae
