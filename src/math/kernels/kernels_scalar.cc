#include <cfloat>
#include <cmath>
#include <cstddef>

#include "math/kernels/kernel_table.h"
#include "math/special.h"

// Scalar reference kernels: the fallback ISA and the semantic ground truth
// the vector paths are tested against. Plain loops, double accumulators
// where the pre-kernel-layer code used them, and — deliberately — no
// zero-operand skips anywhere, so 0*inf / 0*NaN propagation is identical
// across every ISA and every tile/tail path (the old register-tiled GEMM
// skipped all-zero A quads in the tiled body but only single zeros in the
// leftover rows, so the same matrix could produce NaN in one region and
// stale zeros in another).

namespace fvae {
namespace {

void GemmAccumulateScalar(const float* a, const float* b, float* out,
                          size_t m, size_t k, size_t n, size_t ldb,
                          size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* out_row = out + i * ldc;
    for (size_t p = 0; p < k; ++p) {
      const float a_ip = a_row[p];
      const float* b_row = b + p * ldb;
      for (size_t j = 0; j < n; ++j) out_row[j] += a_ip * b_row[j];
    }
  }
}

double DotScalar(const float* a, const float* b, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return acc;
}

void AxpyScalar(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleAddScalar(float v, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += v * x[i];
}

void AdagradStepScalar(float* w, float* acc, float* g, float lr, float eps,
                       size_t n) {
  for (size_t i = 0; i < n; ++i) {
    acc[i] += g[i] * g[i];
    w[i] -= lr * g[i] / (std::sqrt(acc[i]) + eps);
    g[i] = 0.0f;
  }
}

// NaN-ignoring max (`>` is false on NaN); -inf when nothing finite.
float MaxOrNegInf(const float* x, size_t n) {
  float mx = -HUGE_VALF;
  for (size_t i = 0; i < n; ++i) {
    if (x[i] > mx) mx = x[i];
  }
  return mx;
}

void SoftmaxScalar(float* x, size_t n) {
  if (n == 0) return;
  const float mx = MaxOrNegInf(x, n);
  if (mx == -HUGE_VALF) {
    kernel_detail::SoftmaxDegenerate(x, n);
    return;
  }
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    x[i] = std::exp(x[i] - mx);
    total += x[i];
  }
  // total >= exp(0) = 1 here (the max element contributes 1), so the
  // normalization can never divide by zero; NaN input poisons total and
  // with it every output, matching the vector paths.
  const float inv = static_cast<float>(1.0 / total);
  for (size_t i = 0; i < n; ++i) x[i] *= inv;
}

void LogSoftmaxScalar(float* x, size_t n) {
  if (n == 0) return;
  const float mx = MaxOrNegInf(x, n);
  if (mx == -HUGE_VALF) {
    kernel_detail::LogSoftmaxDegenerate(x, n);
    return;
  }
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += std::exp(static_cast<double>(x[i]) - mx);
  }
  const float log_z = mx + static_cast<float>(std::log(total));
  for (size_t i = 0; i < n; ++i) x[i] -= log_z;
}

void ExpInPlaceScalar(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] = std::exp(x[i]);
}

void TanhInPlaceScalar(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
}

void MultinomialGradScalar(const float* log_probs, const float* counts,
                           float total_count, float scale, float* grad,
                           size_t n) {
  for (size_t j = 0; j < n; ++j) {
    float t = total_count * std::exp(log_probs[j]);
    // Sub-FLT_MIN reconstruction mass is numerically zero: flush it so the
    // gradient never carries subnormal garbage into the optimizer even
    // with FVAE_FTZ=0. (`<` is false on NaN, so NaN still propagates.)
    if (t < FLT_MIN) t = 0.0f;
    grad[j] = (t - counts[j]) * scale;
  }
}

}  // namespace

void FillScalar(KernelTable* t) {
  t->gemm_accumulate = GemmAccumulateScalar;
  t->dot = DotScalar;
  t->axpy = AxpyScalar;
  t->scale_add = ScaleAddScalar;
  t->adagrad_step = AdagradStepScalar;
  t->softmax_inplace = SoftmaxScalar;
  t->log_softmax_inplace = LogSoftmaxScalar;
  t->exp_inplace = ExpInPlaceScalar;
  t->tanh_inplace = TanhInPlaceScalar;
  t->multinomial_grad = MultinomialGradScalar;
  t->normal_fill = NormalFill;
}

}  // namespace fvae
