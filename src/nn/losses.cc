#include "nn/losses.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "math/kernels/kernel_table.h"

namespace fvae::nn {

namespace {

/// Whether no x[j] is +-inf or NaN (all exponent bits set). The integer OR
/// over fixed blocks of 16 vectorizes; a branch per float would not.
bool AllFinite(const float* x, size_t n) {
  const auto bad = [](float v) -> uint32_t {
    return (std::bit_cast<uint32_t>(v) & 0x7f800000u) == 0x7f800000u;
  };
  uint32_t any = 0;
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    for (size_t t = 0; t < 16; ++t) any |= bad(x[j + t]);
  }
  for (; j < n; ++j) any |= bad(x[j]);
  return any == 0;
}

}  // namespace

double GaussianKl(const Matrix& mu, const Matrix& logvar) {
  FVAE_CHECK(mu.rows() == logvar.rows() && mu.cols() == logvar.cols())
      << "KL shape mismatch";
  FVAE_CHECK(mu.rows() > 0);
  double total = 0.0;
  for (size_t i = 0; i < mu.size(); ++i) {
    const double m = mu.data()[i];
    const double lv = logvar.data()[i];
    total += -0.5 * (1.0 + lv - m * m - std::exp(lv));
  }
  return total / double(mu.rows());
}

void GaussianKlBackward(const Matrix& mu, const Matrix& logvar, float weight,
                        Matrix* mu_grad, Matrix* logvar_grad) {
  FVAE_CHECK(mu_grad->rows() == mu.rows() && mu_grad->cols() == mu.cols())
      << "mu grad shape mismatch";
  FVAE_CHECK(logvar_grad->rows() == logvar.rows() &&
             logvar_grad->cols() == logvar.cols())
      << "logvar grad shape mismatch";
  for (size_t i = 0; i < mu.size(); ++i) {
    mu_grad->data()[i] += weight * mu.data()[i];
    logvar_grad->data()[i] +=
        weight * 0.5f * (std::exp(logvar.data()[i]) - 1.0f);
  }
}

double MultinomialNll(std::span<const float> logits,
                      std::span<const float> counts, std::span<float> grad) {
  FVAE_CHECK(grad.size() == logits.size()) << "grad size mismatch";
  std::copy(logits.begin(), logits.end(), grad.begin());
  return MultinomialNllInPlace(grad, counts, {}, 1.0f);
}

double MultinomialNll(std::span<const float> logits,
                      std::span<const float> counts) {
  // No caller-owned buffer to work in: the gradient lands in a scratch row.
  std::vector<float> row(logits.begin(), logits.end());
  return MultinomialNllInPlace(row, counts, {}, 1.0f);
}

double MultinomialNllInPlace(std::span<float> row,
                             std::span<const float> counts,
                             std::span<uint32_t> touched, float grad_scale) {
  FVAE_CHECK(row.size() == counts.size()) << "logits/counts mismatch";
  if (row.empty()) return 0.0;
  Kernels().log_softmax_inplace(row.data(), row.size());  // stable
  std::sort(touched.begin(), touched.end());
  touched = touched.first(std::unique(touched.begin(), touched.end()) -
                          touched.begin());
  if (!touched.empty() && !AllFinite(row.data(), row.size())) touched = {};
  double total_count = 0.0, loss = 0.0;
  const auto add = [&](size_t j) {
    total_count += counts[j];
    loss -= double(counts[j]) * row[j];
  };
  if (touched.empty()) {
    for (size_t j = 0; j < row.size(); ++j) add(j);
  } else {
    for (uint32_t j : touched) add(j);
  }
  // grad = (total_count * softmax - counts) * grad_scale, via the
  // ISA-dispatched kernel.
  // Candidates whose softmax mass underflows below FLT_MIN are flushed to
  // exactly zero there, so the gradient never feeds subnormal garbage into
  // the optimizer even when FVAE_FTZ=0.
  Kernels().multinomial_grad(row.data(), counts.data(),
                             static_cast<float>(total_count), grad_scale,
                             row.data(), row.size());
  return loss;
}

}  // namespace fvae::nn
