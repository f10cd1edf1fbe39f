#include "nn/layer_norm.h"

#include <cmath>

#include "common/check.h"

namespace fvae::nn {

LayerNorm::LayerNorm(size_t dim, float epsilon)
    : epsilon_(epsilon),
      gain_(1, dim, 1.0f),
      bias_(1, dim),
      gain_grad_(1, dim),
      bias_grad_(1, dim) {
  FVAE_CHECK(dim > 0);
  FVAE_CHECK(epsilon > 0.0f);
}

void LayerNorm::Forward(const Matrix& input, Matrix* output, bool training) {
  (void)training;
  const size_t dim = gain_.cols();
  FVAE_CHECK(input.cols() == dim) << "layer-norm dim mismatch";
  const size_t batch = input.rows();
  output->Resize(batch, dim);
  normalized_.Resize(batch, dim);
  // Within-capacity resize: reallocates only while batch is still growing
  // toward its high-water mark, so a warmed-up forward is allocation-free.
  inv_std_.resize(batch);  // fvae-lint: allow(hot-alloc)

  for (size_t i = 0; i < batch; ++i) {
    const float* x = input.Row(i);
    double mean = 0.0;
    for (size_t d = 0; d < dim; ++d) mean += x[d];
    mean /= double(dim);
    double var = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff = x[d] - mean;
      var += diff * diff;
    }
    var /= double(dim);
    const float inv_std = 1.0f / std::sqrt(float(var) + epsilon_);
    inv_std_[i] = inv_std;
    float* n = normalized_.Row(i);
    float* y = output->Row(i);
    const float* g = gain_.Row(0);
    const float* b = bias_.Row(0);
    for (size_t d = 0; d < dim; ++d) {
      n[d] = (x[d] - float(mean)) * inv_std;
      y[d] = g[d] * n[d] + b[d];
    }
  }
}

void LayerNorm::Backward(const Matrix& grad_output, Matrix* grad_input,
                         ThreadPool* /*pool*/) {
  const size_t dim = gain_.cols();
  const size_t batch = normalized_.rows();
  FVAE_CHECK(grad_output.rows() == batch && grad_output.cols() == dim)
      << "layer-norm backward shape";

  gain_grad_.SetZero();
  bias_grad_.SetZero();
  if (grad_input != nullptr) grad_input->Resize(batch, dim);

  for (size_t i = 0; i < batch; ++i) {
    const float* dy = grad_output.Row(i);
    const float* n = normalized_.Row(i);
    const float* g = gain_.Row(0);
    float* gg = gain_grad_.Row(0);
    float* bg = bias_grad_.Row(0);

    // Parameter gradients.
    for (size_t d = 0; d < dim; ++d) {
      gg[d] += dy[d] * n[d];
      bg[d] += dy[d];
    }
    if (grad_input == nullptr) continue;

    // dx = (inv_std / dim) * (dim * h - sum(h) - n * sum(h ⊙ n)),
    // where h = dy ⊙ gain.
    double sum_h = 0.0, sum_hn = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double h = double(dy[d]) * g[d];
      sum_h += h;
      sum_hn += h * n[d];
    }
    float* dx = grad_input->Row(i);
    const float scale = inv_std_[i] / float(dim);
    for (size_t d = 0; d < dim; ++d) {
      const double h = double(dy[d]) * g[d];
      dx[d] = scale * static_cast<float>(double(dim) * h - sum_h -
                                         double(n[d]) * sum_hn);
    }
  }
}

void LayerNorm::CollectParams(std::vector<ParamRef>* out) {
  out->push_back({&gain_, &gain_grad_});
  out->push_back({&bias_, &bias_grad_});
}

}  // namespace fvae::nn
