#include "nn/dense.h"

#include "common/check.h"

namespace fvae::nn {

DenseLayer::DenseLayer(size_t in_dim, size_t out_dim, Rng& rng)
    : weight_(Matrix::XavierUniform(in_dim, out_dim, rng)),
      bias_(1, out_dim),
      weight_grad_(in_dim, out_dim),
      bias_grad_(1, out_dim) {}

void DenseLayer::Forward(const Matrix& input, Matrix* output, bool training) {
  FVAE_CHECK(input.cols() == weight_.rows())
      << "dense input dim " << input.cols() << " != " << weight_.rows();
  Gemm(input, weight_, output);
  for (size_t r = 0; r < output->rows(); ++r) {
    float* row = output->Row(r);
    const float* b = bias_.Row(0);
    for (size_t c = 0; c < output->cols(); ++c) row[c] += b[c];
  }
  // Cached unconditionally: Backward is valid after any forward pass
  // (`training` only gates stochastic layers). The copy-assign reuses
  // capacity, so a warmed-up inference pass stays allocation-free.
  (void)training;
  cached_input_ = input;
}

void DenseLayer::Backward(const Matrix& grad_output, Matrix* grad_input,
                          ThreadPool* pool) {
  FVAE_CHECK(grad_output.rows() == cached_input_.rows())
      << "backward batch mismatch";
  FVAE_CHECK(grad_output.cols() == weight_.cols()) << "backward dim mismatch";
  // dW = X^T dY ; db = colsum(dY) ; dX = dY W^T.
  GemmTNPooled(cached_input_, grad_output, &weight_grad_, pool);
  bias_grad_.SetZero();
  for (size_t r = 0; r < grad_output.rows(); ++r) {
    const float* row = grad_output.Row(r);
    float* b = bias_grad_.Row(0);
    for (size_t c = 0; c < grad_output.cols(); ++c) b[c] += row[c];
  }
  if (grad_input != nullptr) {
    GemmNTPooled(grad_output, weight_, grad_input, pool, &panel_);
  }
}

void DenseLayer::CollectParams(std::vector<ParamRef>* out) {
  out->push_back({&weight_, &weight_grad_});
  out->push_back({&bias_, &bias_grad_});
}

}  // namespace fvae::nn
