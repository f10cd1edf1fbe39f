#include "nn/dense.h"

#include "common/check.h"
#include "common/thread_pool.h"
#include "math/kernels/kernel_table.h"

namespace fvae::nn {

DenseLayer::DenseLayer(size_t in_dim, size_t out_dim, Rng& rng)
    : weight_(Matrix::XavierUniform(in_dim, out_dim, rng)),
      bias_(1, out_dim),
      weight_grad_(in_dim, out_dim),
      bias_grad_(1, out_dim) {}

void DenseLayer::AffineRows(const Matrix& input, size_t lo, size_t hi,
                            Matrix* output) const {
  FVAE_CHECK(input.cols() == weight_.rows())
      << "dense input dim " << input.cols() << " != " << weight_.rows();
  const size_t k = weight_.rows(), n = weight_.cols();
  Kernels().gemm_accumulate(input.Row(lo), weight_.Row(0), output->Row(lo),
                            hi - lo, k, n, n, n);
  const float* b = bias_.Row(0);
  for (size_t r = lo; r < hi; ++r) {
    float* row = output->Row(r);
    for (size_t c = 0; c < n; ++c) row[c] += b[c];
  }
}

void DenseLayer::Forward(const Matrix& input, Matrix* output,
                         ThreadPool* pool) const {
  output->Resize(input.rows(), weight_.cols());
  ParallelForRange(pool, 0, input.rows(), kGemmRowTile,
                   [&](size_t lo, size_t hi) {
                     AffineRows(input, lo, hi, output);
                   });
}

void DenseLayer::Infer(const Matrix& input, Matrix* output) const {
  output->Resize(input.rows(), weight_.cols());
  AffineRows(input, 0, input.rows(), output);
}

void DenseLayer::Backward(const Matrix& input, const Matrix& grad_output,
                          Matrix* grad_input, ThreadPool* pool) {
  FVAE_CHECK(grad_output.rows() == input.rows()) << "backward batch mismatch";
  FVAE_CHECK(input.cols() == weight_.rows() &&
             grad_output.cols() == weight_.cols())
      << "backward dim mismatch";
  // dW = X^T dY ; db = colsum(dY) ; dX = dY W^T.
  GemmTNPooled(input, grad_output, &weight_grad_, pool);
  ColumnSums(grad_output, &bias_grad_);
  if (grad_input != nullptr) {
    GemmNTPooled(grad_output, weight_, grad_input, pool, &panel_);
  }
}

void DenseLayer::CollectParams(std::vector<ParamRef>* out) {
  out->push_back({&weight_, &weight_grad_});
  out->push_back({&bias_, &bias_grad_});
}

void TanhBackward(const Matrix& y, Matrix* grad) {
  FVAE_CHECK(grad->rows() == y.rows() && grad->cols() == y.cols())
      << "tanh backward shape mismatch";
  for (size_t i = 0; i < y.size(); ++i) {
    const float v = y.data()[i];
    grad->data()[i] *= 1.0f - v * v;
  }
}

void ColumnSums(const Matrix& grad, Matrix* sums) {
  sums->Resize(1, grad.cols());
  float* s = sums->Row(0);
  for (size_t r = 0; r < grad.rows(); ++r) {
    const float* row = grad.Row(r);
    for (size_t c = 0; c < grad.cols(); ++c) s[c] += row[c];
  }
}

}  // namespace fvae::nn
