#ifndef FVAE_NN_DENSE_H_
#define FVAE_NN_DENSE_H_

#include <vector>

#include "common/random.h"
#include "math/matrix.h"
#include "nn/layer.h"

namespace fvae::nn {

/// Fully connected layer: output = input * W + b.
/// W has shape (in_dim x out_dim), b is a (1 x out_dim) row vector.
class DenseLayer : public Layer {
 public:
  DenseLayer(size_t in_dim, size_t out_dim, Rng& rng);

  void Forward(const Matrix& input, Matrix* output,
               ThreadPool* pool = nullptr) override;
  void Infer(const Matrix& input, Matrix* output,
             std::vector<Matrix>* scratch = nullptr) const override;
  void Backward(const Matrix& grad_output, Matrix* grad_input,
                ThreadPool* pool = nullptr) override;
  void CollectParams(std::vector<ParamRef>* out) override;

  size_t in_dim() const { return weight_.rows(); }
  size_t out_dim() const { return weight_.cols(); }

  Matrix& weight() { return weight_; }
  const Matrix& weight() const { return weight_; }
  Matrix& bias() { return bias_; }
  const Matrix& bias() const { return bias_; }

 private:
  // Rows [lo, hi) of output = input * W + b; output is already sized.
  void AffineRows(const Matrix& input, size_t lo, size_t hi,
                  Matrix* output) const;

  Matrix weight_;
  Matrix bias_;
  Matrix weight_grad_;
  Matrix bias_grad_;
  Matrix cached_input_;
  // W^T strip panel for Backward's input-gradient GEMM, reused across steps.
  std::vector<float> panel_;
};

}  // namespace fvae::nn

#endif  // FVAE_NN_DENSE_H_
