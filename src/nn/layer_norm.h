#ifndef FVAE_NN_LAYER_NORM_H_
#define FVAE_NN_LAYER_NORM_H_

#include "math/matrix.h"
#include "nn/layer.h"

namespace fvae::nn {

/// Layer normalization (Ba et al. 2016): per example,
///   y = gain ⊙ (x - mean(x)) / sqrt(var(x) + eps) + bias.
/// RecVAE's published encoder uses it between dense blocks; provided here
/// as a standard building block with trainable gain/bias.
class LayerNorm : public Layer {
 public:
  explicit LayerNorm(size_t dim, float epsilon = 1e-5f);

  void Forward(const Matrix& input, Matrix* output, bool training) override;
  void Backward(const Matrix& grad_output, Matrix* grad_input,
                ThreadPool* pool = nullptr) override;
  void CollectParams(std::vector<ParamRef>* out) override;

  size_t dim() const { return gain_.cols(); }

  Matrix& gain() { return gain_; }
  Matrix& bias() { return bias_; }

 private:
  float epsilon_;
  Matrix gain_;   // 1 x dim, init 1
  Matrix bias_;   // 1 x dim, init 0
  Matrix gain_grad_;
  Matrix bias_grad_;
  // Forward caches.
  Matrix normalized_;          // (x - mu) / sigma
  std::vector<float> inv_std_;  // per row
};

}  // namespace fvae::nn

#endif  // FVAE_NN_LAYER_NORM_H_
