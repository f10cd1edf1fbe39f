#ifndef FVAE_NN_MLP_H_
#define FVAE_NN_MLP_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "nn/dense.h"
#include "nn/layer.h"

namespace fvae::nn {

/// Supported nonlinearities for Mlp construction.
enum class Activation { kTanh, kRelu, kSigmoid, kNone };

/// Multilayer perceptron: alternating DenseLayer + activation. By default
/// the activation is omitted after the final dense layer (linear output —
/// callers attach their own likelihood head); pass activate_output = true
/// for hidden trunks whose output feeds further layers.
///
/// The models in core/ and baselines/ use Mlp for the encoder trunk, the
/// decoder trunk, and the dense heads.
class Mlp : public Layer {
 public:
  /// `dims` = {in, h1, ..., out} with at least two entries.
  Mlp(const std::vector<size_t>& dims, Activation activation, Rng& rng,
      bool activate_output = false);

  void Forward(const Matrix& input, Matrix* output, bool training) override;
  void Backward(const Matrix& grad_output, Matrix* grad_input,
                ThreadPool* pool = nullptr) override;
  void CollectParams(std::vector<ParamRef>* out) override;

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }
  size_t num_dense_layers() const { return num_dense_; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Matrix> activations_;  // outputs of each layer
  size_t in_dim_;
  size_t out_dim_;
  size_t num_dense_ = 0;
};

}  // namespace fvae::nn

#endif  // FVAE_NN_MLP_H_
