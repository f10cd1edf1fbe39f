#ifndef FVAE_NN_MLP_H_
#define FVAE_NN_MLP_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "nn/dense.h"
#include "nn/layer.h"

namespace fvae::nn {

/// Multilayer perceptron: alternating DenseLayer + tanh (the paper's only
/// nonlinearity). By default the tanh is omitted after the final dense
/// layer (linear output — callers attach their own likelihood head); pass
/// activate_output = true for hidden trunks whose output feeds further
/// layers.
///
/// FieldVae uses Mlp for its encoder and decoder trunks.
class Mlp : public Layer {
 public:
  /// `dims` = {in, h1, ..., out} with at least two entries.
  Mlp(const std::vector<size_t>& dims, Rng& rng, bool activate_output = false);

  void Forward(const Matrix& input, Matrix* output,
               ThreadPool* pool = nullptr) override;
  /// `scratch` is required: it receives each layer's output.
  void Infer(const Matrix& input, Matrix* output,
             std::vector<Matrix>* scratch = nullptr) const override;
  void Backward(const Matrix& grad_output, Matrix* grad_input,
                ThreadPool* pool = nullptr) override;
  void CollectParams(std::vector<ParamRef>* out) override;

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }
  size_t num_dense_layers() const { return num_dense_; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Matrix> activations_;  // Forward's per-layer outputs
  size_t in_dim_;
  size_t out_dim_;
  size_t num_dense_ = 0;
};

}  // namespace fvae::nn

#endif  // FVAE_NN_MLP_H_
