#ifndef FVAE_NN_LAYER_H_
#define FVAE_NN_LAYER_H_

#include <vector>

#include "math/matrix.h"

namespace fvae {
class ThreadPool;
}  // namespace fvae

namespace fvae::nn {

/// A trainable parameter: value plus its gradient, both owned by a layer.
struct ParamRef {
  Matrix* value = nullptr;
  Matrix* grad = nullptr;
};

/// A differentiable transformation over mini-batches (rows = examples).
///
/// Contract: Backward must be called after Forward with the same batch, and
/// consumes the activations Forward cached. Backward *sets* (not
/// accumulates) parameter gradients; one optimizer Step per Forward/Backward
/// pair.
class Layer {
 public:
  virtual ~Layer() = default;

  /// output = f(input). `training` enables stochastic behaviour (dropout).
  virtual void Forward(const Matrix& input, Matrix* output, bool training) = 0;

  /// grad_input = df/dinput^T grad_output; also fills parameter gradients.
  /// `grad_input` may be null when the input gradient is not needed (first
  /// layer of a network). A non-null `pool` row-splits the layer's GEMMs
  /// over it (math/matrix.h pooled forms); the result is bitwise identical
  /// to the serial pass. Every override repeats the nullptr default.
  virtual void Backward(const Matrix& grad_output, Matrix* grad_input,
                        ThreadPool* pool = nullptr) = 0;

  /// Appends this layer's trainable parameters to `out`.
  virtual void CollectParams(std::vector<ParamRef>* out) { (void)out; }
};

}  // namespace fvae::nn

#endif  // FVAE_NN_LAYER_H_
