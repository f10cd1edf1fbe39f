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
///
/// Infer is the read-only twin of Forward: Forward computes the same output
/// (row-split over a pool when given one) plus the cache copy Backward
/// needs, and the two produce bitwise identical outputs.
class Layer {
 public:
  virtual ~Layer() = default;

  /// output = f(input), caching what Backward needs. A non-null `pool`
  /// row-splits the pass over it; the output is bitwise the serial one (and
  /// Infer's). Every override repeats the nullptr default.
  virtual void Forward(const Matrix& input, Matrix* output,
                       ThreadPool* pool = nullptr) = 0;

  /// Inference pass: output = f(input). Writes only `*output` and
  /// `*scratch`, never the layer, so any number of threads may run it on
  /// one layer at once. `scratch` holds a composite layer's
  /// intermediate activations (Mlp requires it; other layers ignore it);
  /// reusing it across calls keeps a warm pass allocation-free. Every
  /// override repeats the nullptr default.
  virtual void Infer(const Matrix& input, Matrix* output,
                     std::vector<Matrix>* scratch = nullptr) const = 0;

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
