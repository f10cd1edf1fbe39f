#ifndef FVAE_NN_MLP_H_
#define FVAE_NN_MLP_H_

#include <vector>

#include "common/random.h"
#include "math/matrix.h"
#include "nn/dense.h"

namespace fvae {
class ThreadPool;
}  // namespace fvae

namespace fvae::nn {

/// Multilayer perceptron of tanh blocks (tanh is the paper's only
/// nonlinearity): y_0 = input, y_i = tanh(y_{i-1} W_i + b_i), and the
/// output is the last y. Each block's tanh runs on its dense rows in place,
/// in the same pass. Linear outputs are DenseLayers of their own.
///
/// FieldVae's encoder and decoder trunks and Mult-VAE's decoder are Mlps.
class Mlp {
 public:
  /// `dims` = {in, h1, ..., out} with at least two entries.
  Mlp(const std::vector<size_t>& dims, Rng& rng);

  /// Training pass. Returns the output, held with every block's output
  /// (Backward reads them) until the next Forward. A non-null `pool`
  /// row-splits each block on kGemmRowTile; the output is bitwise Infer's.
  const Matrix& Forward(const Matrix& input, ThreadPool* pool = nullptr);

  /// Inference pass: writes each block's output into `scratch` and returns
  /// the last. Writes nothing else, so any number of threads may run it on
  /// one Mlp with distinct scratch; a warm scratch keeps it
  /// allocation-free. Never touches a pool.
  const Matrix& Infer(const Matrix& input, std::vector<Matrix>* scratch)
      const;

  /// The backward pass after Forward on the same `input`. `grad` holds
  /// dL/d(output) on entry and is the pass's working buffer (clobbered).
  /// Sets every parameter gradient and, for a non-null `grad_input`,
  /// dL/d(input). A non-null `pool` row-splits the GEMMs; the result is
  /// bitwise the serial pass.
  void Backward(const Matrix& input, Matrix* grad, Matrix* grad_input,
                ThreadPool* pool = nullptr);

  /// Appends every block's {W, dW}, {b, db}, first block first.
  void CollectParams(std::vector<ParamRef>* out);

  size_t in_dim() const { return layers_.front().in_dim(); }
  size_t out_dim() const { return layers_.back().out_dim(); }
  size_t num_dense_layers() const { return layers_.size(); }

 private:
  std::vector<DenseLayer> layers_;
  std::vector<Matrix> outputs_;  // Forward's block outputs
};

}  // namespace fvae::nn

#endif  // FVAE_NN_MLP_H_
