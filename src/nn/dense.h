#ifndef FVAE_NN_DENSE_H_
#define FVAE_NN_DENSE_H_

#include <vector>

#include "common/random.h"
#include "math/matrix.h"
#include "nn/optimizer.h"

namespace fvae {
class ThreadPool;
}  // namespace fvae

namespace fvae::nn {

/// Fully connected layer: output = input * W + b.
/// W has shape (in_dim x out_dim), b is a (1 x out_dim) row vector.
///
/// The layer caches no activation: Backward takes the input the forward
/// pass read, which its caller holds anyway. Backward *sets* (not
/// accumulates) the parameter gradients; one optimizer Step per
/// forward/Backward pair.
class DenseLayer {
 public:
  DenseLayer(size_t in_dim, size_t out_dim, Rng& rng);

  /// Rows [lo, hi) of output = input * W + b; `output` is already sized.
  /// A row runs the same kernel tile whatever the split, so passes cut on
  /// kGemmRowTile are bitwise the whole-matrix pass.
  void AffineRows(const Matrix& input, size_t lo, size_t hi,
                  Matrix* output) const;

  /// output = input * W + b, row-split over a non-null `pool` on
  /// kGemmRowTile; bitwise Infer's output.
  void Forward(const Matrix& input, Matrix* output,
               ThreadPool* pool = nullptr) const;

  /// The serial pass, which never touches a pool: the allocation-free
  /// fold-in encode runs it.
  void Infer(const Matrix& input, Matrix* output) const;

  /// Given the `input` the forward pass read and dL/d(output): sets dW and
  /// db and, for a non-null `grad_input`, dL/d(input). A non-null `pool`
  /// row-splits the GEMMs (math/matrix.h pooled forms); the result is
  /// bitwise the serial pass.
  void Backward(const Matrix& input, const Matrix& grad_output,
                Matrix* grad_input, ThreadPool* pool = nullptr);

  /// Appends {W, dW} and {b, db} to `out`.
  void CollectParams(std::vector<ParamRef>* out);

  size_t in_dim() const { return weight_.rows(); }
  size_t out_dim() const { return weight_.cols(); }

  Matrix& weight() { return weight_; }
  const Matrix& weight() const { return weight_; }
  Matrix& bias() { return bias_; }
  const Matrix& bias() const { return bias_; }

 private:
  Matrix weight_;
  Matrix bias_;
  Matrix weight_grad_;
  Matrix bias_grad_;
  // W^T strip panel for Backward's input-gradient GEMM, reused across steps.
  std::vector<float> panel_;
};

/// The tanh backward in place: grad *= 1 - y^2, where y is the tanh output.
void TanhBackward(const Matrix& y, Matrix* grad);

/// `sums` = the 1 x cols column sums of `grad`, added in row order: the
/// bias gradient of a layer whose output gradient is `grad`.
void ColumnSums(const Matrix& grad, Matrix* sums);

}  // namespace fvae::nn

#endif  // FVAE_NN_DENSE_H_
