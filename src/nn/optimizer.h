#ifndef FVAE_NN_OPTIMIZER_H_
#define FVAE_NN_OPTIMIZER_H_

#include <vector>

#include "math/matrix.h"

namespace fvae::nn {

/// A trainable parameter: value plus its gradient, both owned by a layer.
struct ParamRef {
  Matrix* value = nullptr;
  Matrix* grad = nullptr;
};

/// Adam (Kingma & Ba) with bias correction, the dense-parameter optimizer
/// of Algorithm 1. Layers fill gradients in Backward; Step consumes and
/// zeroes them.
class AdamOptimizer {
 public:
  AdamOptimizer(std::vector<ParamRef> params, float learning_rate,
                float beta1 = 0.9f, float beta2 = 0.999f,
                float epsilon = 1e-8f);

  /// Applies one update using the gradients currently stored in the params,
  /// then zeroes the gradients.
  void Step();

  const std::vector<ParamRef>& params() const { return params_; }

  void set_learning_rate(float lr) { learning_rate_ = lr; }
  float learning_rate() const { return learning_rate_; }
  int64_t step_count() const { return step_count_; }

  /// Moment estimates, parallel to params() and shaped like them from
  /// construction. Checkpointing persists these (plus step_count) so a
  /// resumed run takes bitwise-identical Adam steps.
  const std::vector<Matrix>& first_moments() const { return m_; }
  const std::vector<Matrix>& second_moments() const { return v_; }

  /// Restores checkpointed state; moment shapes must match the params.
  void RestoreState(int64_t step_count, std::vector<Matrix> m,
                    std::vector<Matrix> v);

 private:
  std::vector<ParamRef> params_;
  float learning_rate_;
  float beta1_;
  float beta2_;
  float epsilon_;
  int64_t step_count_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace fvae::nn

#endif  // FVAE_NN_OPTIMIZER_H_
