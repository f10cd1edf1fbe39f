#ifndef FVAE_CORE_FVAE_CONFIG_H_
#define FVAE_CORE_FVAE_CONFIG_H_

#include <cstdint>
#include <vector>

#include "core/sampling.h"

namespace fvae::core {

/// Hyper-parameters of the Field-aware VAE (paper §IV).
struct FvaeConfig {
  /// Latent dimension D of z.
  size_t latent_dim = 64;
  /// Encoder hidden widths; the first entry is also the dimension of the
  /// per-field input embedding tables (the "first layer" of §IV-C1).
  std::vector<size_t> encoder_hidden = {256};
  /// Decoder hidden widths of the shared trunk; the last entry is the
  /// dimension of the per-field output weight rows.
  std::vector<size_t> decoder_hidden = {256};

  /// Per-field reconstruction weights alpha_k (Eq. 7). Empty = all 1.
  std::vector<float> alpha;
  /// Peak KL weight beta (Eq. 7), reached by annealing.
  float beta = 0.2f;
  /// Number of training steps over which beta anneals linearly from 0
  /// (the paper's warm-up, following Liang et al.; see AnnealedBeta).
  size_t anneal_steps = 2000;

  /// Feature-sampling strategy and rate for fields flagged sparse
  /// (§IV-C3). Rate is ignored for strategy kNone.
  SamplingStrategy sampling_strategy = SamplingStrategy::kUniform;
  double sampling_rate = 0.1;

  /// When false, the decoder scores the *full* field vocabulary seen so far
  /// on every step instead of the batch union — this is the legacy softmax
  /// path used to reproduce Mult-VAE-style training cost in Table V.
  bool batched_softmax = true;

  /// Adam learning rate for the dense trunks/heads.
  float dense_learning_rate = 1e-3f;
  /// AdaGrad learning rate for the sparse embedding/output tables.
  float sparse_learning_rate = 5e-2f;

  /// Standard deviation for freshly minted embedding rows.
  float embedding_init_stddev = 0.05f;

  uint64_t seed = 1234;
};

}  // namespace fvae::core

#endif  // FVAE_CORE_FVAE_CONFIG_H_
