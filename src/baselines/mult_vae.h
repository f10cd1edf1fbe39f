#ifndef FVAE_BASELINES_MULT_VAE_H_
#define FVAE_BASELINES_MULT_VAE_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/feature_indexer.h"
#include "common/random.h"
#include "eval/representation_model.h"
#include "math/matrix.h"
#include "nn/dense.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"

namespace fvae::baselines {

/// The single-multinomial autoencoder family of baselines (paper §V-A1):
///
///  * Mult-DAE  — denoising autoencoder with input dropout, no latent
///                sampling, multinomial likelihood (Liang et al. 2018).
///  * Mult-VAE  — variational, diagonal Gaussian posterior, standard normal
///                prior, KL annealed to beta (Liang et al. 2018).
///  * RecVAE    — Mult-VAE plus (a) a composite prior mixing the standard
///                normal, the *previous epoch's* posterior, and a wide
///                Gaussian, and (b) a user-specific KL weight
///                beta_u = gamma * N_u (Shenbin et al. 2020).
///
/// All three flatten the multi-field profile into one feature space (exact
/// indexing, or feature hashing when hash_bits > 0 — the paper's legacy
/// billion-scale configuration) and model it with ONE multinomial over all
/// J features. Training therefore computes the full softmax every step,
/// which is exactly the cost the FVAE's batched softmax removes (Table V).
class MultVaeModel : public eval::RepresentationModel {
 public:
  enum class Variant { kDae, kVae, kRecVae };

  struct Options {
    Variant variant = Variant::kVae;
    size_t hidden_dim = 128;
    size_t latent_dim = 64;
    /// Input (feature-level) dropout probability.
    float dropout = 0.5f;
    /// Peak KL weight (Mult-VAE) / base KL scale (RecVAE composite term).
    float beta = 0.2f;
    size_t anneal_steps = 2000;
    /// RecVAE user-specific KL weight: beta_u = gamma * N_u.
    float gamma = 0.005f;
    /// RecVAE composite-prior mixture weights {standard, old posterior,
    /// wide} and the wide component's log-variance.
    float prior_weights[3] = {0.15f, 0.75f, 0.10f};
    float wide_logvar = 2.0f;
    size_t epochs = 10;
    size_t batch_size = 256;
    float learning_rate = 1e-3f;
    /// 0 = exact feature indexing; > 0 = feature hashing to 2^bits buckets.
    int hash_bits = 0;
    /// Abort training after this many wall-clock seconds (0 = off); used by
    /// the Table V throughput harness.
    double time_budget_seconds = 0.0;
    uint64_t seed = 21;
  };

  /// Timing statistics of the last Fit (Table V).
  struct FitStats {
    size_t steps = 0;
    size_t users_processed = 0;
    double seconds = 0.0;
    double UsersPerSecond() const {
      return seconds > 0.0 ? double(users_processed) / seconds : 0.0;
    }
  };

  explicit MultVaeModel(Options options);

  std::string Name() const override;

  void Fit(const MultiFieldDataset& train) override;

  Matrix Embed(const MultiFieldDataset& data,
               std::span<const uint32_t> users) const override;

  Matrix Score(const MultiFieldDataset& input,
               std::span<const uint32_t> users, size_t field,
               std::span<const uint64_t> candidates) const override;

  const FitStats& fit_stats() const { return fit_stats_; }
  size_t num_columns() const { return indexer_.num_columns(); }

 private:
  /// One user's L2-normalized sparse input in column space.
  struct SparseRow {
    std::vector<uint32_t> cols;
    std::vector<float> values;     // normalized
    std::vector<float> raw_counts; // multinomial targets
    float total_count = 0.0f;      // N_u
  };

  SparseRow MakeRow(const MultiFieldDataset& data, uint32_t user) const;

  /// Encoder forward to (mu, logvar) — or (z, unused) for the DAE — using
  /// the live parameters. With `dropout_rng` non-null, applies feature-level
  /// input dropout (training only).
  void EncodeRows(const std::vector<SparseRow>& rows, Matrix* mu,
                  Matrix* logvar, Matrix* h1, Rng* dropout_rng,
                  std::vector<SparseRow>* dropped) const;

  /// Frozen-snapshot encoder used by the RecVAE composite prior.
  void EncodeRowsOld(const std::vector<SparseRow>& rows, Matrix* mu,
                     Matrix* logvar) const;

  void SnapshotEncoder();

  double TrainStep(const std::vector<SparseRow>& rows, float anneal);

  Options options_;
  FeatureIndexer indexer_;
  Rng rng_;
  FitStats fit_stats_;

  // Encoder: gather-sum "dense first layer" + heads.
  Matrix embed_;        // J x hidden
  Matrix embed_grad_;
  Matrix b1_;           // 1 x hidden
  Matrix b1_grad_;
  std::unique_ptr<nn::DenseLayer> mu_head_;      // hidden -> latent
  std::unique_ptr<nn::DenseLayer> logvar_head_;  // hidden -> latent (VAE)
  // Decoder.
  std::unique_ptr<nn::Mlp> dec_;  // latent -> hidden, one tanh block
  Matrix out_weight_;   // J x hidden
  Matrix out_weight_grad_;
  Matrix out_bias_;     // 1 x J
  Matrix out_bias_grad_;

  std::unique_ptr<nn::AdamOptimizer> optimizer_;

  // RecVAE old-posterior snapshot.
  Matrix old_embed_, old_b1_;
  Matrix old_mu_w_, old_mu_b_, old_lv_w_, old_lv_b_;
  bool has_snapshot_ = false;
};

}  // namespace fvae::baselines

#endif  // FVAE_BASELINES_MULT_VAE_H_
