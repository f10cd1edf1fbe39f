#ifndef FVAE_CORE_FVAE_MODEL_H_
#define FVAE_CORE_FVAE_MODEL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/hot_path.h"
#include "common/random.h"
#include "core/fvae_config.h"
#include "data/dataset.h"
#include "math/matrix.h"
#include "nn/dense.h"
#include "nn/embedding.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"

namespace fvae {
class ThreadPool;
}  // namespace fvae

namespace fvae::core {

/// One user's raw sparse field vector, outside any dataset:
/// features_per_field[k] lists the observed features of field k (may be
/// empty). Used by the online fold-in path, where cold users arrive as bare
/// feature lists rather than dataset indices.
using RawUserFeatures = std::vector<std::vector<FeatureEntry>>;

/// Per-step training statistics.
struct StepStats {
  /// Mean (over batch users) reconstruction NLL per field, alpha-weighted
  /// terms summed in `loss`.
  std::vector<double> field_nll;
  double kl = 0.0;
  double loss = 0.0;
  /// Candidate-set sizes per field after batched softmax + sampling (the
  /// quantity the efficiency tricks shrink).
  std::vector<size_t> candidates_per_field;
};

/// Field-aware Variational Autoencoder (the paper's core contribution).
///
/// Encoder: per-field dynamic-hash embedding tables whose rows are summed
/// over a user's observed features (weighted by feature value), giving the
/// first hidden activation in O(N̄) — equivalent to a dense first layer over
/// the multi-hot input but without materializing it. A tanh MLP trunk then
/// produces mu and log-variance heads of the diagonal Gaussian posterior.
///
/// Decoder: a shared tanh MLP trunk from z, followed by one output head per
/// field; each head holds one weight row + bias per feature in a growable
/// EmbeddingTable and models the field with an independent multinomial
/// (Eq. 1-4). Training normalizes each field's softmax over the batched
/// (and optionally feature-sampled) candidate set (§IV-C2/C3).
///
/// The user representation is the posterior mean mu (paper §III).
class FieldVae {
 public:
  /// `field_schemas` fixes the number of fields and which are sparse
  /// (sampling-eligible). The feature vocabulary itself is open: tables
  /// grow as training encounters new IDs.
  FieldVae(const FvaeConfig& config, std::vector<FieldSchema> field_schemas);

  FieldVae(const FieldVae&) = delete;
  FieldVae& operator=(const FieldVae&) = delete;

  ~FieldVae();

  /// One Algorithm-1 training step over `users` from `dataset`, with the
  /// current annealed KL weight `beta`: exactly ComputeGradients, then
  /// ApplyUpdates. A non-null `pool` runs the candidate prep on one worker
  /// beside the forward pass and row-splits the per-field pass (GEMMs and
  /// multinomial NLL), the dense-layer GEMMs and the sparse-table passes
  /// (row init, embedding gather, gradient scatter, AdaGrad) over it; the
  /// step's stats and parameter updates are bitwise identical to a serial
  /// step with any pool size.
  StepStats TrainStep(const MultiFieldDataset& dataset,
                      std::span<const uint32_t> users, float beta,
                      ThreadPool* pool = nullptr);

  /// The first half of TrainStep: forward, per-field likelihood and
  /// backward. Leaves every gradient readable until ApplyUpdates: dense
  /// ones in dense_optimizer().params(), sparse ones through each table's
  /// touched_rows(), RowGrad() and (output tables) bias_grad(). No weight,
  /// bias, AdaGrad accumulator or Adam moment of an existing row or
  /// parameter changes; rows for features first seen here are created.
  StepStats ComputeGradients(const MultiFieldDataset& dataset,
                             std::span<const uint32_t> users, float beta,
                             ThreadPool* pool = nullptr);

  /// The second half of TrainStep: Adam on the dense parameters and sparse
  /// AdaGrad on every table, consuming and clearing the gradients.
  void ApplyUpdates(ThreadPool* pool = nullptr);

  /// Posterior means (num users x latent_dim) — the user embeddings.
  /// Unknown feature IDs are skipped (cold-start behaviour). This and the
  /// other const encode/score methods run the layers' const inference
  /// pass, so concurrent callers are safe; training must not run
  /// concurrently.
  Matrix Encode(const MultiFieldDataset& dataset,
                std::span<const uint32_t> users) const;

  /// Fold-in entry point for the online module (Fig. 2): posterior means
  /// (users.size() x latent_dim) for users given directly as raw sparse
  /// field vectors. Each element must have num_fields() entries; unknown
  /// feature IDs are skipped (cold-feature behaviour, same as Encode).
  ///
  /// Safe for concurrent callers: the encoder layers run their const
  /// inference pass (nn::Mlp::Infer, nn::DenseLayer::Infer), which writes
  /// only into the caller's scratch. Training must not run concurrently.
  Matrix EncodeFoldIn(std::span<const RawUserFeatures* const> users) const;

  /// Reusable scratch for EncodeFoldInInto. Keeping one alive across calls
  /// (one per thread) makes a warmed-up fold-in encode allocation-free: the
  /// matrices only grow to the high-water batch shape.
  struct FoldInScratch {
    Matrix h1;                  // batch x encoder_hidden[0]
    std::vector<Matrix> trunk;  // the encoder trunk's block outputs
  };

  /// Allocation-conscious fold-in encode: writes the posterior means
  /// (users.size() x latent_dim) into `*mu` using caller-owned scratch,
  /// reading features straight from the raw vectors. Once scratch/mu have
  /// seen the maximum batch shape a call performs zero heap allocations
  /// (runtime-witnessed by serving_test's operator-new interposer;
  /// statically checked by fvae_lint's FVAE_NOALLOC walk). Same
  /// concurrency contract as EncodeFoldIn: concurrent callers are safe
  /// with distinct scratch.
  void EncodeFoldInInto(std::span<const RawUserFeatures* const> users,
                        FoldInScratch* scratch, Matrix* mu) const
      FVAE_HOT FVAE_NOALLOC;

  /// Decoder-trunk activation for latent codes `z` (one row per row of z).
  /// An alternative exported representation: its inner-product geometry is
  /// what the per-field output heads rank features with, so L2/cosine
  /// similarity in this space tracks *profile* similarity — the right
  /// space for mean-pooled look-alike recall (see bench/table6_ab_test).
  Matrix DecoderHidden(const Matrix& z) const;

  /// Decoder logits for `candidate_ids` of field `k`, one row per z row.
  /// Unknown candidates score 0 (cold feature). Row-wise softmax of the
  /// result is the multinomial pi^k(z) restricted to the candidates.
  Matrix ScoreField(const Matrix& z, size_t k,
                    std::span<const uint64_t> candidate_ids) const;

  /// Convenience: embeddings -> scores in one call for evaluation tasks.
  Matrix EncodeAndScore(const MultiFieldDataset& dataset,
                        std::span<const uint32_t> users, size_t k,
                        std::span<const uint64_t> candidate_ids) const;

  size_t num_fields() const { return field_schemas_.size(); }
  size_t latent_dim() const { return config_.latent_dim; }
  const FvaeConfig& config() const { return config_; }
  const std::vector<FieldSchema>& field_schemas() const {
    return field_schemas_;
  }

  /// Features currently known to the input table of field k.
  size_t KnownFeatures(size_t k) const;

  /// Total trainable parameter count (dense + sparse tables), for logging.
  size_t ParameterCount() const;

  /// Dense parameter values, in a stable order across replicas built from
  /// the same config. Used by the distributed trainer's model averaging
  /// and by checkpointing (core/model_io.h).
  std::vector<Matrix*> DenseParams();
  std::vector<const Matrix*> DenseParams() const;

  /// Access to the per-field tables (distributed merging, checkpointing).
  nn::EmbeddingTable& input_table(size_t k) { return *input_tables_[k]; }
  nn::EmbeddingTable& output_table(size_t k) { return *output_tables_[k]; }
  const nn::EmbeddingTable& input_table(size_t k) const {
    return *input_tables_[k];
  }
  const nn::EmbeddingTable& output_table(size_t k) const {
    return *output_tables_[k];
  }

  /// Dense-parameter optimizer (checkpointing of Adam moments).
  nn::AdamOptimizer& dense_optimizer() { return *dense_optimizer_; }
  const nn::AdamOptimizer& dense_optimizer() const {
    return *dense_optimizer_;
  }

  /// Snapshot/restore of the model RNG (reparameterization eps and
  /// candidate sampling draws), so a resumed run replays the exact noise
  /// stream of the uninterrupted one.
  RngState rng_state() const { return rng_.GetState(); }
  void set_rng_state(const RngState& state) { rng_.SetState(state); }

 private:
  struct StepScratch;

  /// Training encoder forward: resolves every (user, field, feature) to an
  /// input-table row on this thread (growing the tables), then initializes
  /// new rows and computes the first layer on `pool`. Leaves the batch's
  /// input refs and first-layer activations in step_scratch_ for backprop
  /// and returns the heads' input (h1 or the encoder trunk's output), which
  /// stays valid until the next step.
  const Matrix& EncodeForTraining(const MultiFieldDataset& dataset,
                                  std::span<const uint32_t> users,
                                  ThreadPool* pool, Matrix* mu,
                                  Matrix* logvar);

  /// Per field in order: batch union, sampling (rng_), candidate columns
  /// and deferred output-table rows into step_scratch_, then signals the
  /// field loop. Runs beside the forward pass, which touches none of it.
  void PrepareCandidates(const MultiFieldDataset& dataset,
                         std::span<const uint32_t> users);

  /// The one inference encoder behind Encode and EncodeFoldInInto: the
  /// layers' const inference pass over `scratch`, mu head only (inference
  /// has no log-variance consumer). `features(i, k)` yields user i's
  /// entries of field k.
  template <typename UserFieldFeatures>
  void EncodeMu(size_t batch, const UserFieldFeatures& features,
                FoldInScratch* scratch, Matrix* mu) const;

  FvaeConfig config_;
  std::vector<FieldSchema> field_schemas_;
  Rng rng_;

  // --- encoder ---
  std::vector<std::unique_ptr<nn::EmbeddingTable>> input_tables_;
  Matrix first_bias_;       // 1 x encoder_hidden[0]
  Matrix first_bias_grad_;
  std::unique_ptr<nn::Mlp> encoder_trunk_;  // only when >1 hidden layer
  std::unique_ptr<nn::DenseLayer> mu_head_;
  std::unique_ptr<nn::DenseLayer> logvar_head_;

  // --- decoder ---
  std::unique_ptr<nn::Mlp> decoder_trunk_;  // latent -> decoder_hidden.back()
  std::vector<std::unique_ptr<nn::EmbeddingTable>> output_tables_;

  std::unique_ptr<nn::AdamOptimizer> dense_optimizer_;

  // Buffers of ComputeGradients (input refs, first-layer activations,
  // field-loop candidates), reused across steps: they only grow to the
  // high-water batch shape.
  std::unique_ptr<StepScratch> step_scratch_;
};

}  // namespace fvae::core

#endif  // FVAE_CORE_FVAE_MODEL_H_
