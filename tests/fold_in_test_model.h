#ifndef FVAE_TESTS_FOLD_IN_TEST_MODEL_H_
#define FVAE_TESTS_FOLD_IN_TEST_MODEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/fvae_model.h"
#include "data/dataset.h"
#include "math/matrix.h"

namespace fvae::fold_in_test {

/// Feature ids [0, kKnownFeatures) have rows in the fold-in test model's
/// input table; RawUser ids at or above it are cold features.
inline constexpr uint64_t kKnownFeatures = 8192;

/// A small FieldVae over one dense field with `latent_dim`-wide embeddings
/// and a two-layer encoder trunk, so the Mlp runs. Every known feature id
/// has its own random input row, so distinct RawUser ids fold in to
/// distinct embeddings. Deterministic: every call builds the same model.
inline std::unique_ptr<core::FieldVae> MakeFoldInModel(size_t latent_dim) {
  core::FvaeConfig config;
  config.latent_dim = latent_dim;
  config.encoder_hidden = {8, 6};
  config.decoder_hidden = {8};
  config.seed = 5;
  auto model = std::make_unique<core::FieldVae>(
      config, std::vector<FieldSchema>{FieldSchema{"f", false}});
  for (uint64_t id = 0; id < kKnownFeatures; ++id) {
    model->input_table(0).GetOrCreateRow(id);
  }
  return model;
}

/// One user with a single feature `feature_id` in the model's one field.
inline core::RawUserFeatures RawUser(uint64_t feature_id) {
  return {{{feature_id, 1.0f}}};
}

/// Single-threaded FieldVae::EncodeFoldIn of one user: the oracle every
/// served fold-in must match bit for bit.
inline std::vector<float> Reference(const core::FieldVae& model,
                                    const core::RawUserFeatures& user) {
  const core::RawUserFeatures* users[] = {&user};
  const Matrix mu = model.EncodeFoldIn(users);
  return std::vector<float>(mu.Row(0), mu.Row(0) + mu.cols());
}

}  // namespace fvae::fold_in_test

#endif  // FVAE_TESTS_FOLD_IN_TEST_MODEL_H_
