#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <unistd.h>

#include "baselines/fvae_adapter.h"
#include "baselines/pca.h"
#include "common/random.h"
#include "data/split.h"
#include "datagen/profile_generator.h"
#include "eval/tasks.h"
#include "lookalike/ab_test.h"
#include "serving/embedding_service.h"
#include "serving/sharded_store.h"

namespace fvae {
namespace {

/// End-to-end pipeline covering the full paper workflow: synthetic
/// multi-field profiles -> FVAE training -> tag prediction vs a baseline ->
/// embedding dump -> serving -> look-alike A/B test.
class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ProfileGeneratorConfig config = ShortContentConfig(400, /*seed=*/101);
    // Sharpen the topic signal so the small fixture is learnable: more
    // features per user in the tiny ch1 field and faster Zipf decay keep
    // each topic's window distinctive.
    config.fields[0].avg_features = 6.0;
    config.fields[0].zipf_exponent = 1.4;
    config.fields[1].zipf_exponent = 1.2;
    config.fields[2].vocab_size = 512;
    config.fields[3].vocab_size = 1024;
    config.fields[3].avg_features = 12.0;
    config.num_topics = 8;
    gen_ = GenerateProfiles(config);
    users_.resize(gen_.dataset.num_users());
    std::iota(users_.begin(), users_.end(), 0u);
  }

  baselines::FvaeAdapter MakeFvae() {
    core::FvaeConfig config;
    config.latent_dim = 24;
    config.encoder_hidden = {64};
    config.decoder_hidden = {64};
    config.beta = 0.05f;
    config.anneal_steps = 80;
    config.sampling_strategy = core::SamplingStrategy::kUniform;
    config.sampling_rate = 0.5;
    config.seed = 5;
    core::TrainOptions options;
    options.batch_size = 64;
    options.epochs = 30;
    return baselines::FvaeAdapter(config, options);
  }

  GeneratedProfiles gen_;
  std::vector<uint32_t> users_;
};

TEST_F(IntegrationTest, FvaeBeatsPcaOnTagPrediction) {
  baselines::FvaeAdapter fvae = MakeFvae();
  fvae.Fit(gen_.dataset);
  EXPECT_GT(fvae.train_result().steps, 0u);

  baselines::PcaModel::Options pca_options;
  pca_options.latent_dim = 16;
  baselines::PcaModel pca(pca_options);
  pca.Fit(gen_.dataset);

  Rng rng1(7), rng2(7);
  const eval::TaskMetrics fvae_metrics = eval::RunTagPrediction(
      fvae, gen_.dataset, users_, 3, gen_.field_vocab[3], rng1);
  const eval::TaskMetrics pca_metrics = eval::RunTagPrediction(
      pca, gen_.dataset, users_, 3, gen_.field_vocab[3], rng2);

  EXPECT_GT(fvae_metrics.auc, 0.7) << "FVAE failed to learn";
  EXPECT_GT(fvae_metrics.auc, pca_metrics.auc)
      << "FVAE should beat linear PCA on tag prediction";
}

TEST_F(IntegrationTest, ReconstructionBeatsChance) {
  baselines::FvaeAdapter fvae = MakeFvae();
  Rng split_rng(9);
  const ReconstructionSplit split =
      HoldOutWithinUsers(gen_.dataset, 0.3, split_rng);
  fvae.Fit(split.input);
  Rng rng(11);
  const eval::ReconstructionMetrics metrics = eval::RunReconstruction(
      fvae, gen_.dataset, split, users_, gen_.field_vocab, rng);
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_GT(metrics.per_field[k].auc, 0.6) << "field " << k;
  }
}

TEST_F(IntegrationTest, EmbeddingsFlowThroughServingToLookalike) {
  baselines::FvaeAdapter fvae = MakeFvae();
  fvae.Fit(gen_.dataset);
  const Matrix embeddings = fvae.Embed(gen_.dataset, users_);

  // Offline dump (HDFS stand-in) and online reload.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("fvae_integration_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "embeddings.bin").string();
  {
    serving::ShardedEmbeddingStore offline;
    for (size_t u = 0; u < users_.size(); ++u) {
      const float* row = embeddings.Row(u);
      offline.Put(users_[u],
                  std::vector<float>(row, row + embeddings.cols()));
    }
    ASSERT_TRUE(offline.Save(path).ok());
  }
  serving::EmbeddingService service(serving::ShardedEmbeddingStore(),
                                    /*encoder=*/nullptr);
  ASSERT_TRUE(service.ReloadFromFile(path).ok());

  // Serve every user's embedding back into a matrix.
  Matrix served(users_.size(), embeddings.cols());
  for (size_t u = 0; u < users_.size(); ++u) {
    auto emb = service.Lookup(users_[u]);
    ASSERT_TRUE(emb.ok()) << emb.status().ToString();
    for (size_t d = 0; d < emb->size(); ++d) {
      served(u, d) = (*emb)[d];
    }
  }
  EXPECT_LT(Matrix::MaxAbsDiff(served, embeddings), 1e-6f);

  // Look-alike A/B test: FVAE embeddings vs pure noise.
  lookalike::AbTestConfig ab_config;
  ab_config.num_accounts = 80;
  ab_config.recommendations_per_user = 8;
  ab_config.seed_followers_per_account = 15;
  lookalike::LookalikeAbTest ab(gen_.topic_mixture, ab_config);
  const lookalike::ArmMetrics fvae_arm = ab.RunArm("fvae", served);
  Rng noise_rng(21);
  const Matrix noise =
      Matrix::Gaussian(users_.size(), embeddings.cols(), 1.0f, noise_rng);
  const lookalike::ArmMetrics noise_arm = ab.RunArm("noise", noise);
  EXPECT_GT(fvae_arm.following_clicks, noise_arm.following_clicks);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fvae
