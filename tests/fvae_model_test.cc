#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <tuple>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/fvae_model.h"
#include "core/trainer.h"
#include "datagen/profile_generator.h"

namespace fvae::core {
namespace {

/// Tiny two-field dataset with a deterministic structure: users of group A
/// have ch feature 1 and tag 100; group B has ch 2 and tag 200.
MultiFieldDataset GroupedFixture(size_t users_per_group) {
  MultiFieldDataset::Builder builder(
      {FieldSchema{"ch", false}, FieldSchema{"tag", true}});
  for (size_t i = 0; i < users_per_group; ++i) {
    builder.AddUser({{{1, 1.0f}}, {{100, 1.0f}}});
    builder.AddUser({{{2, 1.0f}}, {{200, 1.0f}}});
  }
  return builder.Build();
}

FvaeConfig SmallConfig() {
  FvaeConfig config;
  config.latent_dim = 8;
  config.encoder_hidden = {16};
  config.decoder_hidden = {16};
  config.beta = 0.1f;
  config.anneal_steps = 50;
  config.sampling_strategy = SamplingStrategy::kNone;
  config.seed = 7;
  return config;
}

TEST(FieldVaeTest, ConstructionExposesShape) {
  FieldVae model(SmallConfig(), {{"a", false}, {"b", true}});
  EXPECT_EQ(model.num_fields(), 2u);
  EXPECT_EQ(model.latent_dim(), 8u);
  EXPECT_EQ(model.KnownFeatures(0), 0u);
  EXPECT_GT(model.ParameterCount(), 0u);
}

TEST(FieldVaeTest, TrainStepReturnsFiniteStats) {
  const MultiFieldDataset data = GroupedFixture(16);
  FieldVae model(SmallConfig(), data.fields());
  std::vector<uint32_t> batch(8);
  std::iota(batch.begin(), batch.end(), 0u);
  const StepStats stats = model.TrainStep(data, batch, 0.1f);
  ASSERT_EQ(stats.field_nll.size(), 2u);
  EXPECT_TRUE(std::isfinite(stats.loss));
  EXPECT_TRUE(std::isfinite(stats.kl));
  EXPECT_GE(stats.kl, -1e-4);
  for (double nll : stats.field_nll) {
    EXPECT_TRUE(std::isfinite(nll));
    EXPECT_GE(nll, 0.0);
  }
  // Both candidates sets cover this tiny fixture's vocab.
  EXPECT_EQ(stats.candidates_per_field[0], 2u);
  EXPECT_EQ(stats.candidates_per_field[1], 2u);
}

TEST(FieldVaeTest, TrainingGrowsVocabularies) {
  const MultiFieldDataset data = GroupedFixture(4);
  FieldVae model(SmallConfig(), data.fields());
  std::vector<uint32_t> batch(data.num_users());
  std::iota(batch.begin(), batch.end(), 0u);
  model.TrainStep(data, batch, 0.0f);
  EXPECT_EQ(model.KnownFeatures(0), 2u);
  EXPECT_EQ(model.KnownFeatures(1), 2u);
}

TEST(FieldVaeTest, LossDecreasesWithTraining) {
  const MultiFieldDataset data = GroupedFixture(32);
  FieldVae model(SmallConfig(), data.fields());
  std::vector<uint32_t> batch(data.num_users());
  std::iota(batch.begin(), batch.end(), 0u);
  double first = 0.0, last = 0.0;
  for (int step = 0; step < 60; ++step) {
    const StepStats stats = model.TrainStep(data, batch, 0.0f);
    if (step == 0) first = stats.loss;
    last = stats.loss;
  }
  EXPECT_LT(last, first * 0.8) << "training did not reduce the loss";
}

TEST(FieldVaeTest, EncodeFoldInMatchesDatasetEncode) {
  const MultiFieldDataset data = GroupedFixture(8);
  FieldVae model(SmallConfig(), data.fields());
  std::vector<uint32_t> batch(data.num_users());
  std::iota(batch.begin(), batch.end(), 0u);
  model.TrainStep(data, batch, 0.1f);

  // Encoding the same sparse field vectors through the fold-in entry point
  // must reproduce the dataset path bit for bit (same inference code).
  const std::vector<uint32_t> users{0, 1};
  const Matrix via_dataset = model.Encode(data, users);
  const RawUserFeatures raw_a{{{1, 1.0f}}, {{100, 1.0f}}};   // user 0
  const RawUserFeatures raw_b{{{2, 1.0f}}, {{200, 1.0f}}};   // user 1
  const std::vector<const RawUserFeatures*> raw{&raw_a, &raw_b};
  const Matrix via_foldin = model.EncodeFoldIn(raw);
  ASSERT_EQ(via_foldin.rows(), 2u);
  ASSERT_EQ(via_foldin.cols(), model.latent_dim());
  for (size_t i = 0; i < via_dataset.rows(); ++i) {
    for (size_t d = 0; d < via_dataset.cols(); ++d) {
      EXPECT_EQ(via_dataset.at(i, d), via_foldin.at(i, d));
    }
  }

  // Unknown feature IDs are skipped, matching cold-start Encode behaviour.
  const RawUserFeatures unknown{{{777, 1.0f}}, {{888, 1.0f}}};
  const std::vector<const RawUserFeatures*> cold{&unknown};
  const Matrix cold_mu = model.EncodeFoldIn(cold);
  for (size_t d = 0; d < cold_mu.cols(); ++d) {
    EXPECT_TRUE(std::isfinite(cold_mu.at(0, d)));
  }
}

TEST(FieldVaeTest, EncodeIsDeterministicAndMeanBased) {
  const MultiFieldDataset data = GroupedFixture(8);
  FieldVae model(SmallConfig(), data.fields());
  std::vector<uint32_t> batch(data.num_users());
  std::iota(batch.begin(), batch.end(), 0u);
  model.TrainStep(data, batch, 0.1f);

  const std::vector<uint32_t> users{0, 1, 2};
  const Matrix z1 = model.Encode(data, users);
  const Matrix z2 = model.Encode(data, users);
  EXPECT_EQ(z1.rows(), 3u);
  EXPECT_EQ(z1.cols(), 8u);
  EXPECT_LT(Matrix::MaxAbsDiff(z1, z2), 1e-9f);
}

TEST(FieldVaeTest, EncodeWithVarianceClampsLogvar) {
  const MultiFieldDataset data = GroupedFixture(4);
  FieldVae model(SmallConfig(), data.fields());
  Matrix mu, logvar;
  const std::vector<uint32_t> users{0, 1};
  model.EncodeWithVariance(data, users, &mu, &logvar);
  for (size_t i = 0; i < logvar.size(); ++i) {
    EXPECT_LE(logvar.data()[i], 10.0f);
    EXPECT_GE(logvar.data()[i], -10.0f);
  }
}

TEST(FieldVaeTest, ColdFeaturesAreSkippedAtInference) {
  const MultiFieldDataset data = GroupedFixture(4);
  FieldVae model(SmallConfig(), data.fields());
  std::vector<uint32_t> all(data.num_users());
  std::iota(all.begin(), all.end(), 0u);
  model.TrainStep(data, all, 0.0f);

  // A dataset with one known and one never-seen feature.
  MultiFieldDataset::Builder builder(data.fields());
  builder.AddUser({{{1, 1.0f}, {999, 1.0f}}, {}});
  builder.AddUser({{{1, 1.0f}}, {}});
  const MultiFieldDataset probe = builder.Build();
  const std::vector<uint32_t> users{0, 1};
  const Matrix z = model.Encode(probe, users);
  // Unknown feature contributes nothing: both users encode identically.
  for (size_t d = 0; d < z.cols(); ++d) {
    EXPECT_FLOAT_EQ(z(0, d), z(1, d));
  }
  // And the unknown ID was NOT added to the vocabulary.
  EXPECT_EQ(model.KnownFeatures(0), 2u);
}

TEST(FieldVaeTest, ScoreFieldShapesAndUnknownCandidates) {
  const MultiFieldDataset data = GroupedFixture(8);
  FieldVae model(SmallConfig(), data.fields());
  std::vector<uint32_t> all(data.num_users());
  std::iota(all.begin(), all.end(), 0u);
  model.TrainStep(data, all, 0.0f);

  const Matrix z = model.Encode(data, std::vector<uint32_t>{0, 1});
  const std::vector<uint64_t> candidates{100, 200, 555555};
  const Matrix scores = model.ScoreField(z, 1, candidates);
  EXPECT_EQ(scores.rows(), 2u);
  EXPECT_EQ(scores.cols(), 3u);
  // Unknown candidate scores exactly zero.
  EXPECT_EQ(scores(0, 2), 0.0f);
  EXPECT_EQ(scores(1, 2), 0.0f);
}

TEST(FieldVaeTest, LearnsGroupStructure) {
  // After training, a group-A user must score tag 100 above tag 200.
  const MultiFieldDataset data = GroupedFixture(64);
  FvaeConfig config = SmallConfig();
  FieldVae model(config, data.fields());
  std::vector<uint32_t> all(data.num_users());
  std::iota(all.begin(), all.end(), 0u);
  Rng rng(3);
  for (int step = 0; step < 120; ++step) {
    rng.Shuffle(all);
    std::vector<uint32_t> batch(all.begin(), all.begin() + 32);
    model.TrainStep(data, batch, 0.05f);
  }
  // Fold-in: users identified by channel only.
  MultiFieldDataset::Builder builder(data.fields());
  builder.AddUser({{{1, 1.0f}}, {}});  // group A
  builder.AddUser({{{2, 1.0f}}, {}});  // group B
  const MultiFieldDataset probe = builder.Build();
  const Matrix scores = model.EncodeAndScore(
      probe, std::vector<uint32_t>{0, 1}, 1,
      std::vector<uint64_t>{100, 200});
  EXPECT_GT(scores(0, 0), scores(0, 1)) << "group A prefers tag 100";
  EXPECT_GT(scores(1, 1), scores(1, 0)) << "group B prefers tag 200";
}

TEST(FieldVaeTest, DecoderHiddenShapeAndDeterminism) {
  const MultiFieldDataset data = GroupedFixture(8);
  FieldVae model(SmallConfig(), data.fields());
  std::vector<uint32_t> all(data.num_users());
  std::iota(all.begin(), all.end(), 0u);
  model.TrainStep(data, all, 0.0f);
  const Matrix z = model.Encode(data, std::vector<uint32_t>{0, 1, 2});
  const Matrix h1 = model.DecoderHidden(z);
  const Matrix h2 = model.DecoderHidden(z);
  EXPECT_EQ(h1.rows(), 3u);
  EXPECT_EQ(h1.cols(), 16u);  // decoder_hidden.back()
  EXPECT_LT(Matrix::MaxAbsDiff(h1, h2), 1e-9f);
  // tanh-bounded trunk output.
  for (size_t i = 0; i < h1.size(); ++i) {
    EXPECT_LE(std::fabs(h1.data()[i]), 1.0f);
  }
}

TEST(FieldVaeTest, AlphaWeightsMustMatchFieldCount) {
  FvaeConfig config = SmallConfig();
  config.alpha = {1.0f, 2.0f};  // matches two fields
  const MultiFieldDataset data = GroupedFixture(4);
  FieldVae model(config, data.fields());
  std::vector<uint32_t> batch{0, 1};
  const StepStats stats = model.TrainStep(data, batch, 0.0f);
  EXPECT_TRUE(std::isfinite(stats.loss));
}

TEST(FieldVaeTest, SamplingReducesCandidateSets) {
  // Build a dataset with a wide sparse tag field.
  ProfileGeneratorConfig gen_config = ShortContentConfig(200, /*seed=*/5);
  const GeneratedProfiles gen = GenerateProfiles(gen_config);

  FvaeConfig config = SmallConfig();
  config.sampling_strategy = SamplingStrategy::kUniform;
  config.sampling_rate = 0.1;
  FieldVae sampled(config, gen.dataset.fields());

  FvaeConfig full_config = SmallConfig();
  full_config.sampling_strategy = SamplingStrategy::kNone;
  FieldVae full(full_config, gen.dataset.fields());

  std::vector<uint32_t> batch(128);
  std::iota(batch.begin(), batch.end(), 0u);
  const StepStats s1 = sampled.TrainStep(gen.dataset, batch, 0.0f);
  const StepStats s2 = full.TrainStep(gen.dataset, batch, 0.0f);
  // The tag field (index 3, sparse) must be subsampled to ~10%.
  EXPECT_LT(s1.candidates_per_field[3],
            s2.candidates_per_field[3] / 5);
  // Non-sparse fields are untouched by sampling.
  EXPECT_EQ(s1.candidates_per_field[0], s2.candidates_per_field[0]);
}

TEST(FieldVaeTest, FullSoftmaxScoresEveryKnownFeature) {
  FvaeConfig config = SmallConfig();
  config.batched_softmax = false;
  const MultiFieldDataset data = GroupedFixture(8);
  FieldVae model(config, data.fields());
  std::vector<uint32_t> first_batch{0, 1};   // sees ch 1/2? user0=A,user1=B
  model.TrainStep(data, first_batch, 0.0f);
  // Second step with a batch covering the same users: candidate set must be
  // the full known vocabulary (2 per field), not just the batch union.
  std::vector<uint32_t> tiny_batch{0};  // group A only
  const StepStats stats = model.TrainStep(data, tiny_batch, 0.0f);
  EXPECT_EQ(stats.candidates_per_field[0], 2u);
  EXPECT_EQ(stats.candidates_per_field[1], 2u);
}

TEST(FieldVaeTest, DenseParamsStableAcrossReplicas) {
  const MultiFieldDataset data = GroupedFixture(4);
  FieldVae a(SmallConfig(), data.fields());
  FieldVae b(SmallConfig(), data.fields());
  auto pa = a.DenseParams();
  auto pb = b.DenseParams();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->rows(), pb[i]->rows());
    ASSERT_EQ(pa[i]->cols(), pb[i]->cols());
    // Same seed -> identical dense init.
    EXPECT_LT(Matrix::MaxAbsDiff(*pa[i], *pb[i]), 1e-9f);
  }
}

TEST(FieldVaeTest, DeepEncoderAndDecoderWork) {
  FvaeConfig config = SmallConfig();
  config.encoder_hidden = {16, 12};
  config.decoder_hidden = {12, 16};
  const MultiFieldDataset data = GroupedFixture(8);
  FieldVae model(config, data.fields());
  std::vector<uint32_t> batch(8);
  std::iota(batch.begin(), batch.end(), 0u);
  double first = 0.0, last = 0.0;
  for (int step = 0; step < 40; ++step) {
    const StepStats stats = model.TrainStep(data, batch, 0.0f);
    if (step == 0) first = stats.loss;
    last = stats.loss;
  }
  EXPECT_LT(last, first);
}

// ---------- pooled training step ----------

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// (batched softmax, deep trunks)
class PooledStepTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

// A pooled step only re-partitions work over output rows, so N pooled steps
// must reproduce N serial steps bit for bit: stats, dense parameters, and
// the encoder output built from the sparse tables.
TEST_P(PooledStepTest, PooledStepsAreBitwiseSerialSteps) {
  const auto [batched, deep] = GetParam();
  const GeneratedProfiles gen = GenerateProfiles(ShortContentConfig(160, 5));
  FvaeConfig config = SmallConfig();
  config.batched_softmax = batched;
  config.sampling_strategy = SamplingStrategy::kUniform;
  config.sampling_rate = 0.3;
  if (deep) {
    config.encoder_hidden = {16, 12};
    config.decoder_hidden = {12, 16};
  }
  FieldVae serial(config, gen.dataset.fields());
  FieldVae pooled(config, gen.dataset.fields());
  ThreadPool pool(4);
  // 67 users: the row split ends in a partial 4-row tile.
  std::vector<uint32_t> batch(67);
  for (size_t step = 0; step < 4; ++step) {
    std::iota(batch.begin(), batch.end(), uint32_t(step * 23));
    const StepStats s = serial.TrainStep(gen.dataset, batch, 0.1f);
    const StepStats p = pooled.TrainStep(gen.dataset, batch, 0.1f, &pool);
    EXPECT_EQ(p.loss, s.loss) << "step " << step;
    EXPECT_EQ(p.kl, s.kl) << "step " << step;
    EXPECT_EQ(p.field_nll, s.field_nll) << "step " << step;
    EXPECT_EQ(p.candidates_per_field, s.candidates_per_field)
        << "step " << step;
  }
  const auto serial_params = serial.DenseParams();
  const auto pooled_params = pooled.DenseParams();
  ASSERT_EQ(pooled_params.size(), serial_params.size());
  for (size_t i = 0; i < serial_params.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(*pooled_params[i], *serial_params[i]))
        << "dense param " << i;
  }
  std::vector<uint32_t> all(gen.dataset.num_users());
  std::iota(all.begin(), all.end(), 0u);
  EXPECT_TRUE(BitwiseEqual(pooled.Encode(gen.dataset, all),
                           serial.Encode(gen.dataset, all)));
}

INSTANTIATE_TEST_SUITE_P(
    SoftmaxAndDepth, PooledStepTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& info) {
      return std::string(std::get<0>(info.param) ? "Batched" : "Full") +
             (std::get<1>(info.param) ? "Deep" : "Shallow");
    });

}  // namespace
}  // namespace fvae::core
