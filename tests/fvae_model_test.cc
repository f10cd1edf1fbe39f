#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/fvae_model.h"
#include "core/trainer.h"
#include "datagen/profile_generator.h"
#include "model_compare.h"

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

// ---------- the step's two halves ----------

using model_compare::BitwiseEqual;

/// Appends the bit patterns of `values` to `bits`.
void AppendBits(std::span<const float> values, std::vector<uint32_t>* bits) {
  for (float v : values) bits->push_back(std::bit_cast<uint32_t>(v));
}

/// Every dense parameter and Adam moment, bit for bit, then the step count.
std::vector<uint32_t> DenseBits(const FieldVae& model) {
  const nn::AdamOptimizer& adam = model.dense_optimizer();
  std::vector<uint32_t> bits;
  for (size_t p = 0; p < adam.params().size(); ++p) {
    const Matrix& value = *adam.params()[p].value;
    for (const Matrix* m :
         {&value, &adam.first_moments()[p], &adam.second_moments()[p]}) {
      AppendBits({m->data(), m->size()}, &bits);
    }
  }
  bits.push_back(uint32_t(adam.step_count()));
  return bits;
}

/// Each row of every input and output table, bit for bit: key, weights,
/// AdaGrad accumulators and, with biases, the bias and its accumulator.
std::vector<std::vector<std::vector<uint32_t>>> TableBits(
    const FieldVae& model) {
  std::vector<std::vector<std::vector<uint32_t>>> tables;
  for (size_t k = 0; k < model.num_fields(); ++k) {
    for (const nn::EmbeddingTable* table :
         {&model.input_table(k), &model.output_table(k)}) {
      std::vector<std::vector<uint32_t>>& rows = tables.emplace_back();
      for (uint32_t r = 0; r < table->num_rows(); ++r) {
        const uint64_t key = table->KeyOfRow(r);
        std::vector<uint32_t>& bits = rows.emplace_back();
        bits = {uint32_t(key), uint32_t(key >> 32)};
        AppendBits(table->Row(r), &bits);
        AppendBits(table->AdagradRow(r), &bits);
        if (table->with_bias()) {
          const float bias[2] = {table->bias(r), table->adagrad_bias(r)};
          AppendBits(bias, &bits);
        }
      }
    }
  }
  return tables;
}

// ComputeGradients leaves the step's gradients readable and moves nothing:
// every pre-existing weight, bias, AdaGrad accumulator and Adam moment is
// bitwise unchanged, and the only change is the rows of features the batch
// sees for the first time. ApplyUpdates then finishes exactly the step
// TrainStep takes.
TEST(FieldVaeTest, ComputeGradientsMovesNoWeight) {
  const GeneratedProfiles gen = GenerateProfiles(ShortContentConfig(160, 5));
  FvaeConfig config = SmallConfig();
  config.encoder_hidden = {16, 12};
  config.sampling_strategy = SamplingStrategy::kUniform;
  config.sampling_rate = 0.3;
  FieldVae model(config, gen.dataset.fields());
  FieldVae twin(config, gen.dataset.fields());
  std::vector<uint32_t> batch(40);
  for (size_t step = 0; step < 3; ++step) {
    std::iota(batch.begin(), batch.end(), uint32_t(step * 40));
    model.TrainStep(gen.dataset, batch, 0.1f);
    twin.TrainStep(gen.dataset, batch, 0.1f);
  }
  // Users 120..159 bring features the tables have not seen yet.
  std::iota(batch.begin(), batch.end(), 120u);
  const std::vector<uint32_t> dense_before = DenseBits(model);
  const auto tables_before = TableBits(model);

  const StepStats stats = model.ComputeGradients(gen.dataset, batch, 0.1f);
  EXPECT_EQ(DenseBits(model), dense_before);
  const auto tables_after = TableBits(model);
  size_t new_rows = 0;
  for (size_t t = 0; t < tables_before.size(); ++t) {
    const auto& before = tables_before[t];
    const auto& after = tables_after[t];
    ASSERT_GE(after.size(), before.size()) << "table " << t;
    EXPECT_TRUE(std::equal(before.begin(), before.end(), after.begin()))
        << "table " << t;
    new_rows += after.size() - before.size();
  }
  EXPECT_GT(new_rows, 0u);

  // The gradients are there to read.
  double dense_grad = 0.0;
  for (const nn::ParamRef& p : model.dense_optimizer().params()) {
    for (size_t i = 0; i < p.grad->size(); ++i) {
      dense_grad += std::fabs(p.grad->data()[i]);
    }
  }
  EXPECT_GT(dense_grad, 0.0);
  for (size_t k = 0; k < model.num_fields(); ++k) {
    for (const nn::EmbeddingTable* table :
         {&model.input_table(k), &model.output_table(k)}) {
      double row_grad = 0.0, bias_grad = 0.0;
      for (uint32_t row : table->touched_rows()) {
        for (float g : table->RowGrad(row)) row_grad += std::fabs(g);
        if (table->with_bias()) bias_grad += std::fabs(table->bias_grad(row));
      }
      EXPECT_GT(row_grad, 0.0) << "field " << k;
      EXPECT_EQ(bias_grad > 0.0, table->with_bias()) << "field " << k;
    }
  }

  model.ApplyUpdates();
  const StepStats whole = twin.TrainStep(gen.dataset, batch, 0.1f);
  EXPECT_EQ(stats.loss, whole.loss);
  model_compare::ExpectSameModel(model, twin);
}

// ---------- pooled training step ----------

/// A table's pending gradients, bit for bit: the touched rows in order,
/// their row gradients and, with biases, their bias gradients.
void ExpectSameTableGradients(const nn::EmbeddingTable& a,
                              const nn::EmbeddingTable& b,
                              const std::string& what) {
  ASSERT_EQ(a.touched_rows(), b.touched_rows()) << what;
  const size_t bytes = a.dim() * sizeof(float);
  for (uint32_t row : a.touched_rows()) {
    EXPECT_EQ(std::memcmp(a.RowGrad(row).data(), b.RowGrad(row).data(), bytes),
              0)
        << what << " row " << row;
    if (a.with_bias()) {
      EXPECT_EQ(std::bit_cast<uint32_t>(a.bias_grad(row)),
                std::bit_cast<uint32_t>(b.bias_grad(row)))
          << what << " bias of row " << row;
    }
  }
}

/// The gradients ComputeGradients left, bit for bit: every dense gradient
/// and every input and output table's pending gradients.
void ExpectSameGradients(const FieldVae& a, const FieldVae& b) {
  const std::vector<nn::ParamRef>& pa = a.dense_optimizer().params();
  const std::vector<nn::ParamRef>& pb = b.dense_optimizer().params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(*pa[i].grad, *pb[i].grad)) << "dense grad " << i;
  }
  for (size_t k = 0; k < a.num_fields(); ++k) {
    ExpectSameTableGradients(a.input_table(k), b.input_table(k),
                             "input table " + std::to_string(k));
    ExpectSameTableGradients(a.output_table(k), b.output_table(k),
                             "output table " + std::to_string(k));
  }
}

/// (batched softmax, deep trunks, pool threads)
class PooledStepTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, size_t>> {};

// A pooled step only re-partitions work over output rows and table rows,
// and moves the candidate prep onto one worker beside the forward pass, so
// N pooled steps must reproduce N serial steps bit for bit: stats, the
// gradients before each update, dense parameters, every input and output
// table, and the encoder output. With one thread the prep task holds the
// pool's only worker while the forward pass runs on the caller.
TEST_P(PooledStepTest, PooledStepsAreBitwiseSerialSteps) {
  const auto [batched, deep, threads] = GetParam();
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
  ThreadPool pool(threads);
  // 67 users: the row split ends in a partial row tile.
  std::vector<uint32_t> batch(67);
  for (size_t step = 0; step < 4; ++step) {
    std::iota(batch.begin(), batch.end(), uint32_t(step * 23));
    const StepStats s = serial.ComputeGradients(gen.dataset, batch, 0.1f);
    const StepStats p =
        pooled.ComputeGradients(gen.dataset, batch, 0.1f, &pool);
    EXPECT_EQ(p.loss, s.loss) << "step " << step;
    EXPECT_EQ(p.kl, s.kl) << "step " << step;
    EXPECT_EQ(p.field_nll, s.field_nll) << "step " << step;
    EXPECT_EQ(p.candidates_per_field, s.candidates_per_field)
        << "step " << step;
    {
      SCOPED_TRACE("gradients of step " + std::to_string(step));
      ExpectSameGradients(pooled, serial);
    }
    serial.ApplyUpdates();
    pooled.ApplyUpdates(&pool);
  }
  model_compare::ExpectSameModel(pooled, serial);
  std::vector<uint32_t> all(gen.dataset.num_users());
  std::iota(all.begin(), all.end(), 0u);
  EXPECT_TRUE(BitwiseEqual(pooled.Encode(gen.dataset, all),
                           serial.Encode(gen.dataset, all)));
}

// A batch in which one field has no feature at all gives that field no
// candidate: the step skips it (no loss, no output-table row) and the
// pooled step still matches the serial one bit for bit.
TEST(FieldVaeTest, FieldWithoutCandidatesIsSkippedBitwise) {
  MultiFieldDataset::Builder builder({FieldSchema{"ch", false},
                                      FieldSchema{"tag", true},
                                      FieldSchema{"kw", true}});
  for (uint64_t i = 0; i < 24; ++i) {
    // Users 0..11 carry kw features; users 12..23 have none.
    std::vector<FeatureEntry> kw;
    if (i < 12) kw = {{500 + i % 5, 1.0f}, {600 + i % 3, 2.0f}};
    builder.AddUser({{{1 + i % 3, 1.0f}}, {{100 + i % 7, 1.0f}}, kw});
  }
  const MultiFieldDataset data = builder.Build();
  FvaeConfig config = SmallConfig();
  config.sampling_strategy = SamplingStrategy::kUniform;
  config.sampling_rate = 0.5;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    FieldVae serial(config, data.fields());
    FieldVae pooled(config, data.fields());
    ThreadPool pool(threads);
    std::vector<uint32_t> batch(12);
    for (uint32_t first : {0u, 12u, 6u, 12u}) {
      std::iota(batch.begin(), batch.end(), first);
      const StepStats s = serial.ComputeGradients(data, batch, 0.1f);
      const StepStats p = pooled.ComputeGradients(data, batch, 0.1f, &pool);
      EXPECT_EQ(p.loss, s.loss);
      EXPECT_EQ(p.field_nll, s.field_nll);
      EXPECT_EQ(p.candidates_per_field, s.candidates_per_field);
      if (first == 12) {
        EXPECT_EQ(s.candidates_per_field[2], 0u);
        EXPECT_EQ(s.field_nll[2], 0.0);
      } else {
        EXPECT_GT(s.candidates_per_field[2], 0u);
      }
      ExpectSameGradients(pooled, serial);
      serial.ApplyUpdates();
      pooled.ApplyUpdates(&pool);
    }
    EXPECT_EQ(serial.output_table(2).num_rows(),
              pooled.output_table(2).num_rows());
    model_compare::ExpectSameModel(pooled, serial);
  }
}

// The const encode methods run the layers' read-only inference pass, so
// threads sharing one model get the serial answer bit for bit (and, under
// ThreadSanitizer, race on nothing).
TEST(FieldVaeTest, ConcurrentEncodesMatchSerial) {
  const GeneratedProfiles gen = GenerateProfiles(ShortContentConfig(120, 3));
  FvaeConfig config = SmallConfig();
  config.encoder_hidden = {16, 12};
  FieldVae model(config, gen.dataset.fields());
  std::vector<uint32_t> users(gen.dataset.num_users());
  std::iota(users.begin(), users.end(), 0u);
  for (size_t step = 0; step < 3; ++step) {
    model.TrainStep(gen.dataset, std::span(users).first(40), 0.1f);
  }
  const Matrix mu = model.Encode(gen.dataset, users);
  const std::vector<uint64_t> candidates = {1, 2, 3, 5, 8};
  const Matrix scores = model.EncodeAndScore(gen.dataset, users, 0, candidates);

  constexpr size_t kThreads = 4;
  std::vector<Matrix> got_encode(kThreads), got_scores(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        got_encode[t] = model.Encode(gen.dataset, users);
        got_scores[t] =
            model.EncodeAndScore(gen.dataset, users, 0, candidates);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(BitwiseEqual(got_encode[t], mu)) << "thread " << t;
    EXPECT_TRUE(BitwiseEqual(got_scores[t], scores)) << "thread " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SoftmaxDepthAndThreads, PooledStepTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{4})),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool, size_t>>& info) {
      return std::string(std::get<0>(info.param) ? "Batched" : "Full") +
             (std::get<1>(info.param) ? "Deep" : "Shallow") +
             std::to_string(std::get<2>(info.param)) + "Threads";
    });

}  // namespace
}  // namespace fvae::core
