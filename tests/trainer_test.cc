#include <gtest/gtest.h>

#include <cmath>

#include "core/fvae_model.h"
#include "core/trainer.h"
#include "data/dataset.h"

namespace fvae::core {
namespace {

MultiFieldDataset Fixture(size_t users) {
  MultiFieldDataset::Builder builder(
      {FieldSchema{"ch", false}, FieldSchema{"tag", true}});
  for (size_t i = 0; i < users; ++i) {
    const uint64_t group = i % 2;
    builder.AddUser({{{group + 1, 1.0f}},
                     {{100 + group * 100, 1.0f}}});
  }
  return builder.Build();
}

FvaeConfig SmallConfig() {
  FvaeConfig config;
  config.latent_dim = 4;
  config.encoder_hidden = {8};
  config.decoder_hidden = {8};
  config.sampling_strategy = SamplingStrategy::kNone;
  config.anneal_steps = 10;
  config.seed = 3;
  return config;
}

TEST(TrainerTest, RunsRequestedEpochs) {
  const MultiFieldDataset data = Fixture(40);
  FieldVae model(SmallConfig(), data.fields());
  TrainOptions options;
  options.batch_size = 10;
  options.epochs = 3;
  const TrainResult result = TrainFvae(model, data, options);
  EXPECT_EQ(result.epoch_loss.size(), 3u);
  EXPECT_EQ(result.steps, 12u);  // 4 batches x 3 epochs
  EXPECT_EQ(result.users_processed, 120u);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_GT(result.UsersPerSecond(), 0.0);
}

TEST(TrainerTest, EpochCallbackCanStopEarly) {
  const MultiFieldDataset data = Fixture(40);
  FieldVae model(SmallConfig(), data.fields());
  TrainOptions options;
  options.batch_size = 10;
  options.epochs = 10;
  size_t calls = 0;
  options.epoch_callback = [&](size_t epoch, double loss, double elapsed) {
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GE(elapsed, 0.0);
    ++calls;
    return epoch < 1;  // stop after the second epoch
  };
  const TrainResult result = TrainFvae(model, data, options);
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(result.epoch_loss.size(), 2u);
}

TEST(TrainerTest, StepCallbackFiresAtInterval) {
  const MultiFieldDataset data = Fixture(40);
  FieldVae model(SmallConfig(), data.fields());
  TrainOptions options;
  options.batch_size = 10;
  options.epochs = 2;
  options.eval_every_steps = 3;
  std::vector<size_t> seen;
  options.step_callback = [&](size_t step, double elapsed) {
    EXPECT_GE(elapsed, 0.0);
    seen.push_back(step);
  };
  TrainFvae(model, data, options);
  ASSERT_EQ(seen.size(), 2u);  // 8 steps total -> steps 3 and 6
  EXPECT_EQ(seen[0], 3u);
  EXPECT_EQ(seen[1], 6u);
}

TEST(TrainerTest, TimeBudgetStopsTraining) {
  const MultiFieldDataset data = Fixture(200);
  FieldVae model(SmallConfig(), data.fields());
  TrainOptions options;
  options.batch_size = 4;
  options.epochs = 100000;  // far more than the budget allows
  options.time_budget_seconds = 0.1;
  const TrainResult result = TrainFvae(model, data, options);
  EXPECT_LT(result.seconds, 5.0);
  EXPECT_LT(result.epoch_loss.size(), 100000u);
}

TEST(TrainerTest, MeanCandidatesReported) {
  const MultiFieldDataset data = Fixture(20);
  FieldVae model(SmallConfig(), data.fields());
  TrainOptions options;
  options.batch_size = 20;
  options.epochs = 1;
  const TrainResult result = TrainFvae(model, data, options);
  ASSERT_EQ(result.mean_candidates_per_field.size(), 2u);
  EXPECT_NEAR(result.mean_candidates_per_field[0], 2.0, 1e-9);
  EXPECT_NEAR(result.mean_candidates_per_field[1], 2.0, 1e-9);
}

TEST(TrainerTest, EmptyDatasetIsANoOp) {
  // Regression: an empty dataset used to abort, and the epoch callback
  // dereferenced epoch_loss.back() on a zero-batch epoch.
  MultiFieldDataset::Builder builder(
      {FieldSchema{"ch", false}, FieldSchema{"tag", true}});
  const MultiFieldDataset data = builder.Build();
  FieldVae model(SmallConfig(), data.fields());
  TrainOptions options;
  options.batch_size = 10;
  options.epochs = 3;
  bool callback_ran = false;
  options.epoch_callback = [&](size_t, double, double) {
    callback_ran = true;
    return true;
  };
  const TrainResult result = TrainFvae(model, data, options);
  EXPECT_EQ(result.steps, 0u);
  EXPECT_EQ(result.users_processed, 0u);
  EXPECT_TRUE(result.epoch_loss.empty());
  EXPECT_FALSE(callback_ran);
}

TEST(TrainerTest, LossTrendsDownOverEpochs) {
  const MultiFieldDataset data = Fixture(100);
  FvaeConfig config = SmallConfig();
  FieldVae model(config, data.fields());
  TrainOptions options;
  options.batch_size = 25;
  options.epochs = 15;
  const TrainResult result = TrainFvae(model, data, options);
  ASSERT_GE(result.epoch_loss.size(), 10u);
  EXPECT_LT(result.epoch_loss.back(), result.epoch_loss.front());
}

TEST(AnnealScheduleTest, LinearRampsAndSaturates) {
  FvaeConfig config;
  config.beta = 0.4f;
  config.anneal_steps = 10;
  EXPECT_NEAR(AnnealedBeta(config, 1), 0.04f, 1e-6f);
  EXPECT_NEAR(AnnealedBeta(config, 5), 0.2f, 1e-6f);
  EXPECT_NEAR(AnnealedBeta(config, 10), 0.4f, 1e-6f);
  EXPECT_NEAR(AnnealedBeta(config, 1000), 0.4f, 1e-6f);
}

}  // namespace
}  // namespace fvae::core
