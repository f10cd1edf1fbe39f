#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/random.h"
#include "core/fvae_model.h"
#include "core/trainer.h"
#include "datagen/profile_generator.h"
#include "distributed/parallel_trainer.h"
#include "eval/tasks.h"
#include "model_compare.h"

namespace fvae::distributed {
namespace {

core::FvaeConfig SmallConfig() {
  core::FvaeConfig config;
  config.latent_dim = 8;
  config.encoder_hidden = {16};
  config.decoder_hidden = {16};
  config.sampling_strategy = core::SamplingStrategy::kUniform;
  config.sampling_rate = 0.5;
  config.anneal_steps = 20;
  config.seed = 2;
  return config;
}

MultiFieldDataset SmallProfiles(size_t users) {
  ProfileGeneratorConfig config = ShortContentConfig(users, /*seed=*/71);
  config.fields[2].vocab_size = 256;
  config.fields[3].vocab_size = 512;
  config.num_topics = 6;
  return GenerateProfiles(config).dataset;
}

TEST(ParallelTrainerTest, SingleWorkerRuns) {
  const MultiFieldDataset data = SmallProfiles(120);
  DistributedConfig config;
  config.num_workers = 1;
  config.epochs = 1;
  config.batch_size = 32;
  ParallelFvaeTrainer trainer(SmallConfig(), config);
  const DistributedResult result = trainer.Train(data);
  EXPECT_GT(result.users_processed, 0u);
  EXPECT_GT(result.rounds, 0u);
  EXPECT_GT(result.SimulatedUsersPerSecond(), 0.0);
}

// One worker synchronizing after every batch is Algorithm 1 itself: the
// same batch order (its iterator seed is `seed`), the same beta per step,
// and a serial step, which is bitwise the pooled step TrainFvae takes.
TEST(ParallelTrainerTest, OneWorkerIsTrainFvae) {
  const MultiFieldDataset data = SmallProfiles(120);
  DistributedConfig config;
  config.num_workers = 1;
  config.sync_every_batches = 1;
  config.epochs = 2;
  config.batch_size = 16;
  config.seed = 5;
  ParallelFvaeTrainer trainer(SmallConfig(), config);
  const DistributedResult result = trainer.Train(data);

  core::FieldVae reference(SmallConfig(), data.fields());
  core::TrainOptions options;
  options.batch_size = config.batch_size;
  options.epochs = config.epochs;
  options.shuffle_seed = config.seed;
  const core::TrainResult expected = core::TrainFvae(reference, data, options);

  EXPECT_EQ(result.rounds, expected.steps);
  EXPECT_EQ(result.users_processed, expected.users_processed);
  EXPECT_TRUE(trainer.model().rng_state() == reference.rng_state());
  model_compare::ExpectSameModel(trainer.model(), reference);
}

// The merge visits keys in first-seen order, so a replica that lacks a key
// inserts it at the same row every time: two identical runs agree bit for
// bit.
TEST(ParallelTrainerTest, RunsAreDeterministic) {
  const MultiFieldDataset data = SmallProfiles(150);
  DistributedConfig config;
  config.num_workers = 3;
  config.epochs = 2;
  config.batch_size = 16;
  config.sync_every_batches = 2;
  ParallelFvaeTrainer first(SmallConfig(), config);
  ParallelFvaeTrainer second(SmallConfig(), config);
  const DistributedResult a = first.Train(data);
  const DistributedResult b = second.Train(data);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.users_processed, b.users_processed);
  model_compare::ExpectSameModel(first.model(), second.model());
}

TEST(ParallelTrainerTest, MultiWorkerProcessesAllShards) {
  const MultiFieldDataset data = SmallProfiles(200);
  DistributedConfig config;
  config.num_workers = 4;
  config.epochs = 2;
  config.batch_size = 16;
  config.sync_every_batches = 2;
  ParallelFvaeTrainer trainer(SmallConfig(), config);
  const DistributedResult result = trainer.Train(data);
  // Roughly epochs * num_users total user visits (round-robin shards may
  // wrap unevenly at boundaries).
  EXPECT_GT(result.users_processed, size_t(200 * 2 * 0.7));
  EXPECT_GT(result.simulated_seconds, 0.0);
}

TEST(ParallelTrainerTest, SimulatedClusterTimeShrinksWithWorkers) {
  // Sized so per-round compute clearly dominates the delta-sync cost.
  const MultiFieldDataset data = SmallProfiles(1600);
  core::FvaeConfig model_config = SmallConfig();
  model_config.encoder_hidden = {32};
  model_config.decoder_hidden = {32};
  auto run = [&](size_t workers) {
    DistributedConfig config;
    config.num_workers = workers;
    config.epochs = 2;
    config.batch_size = 50;
    config.sync_every_batches = 4;
    ParallelFvaeTrainer trainer(model_config, config);
    return trainer.Train(data).simulated_seconds;
  };
  const double one = run(1);
  const double four = run(4);
  // Four servers split the per-round work ~4x; allow generous noise.
  EXPECT_LT(four, one * 0.6);
}

TEST(ParallelTrainerTest, AveragingSynchronizesDenseParams) {
  const MultiFieldDataset data = SmallProfiles(100);
  DistributedConfig config;
  config.num_workers = 3;
  config.epochs = 1;
  config.batch_size = 16;
  config.sync_every_batches = 1;
  ParallelFvaeTrainer trainer(SmallConfig(), config);
  trainer.Train(data);
  // After the final barrier, replica 0's model is the consensus model and
  // must produce valid embeddings.
  std::vector<uint32_t> users(10);
  std::iota(users.begin(), users.end(), 0u);
  const Matrix z = trainer.model().Encode(data, users);
  EXPECT_EQ(z.rows(), 10u);
  for (size_t i = 0; i < z.size(); ++i) {
    EXPECT_TRUE(std::isfinite(z.data()[i]));
  }
}

TEST(ParallelTrainerTest, DistributedModelLearnsSignal) {
  // The averaged model should beat chance on tag prediction.
  ProfileGeneratorConfig gen_config = ShortContentConfig(300, /*seed=*/73);
  gen_config.fields[2].vocab_size = 256;
  gen_config.fields[3].vocab_size = 512;
  gen_config.fields[3].avg_features = 10.0;
  gen_config.num_topics = 6;
  const GeneratedProfiles gen = GenerateProfiles(gen_config);

  DistributedConfig config;
  config.num_workers = 2;
  config.epochs = 10;
  config.batch_size = 32;
  config.sync_every_batches = 4;
  core::FvaeConfig model_config = SmallConfig();
  model_config.latent_dim = 16;
  model_config.encoder_hidden = {32};
  model_config.decoder_hidden = {32};
  ParallelFvaeTrainer trainer(model_config, config);
  trainer.Train(gen.dataset);

  // Wrap the trained model for the tag-prediction task.
  class Wrapper : public eval::RepresentationModel {
   public:
    explicit Wrapper(core::FieldVae* model) : model_(model) {}
    std::string Name() const override { return "distributed-fvae"; }
    void Fit(const MultiFieldDataset&) override {}
    Matrix Embed(const MultiFieldDataset& data,
                 std::span<const uint32_t> users) const override {
      return model_->Encode(data, users);
    }
    Matrix Score(const MultiFieldDataset& input,
                 std::span<const uint32_t> users, size_t field,
                 std::span<const uint64_t> candidates) const override {
      return model_->EncodeAndScore(input, users, field, candidates);
    }

   private:
    core::FieldVae* model_;
  };

  Wrapper wrapper(&trainer.model());
  std::vector<uint32_t> users(gen.dataset.num_users());
  std::iota(users.begin(), users.end(), 0u);
  Rng rng(75);
  const eval::TaskMetrics metrics = eval::RunTagPrediction(
      wrapper, gen.dataset, users, 3, gen.field_vocab[3], rng);
  EXPECT_GT(metrics.auc, 0.6);
}

}  // namespace
}  // namespace fvae::distributed
