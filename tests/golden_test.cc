// Golden training digest: a short, fixed Algorithm-1 run hashed bit for
// bit and compared with tests/data/golden_train.txt, so any change to the
// training numerics shows up as a test failure rather than as a moved digit
// in a benchmark log.
//
// The run covers batched softmax, uniform feature sampling, beta > 0 under
// annealing, non-uniform alpha and a two-layer encoder trunk. It goes
// through core::TrainFvae (so the trainer's beta schedule and batch order
// are pinned), and the same batches are replayed through FieldVae::TrainStep
// on pools of 1 and 4 workers; all three must give the file's digest.
//
// The digest is a CRC-32 over every dense parameter and Adam moment, the
// Adam step count, every table's keys, rows, biases and AdaGrad state, and
// the bit pattern of every step loss. The file holds one digest for the
// SIMD tiers (AVX2 and AVX-512 train bitwise-identical models) and one for
// scalar. After a deliberate numeric change, rewrite it with
//
//   build/tests/golden_test --gtest_also_run_disabled_tests
//       --gtest_filter='GoldenTest.DISABLED_RewriteGoldenFile'
//
// (one command line, from any directory), and review the file's diff with
// the change.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/thread_pool.h"
#include "core/fvae_model.h"
#include "core/trainer.h"
#include "data/batching.h"
#include "datagen/profile_generator.h"
#include "math/kernels/kernel_table.h"

namespace fvae::core {
namespace {

FvaeConfig GoldenConfig() {
  FvaeConfig config;
  config.latent_dim = 8;
  config.encoder_hidden = {24, 16};
  config.decoder_hidden = {16};
  config.alpha = {1.0f, 0.5f, 2.0f, 1.5f};
  config.beta = 0.2f;
  config.anneal_steps = 4;
  config.sampling_strategy = SamplingStrategy::kUniform;
  config.sampling_rate = 0.5;
  config.batched_softmax = true;
  config.seed = 11;
  return config;
}

TrainOptions GoldenOptions() {
  TrainOptions options;
  options.batch_size = 64;  // 300 users: four full batches and one of 44
  options.epochs = 2;
  options.shuffle_seed = 99;
  return options;
}

const MultiFieldDataset& GoldenData() {
  static const GeneratedProfiles gen =
      GenerateProfiles(ShortContentConfig(300, /*seed=*/21));
  return gen.dataset;
}

uint32_t CrcOf(const Matrix& m, uint32_t crc) {
  return Crc32(m.data(), m.size() * sizeof(float), crc);
}

uint32_t CrcOfTable(const nn::EmbeddingTable& table, uint32_t crc) {
  const size_t bytes = table.dim() * sizeof(float);
  for (uint32_t row = 0; row < table.num_rows(); ++row) {
    const uint64_t key = table.KeyOfRow(row);
    crc = Crc32(&key, sizeof(key), crc);
    crc = Crc32(table.Row(row).data(), bytes, crc);
    crc = Crc32(table.AdagradRow(row).data(), bytes, crc);
    if (table.with_bias()) {
      const float bias[2] = {table.bias(row), table.adagrad_bias(row)};
      crc = Crc32(bias, sizeof(bias), crc);
    }
  }
  return crc;
}

/// CRC-32 of the model's trained state and of `losses`, as 8 hex digits.
std::string Digest(const FieldVae& model, std::span<const double> losses) {
  const nn::AdamOptimizer& adam = model.dense_optimizer();
  uint32_t crc = 0;
  for (size_t p = 0; p < adam.params().size(); ++p) {
    crc = CrcOf(*adam.params()[p].value, crc);
    crc = CrcOf(adam.first_moments()[p], crc);
    crc = CrcOf(adam.second_moments()[p], crc);
  }
  const int64_t steps = adam.step_count();
  crc = Crc32(&steps, sizeof(steps), crc);
  for (size_t k = 0; k < model.num_fields(); ++k) {
    crc = CrcOfTable(model.input_table(k), crc);
    crc = CrcOfTable(model.output_table(k), crc);
  }
  crc = Crc32(losses.data(), losses.size() * sizeof(double), crc);
  char hex[9];
  std::snprintf(hex, sizeof(hex), "%08x", crc);
  return hex;
}

struct Replay {
  std::vector<double> step_loss;
  std::vector<double> epoch_loss;  // means, summed as TrainFvae sums them
};

/// TrainFvae's batches and beta schedule, stepped by hand on `pool`.
Replay ReplayTraining(FieldVae& model, ThreadPool* pool) {
  const MultiFieldDataset& data = GoldenData();
  const TrainOptions options = GoldenOptions();
  BatchIterator batches(data.num_users(), options.batch_size,
                        options.shuffle_seed);
  Replay replay;
  std::vector<uint32_t> batch;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    double sum = 0.0;
    size_t count = 0;
    while (batches.Next(&batch)) {
      const float beta =
          AnnealedBeta(model.config(), replay.step_loss.size() + 1);
      const double loss = model.TrainStep(data, batch, beta, pool).loss;
      replay.step_loss.push_back(loss);
      sum += loss;
      ++count;
    }
    batches.NewEpoch();
    replay.epoch_loss.push_back(sum / double(count));
  }
  return replay;
}

/// The digest of a pool-of-one replay under the active ISA.
std::string ReplayDigest() {
  FieldVae model(GoldenConfig(), GoldenData().fields());
  ThreadPool pool(1);
  const Replay replay = ReplayTraining(model, &pool);
  return Digest(model, replay.step_loss);
}

std::string GoldenPath() { return FVAE_GOLDEN_FILE; }

/// The line tagged `tag` ("simd" or "scalar") of the golden file.
std::string ReadGolden(const std::string& tag) {
  std::ifstream in(GoldenPath());
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, digest;
    if (fields >> name >> digest && name == tag) return digest;
  }
  return "missing '" + tag + "' line in " + GoldenPath();
}

TEST(GoldenTest, TrainingMatchesGoldenDigest) {
  const std::string tag = ActiveIsa() == Isa::kScalar ? "scalar" : "simd";
  const std::string expected = ReadGolden(tag);
  const FvaeConfig config = GoldenConfig();
  const MultiFieldDataset& data = GoldenData();

  FieldVae trained(config, data.fields());
  const TrainResult result = TrainFvae(trained, data, GoldenOptions());

  for (size_t workers : {1u, 4u}) {
    SCOPED_TRACE(std::string(IsaName(ActiveIsa())) + ", pool of " +
                 std::to_string(workers));
    ThreadPool pool(workers);
    FieldVae replayed(config, data.fields());
    const Replay replay = ReplayTraining(replayed, &pool);
    EXPECT_EQ(Digest(replayed, replay.step_loss), expected)
        << "replayed TrainStep digest vs " << tag << " golden";
    // TrainFvae took the same steps: the same state, the same epoch means.
    EXPECT_EQ(Digest(trained, replay.step_loss), expected)
        << "TrainFvae digest vs " << tag << " golden";
    EXPECT_EQ(result.epoch_loss, replay.epoch_loss);
  }
}

// Rewrites the golden file from the scalar and SIMD tiers of this CPU.
// Disabled: run it only by hand, as the header comment says.
TEST(GoldenTest, DISABLED_RewriteGoldenFile) {
  const Isa initial = ActiveIsa();
  ASSERT_TRUE(ForceIsa(Isa::kScalar));
  const std::string scalar = ReplayDigest();
  std::vector<std::string> simd;
  for (Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
    if (ForceIsa(isa)) simd.push_back(ReplayDigest());
  }
  ASSERT_TRUE(ForceIsa(initial));
  ASSERT_FALSE(simd.empty()) << "this CPU has no SIMD tier to digest";
  for (const std::string& digest : simd) {
    ASSERT_EQ(digest, simd.front()) << "AVX2 and AVX-512 digests differ";
  }
  std::ofstream out(GoldenPath(), std::ios::trunc);
  out << "# Training digests checked by tests/golden_test.cc; rewrite with\n"
         "# golden_test --gtest_also_run_disabled_tests "
         "--gtest_filter='GoldenTest.DISABLED_RewriteGoldenFile'\n"
      << "simd " << simd.front() << "\n"
      << "scalar " << scalar << "\n";
  ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
}

}  // namespace
}  // namespace fvae::core
