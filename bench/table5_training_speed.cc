// Reproduces Table V: training throughput of FVAE vs Mult-VAE on the three
// datasets. The paper reports speedups of ~56x (SC, million scale) up to
// 3085x (KD) and 4020x (QB) — the gap grows with the feature-space size
// because Mult-VAE's full softmax is O(J) per user while FVAE's batched
// softmax + feature sampling is O(candidates).
//
// Mult-VAE uses 20-bit feature hashing at billion scale in the paper; here
// the hashed space is scaled with the dataset (tiny: 2^12, small: 2^15,
// large: 2^17). Both trainers run under the same wall-clock budget and we
// report users/second.
//
// Mult-VAE trains on one thread. FVAE is measured twice: serially (the
// like-for-like row the speedup column uses) and through TrainFvae, which
// runs each step on a pool of hardware_concurrency() threads.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "baselines/mult_vae.h"
#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "core/fvae_model.h"
#include "core/trainer.h"
#include "data/batching.h"

namespace fvae::bench {
namespace {

struct SpeedRow {
  const char* dataset;
  double mult_vae_users_per_s = 0.0;
  double fvae_serial_users_per_s = 0.0;
  double fvae_pooled_users_per_s = 0.0;
  size_t feature_space = 0;
};

/// TrainFvae's loop (shuffled batches, annealed beta) with every step run
/// serially, i.e. TrainStep without a pool.
double SerialFvaeUsersPerSecond(const core::FvaeConfig& config,
                                const MultiFieldDataset& data,
                                double budget_seconds) {
  core::FieldVae model(config, data.fields());
  BatchIterator batches(data.num_users(), /*batch_size=*/512,
                        /*seed=*/99);
  std::vector<uint32_t> batch;
  size_t users = 0, steps = 0;
  Stopwatch watch;
  while (watch.ElapsedSeconds() < budget_seconds) {
    if (!batches.Next(&batch)) {
      batches.NewEpoch();
      continue;
    }
    model.TrainStep(data, batch, core::AnnealedBeta(config, ++steps));
    users += batch.size();
  }
  return double(users) / watch.ElapsedSeconds();
}

SpeedRow Measure(const char* name, const GeneratedProfiles& gen,
                 Scale scale) {
  SpeedRow row;
  row.dataset = name;
  const double budget = ByScale<double>(scale, 3.0, 15.0, 45.0);

  // Identical network widths for both models — the comparison isolates the
  // output-layer strategy (full softmax vs batched + sampled softmax).
  const size_t hidden = ByScale<size_t>(scale, 32, 64, 128);
  const size_t latent = ByScale<size_t>(scale, 16, 32, 64);

  // --- Mult-VAE with full softmax over a hashed feature space (the
  //     paper's 20-bit legacy configuration, scaled down) ---
  {
    baselines::MultVaeModel::Options options;
    options.variant = baselines::MultVaeModel::Variant::kVae;
    options.hidden_dim = hidden;
    options.latent_dim = latent;
    options.hash_bits = ByScale<int>(scale, 12, 17, 18);
    options.batch_size = 128;
    options.epochs = 1000000;  // run until the budget expires
    options.time_budget_seconds = budget;
    options.seed = 3;
    baselines::MultVaeModel model(options);
    model.Fit(gen.dataset);
    row.mult_vae_users_per_s = model.fit_stats().UsersPerSecond();
    row.feature_space = model.num_columns();
  }

  // --- FVAE with batched softmax + uniform feature sampling (r = 0.1) ---
  {
    core::FvaeConfig config;
    config.latent_dim = latent;
    config.encoder_hidden = {hidden};
    config.decoder_hidden = {hidden};
    config.sampling_strategy = core::SamplingStrategy::kUniform;
    config.sampling_rate = 0.1;
    config.seed = 4;
    row.fvae_serial_users_per_s =
        SerialFvaeUsersPerSecond(config, gen.dataset, budget);
    core::FieldVae model(config, gen.dataset.fields());
    core::TrainOptions options;
    options.batch_size = 512;
    options.epochs = 1000000;
    options.time_budget_seconds = budget;
    const core::TrainResult result =
        core::TrainFvae(model, gen.dataset, options);
    row.fvae_pooled_users_per_s = result.UsersPerSecond();
  }
  return row;
}

int Run() {
  PrintBanner("Table V — training throughput, FVAE vs Mult-VAE",
              "FVAE paper, Table V");
  const Scale scale = GetScale();

  std::vector<SpeedRow> rows;
  rows.push_back(Measure("SC", MakeShortContent(scale, 3031), scale));
  rows.push_back(Measure("KD", MakeKandian(scale, 3032), scale));
  rows.push_back(Measure("QB", MakeQQBrowser(scale, 3033), scale));

  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::printf("Threads: Mult-VAE 1, FVAE 1 (serial) and %u (TrainFvae "
              "pool); speedup = FVAE 1 thread / Mult-VAE 1 thread.\n\n",
              threads);
  std::printf("%-6s  %-10s  %-14s  %-14s  %7s   %s\n", "Data", "hashed J",
              "Mult-VAE (u/s)", "FVAE 1t (u/s)", "speedup",
              "FVAE pool (u/s)");
  for (const SpeedRow& row : rows) {
    std::printf("%-6s  %-10zu  %-14.1f  %-14.1f  %6.0fx   %.1f\n",
                row.dataset, row.feature_space, row.mult_vae_users_per_s,
                row.fvae_serial_users_per_s,
                row.fvae_serial_users_per_s /
                    std::max(1e-9, row.mult_vae_users_per_s),
                row.fvae_pooled_users_per_s);
  }
  std::printf(
      "\nExpected shape: speedup grows with feature-space size (paper: 56x\n"
      "on SC, 3085x on KD, 4020x on QB at full scale).\n");
  return 0;
}

}  // namespace
}  // namespace fvae::bench

int main() { return fvae::bench::Run(); }
