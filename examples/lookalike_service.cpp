// End-to-end deployment walkthrough of Fig. 2: offline training and
// embedding inference, the embedding dump (HDFS stand-in), the online
// EmbeddingService loading the dump and serving it (with fold-in for users
// the dump lacks), and look-alike account recall over the served
// embeddings. Exits non-zero if any user goes unanswered. Writes (and then
// removes) its dump in the working directory.
//
//   ./build/examples/lookalike_service

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>

#include "baselines/fvae_adapter.h"
#include "datagen/profile_generator.h"
#include "lookalike/ab_test.h"
#include "lookalike/ann_index.h"
#include "lookalike/lookalike_system.h"
#include "serving/embedding_service.h"
#include "serving/fold_in.h"
#include "serving/load_gen.h"
#include "serving/sharded_store.h"

int main() {
  using namespace fvae;

  // ---- Data construction module ----
  ProfileGeneratorConfig gen_config = ShortContentConfig(
      /*num_users=*/1500, /*seed=*/3);
  const GeneratedProfiles gen = GenerateProfiles(gen_config);
  std::printf("[data] %s\n", gen.dataset.Summary().c_str());

  // ---- Offline module: train + infer + store ----
  core::FvaeConfig config;
  config.latent_dim = 32;
  config.encoder_hidden = {128};
  config.decoder_hidden = {128};
  config.sampling_strategy = core::SamplingStrategy::kUniform;
  config.sampling_rate = 0.2;
  core::TrainOptions train_options;
  train_options.batch_size = 256;
  train_options.epochs = 10;
  baselines::FvaeAdapter fvae(config, train_options);
  std::printf("[offline] training FVAE...\n");
  fvae.Fit(gen.dataset);

  // The last 100 users stay out of the dump: the online module folds them
  // in from their raw features when they are first requested.
  const size_t num_users = gen.dataset.num_users();
  const size_t num_dumped = num_users - 100;
  std::vector<uint32_t> dumped(num_dumped);
  std::iota(dumped.begin(), dumped.end(), 0u);
  const std::string store_path = "lookalike_embeddings.bin";
  {
    const serving::ShardedEmbeddingStore dump = serving::MaterializeEmbeddings(
        fvae.model(), gen.dataset, dumped, /*num_shards=*/16);
    const Status status = dump.Save(store_path);
    std::printf("[offline] dumped %zu embeddings to %s (%s)\n", dump.size(),
                store_path.c_str(), status.ToString().c_str());
    if (!status.ok()) return 1;
  }

  // ---- Online module: load the dump, serve it, fold in the rest ----
  const serving::FvaeFoldInEncoder encoder(&fvae.model());
  serving::EmbeddingService service(serving::ShardedEmbeddingStore(16),
                                    &encoder);
  const Status reloaded = service.ReloadFromFile(store_path);
  std::filesystem::remove(store_path);
  if (!reloaded.ok()) {
    std::printf("reload failed: %s\n", reloaded.ToString().c_str());
    return 1;
  }
  // Every user's served embedding, as the look-alike system receives it.
  Matrix embeddings(num_users, encoder.dim());
  size_t misses = 0;
  for (uint32_t user = 0; user < num_users; ++user) {
    const serving::EmbeddingService::EmbeddingResult result =
        user < num_dumped
            ? service.Lookup(user)
            : service.LookupOrEncode(user,
                                     serving::RawFeaturesOf(gen.dataset, user));
    if (!result.ok()) {
      ++misses;
      continue;
    }
    std::copy(result->begin(), result->end(), embeddings.Row(user));
  }
  const serving::ServingTelemetry& telemetry = service.telemetry();
  std::printf("[online] %llu requests: %llu store hits, %llu fold-ins, "
              "%zu misses\n",
              static_cast<unsigned long long>(telemetry.requests.Value()),
              static_cast<unsigned long long>(telemetry.store_hits.Value()),
              static_cast<unsigned long long>(telemetry.fold_ins.Value()),
              misses);
  if (misses != 0) {
    std::printf("[online] FAIL: %zu users went unanswered\n", misses);
    return 1;
  }

  // ---- Look-alike recall ----
  lookalike::AbTestConfig ab_config;
  ab_config.num_accounts = 120;
  ab_config.seed_followers_per_account = 20;
  lookalike::LookalikeAbTest ab(gen.topic_mixture, ab_config);
  lookalike::LookalikeSystem system(embeddings, ab.seed_followers());

  std::printf("[lookalike] top accounts for 3 users:\n");
  for (uint32_t user : {0u, 1u, 2u}) {
    const auto recalled = system.Recall(user, 5, {});
    std::printf("  user %u ->", user);
    for (uint32_t account : recalled) {
      std::printf(" acct%u(affinity %.2f)", account,
                  ab.Affinity(user, account));
    }
    std::printf("\n");
  }

  // ---- ANN-accelerated recall ----
  // Production recall cannot brute-force millions of accounts per request;
  // an IVF index probes a few k-means cells instead.
  {
    lookalike::AnnIndex::Options ann_options;
    ann_options.num_cells = 16;
    lookalike::AnnIndex ann(system.account_embeddings(), ann_options);
    Matrix queries(8, embeddings.cols());
    for (size_t q = 0; q < 8; ++q) {
      const float* row = embeddings.Row(q);
      std::copy(row, row + embeddings.cols(), queries.Row(q));
    }
    for (size_t nprobe : {size_t{1}, size_t{4}, size_t{16}}) {
      std::printf("[ann] nprobe=%zu recall@10 = %.3f\n", nprobe,
                  ann.MeasureRecall(queries, 10, nprobe));
    }
  }

  // ---- A/B sanity: FVAE vs noise embeddings ----
  Rng noise_rng(5);
  const Matrix noise =
      Matrix::Gaussian(num_users, embeddings.cols(), 1.0f, noise_rng);
  const lookalike::ArmMetrics fvae_arm = ab.RunArm("fvae", embeddings);
  const lookalike::ArmMetrics noise_arm = ab.RunArm("noise", noise);
  std::printf(
      "[ab] following clicks: FVAE %zu vs noise %zu (%+.1f%%)\n",
      fvae_arm.following_clicks, noise_arm.following_clicks,
      100.0 * (double(fvae_arm.following_clicks) /
                   std::max<size_t>(1, noise_arm.following_clicks) -
               1.0));

  return 0;
}
