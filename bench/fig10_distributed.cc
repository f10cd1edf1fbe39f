// Reproduces Fig. 10: training speedup of the FVAE with the number of
// training servers (3..12 in the paper; simulated servers here,
// substitution documented in DESIGN.md §5). The trainer is a
// discrete-event simulation: it measures each server's busy time per
// synchronization round and models the cluster's wall clock as
// max(busy) + sync, so the scaling curve is faithful even on a single-core
// host. Reported as modeled throughput relative to one server.
//
// Paper shape to verify: near-linear speedup with server count.

#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "distributed/parallel_trainer.h"

namespace fvae::bench {
namespace {

int Run() {
  PrintBanner("Fig. 10 — distributed training speedup",
              "FVAE paper, Fig. 10");
  const Scale scale = GetScale();
  const GeneratedProfiles gen = MakeKandian(scale, /*seed=*/2033);
  std::printf("dataset: %s\n", gen.dataset.Summary().c_str());
  std::printf("hardware threads available: %u\n\n",
              std::thread::hardware_concurrency());

  core::FvaeConfig model_config = DefaultFvaeConfig(scale, 141);
  model_config.sampling_rate = 0.1;

  const size_t epochs = ByScale<size_t>(scale, 1, 1, 3);
  std::printf("%-9s  %-18s  %-10s  %s\n", "servers", "modeled users/s",
              "speedup", "rounds");
  double base_throughput = 0.0;
  for (size_t workers : {size_t{1}, size_t{3}, size_t{6}, size_t{9},
                         size_t{12}}) {
    distributed::DistributedConfig config;
    config.num_workers = workers;
    config.epochs = epochs;
    config.batch_size = 256;
    config.sync_every_batches = 4;
    config.seed = 151;
    distributed::ParallelFvaeTrainer trainer(model_config, config);
    const distributed::DistributedResult result =
        trainer.Train(gen.dataset);
    if (workers == 1) base_throughput = result.SimulatedUsersPerSecond();
    std::printf("%-9zu  %-18.1f  %-10.2f  %zu\n", workers,
                result.SimulatedUsersPerSecond(),
                result.SimulatedUsersPerSecond() /
                    std::max(1e-9, base_throughput),
                result.rounds);
    std::fflush(stdout);
  }

  std::printf(
      "\nExpected shape: modeled speedup grows near-linearly with server\n"
      "count; synchronization cost bends the curve slightly at the top\n"
      "(paper Fig. 10).\n");
  return 0;
}

}  // namespace
}  // namespace fvae::bench

int main() { return fvae::bench::Run(); }
