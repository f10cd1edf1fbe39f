#ifndef FVAE_DISTRIBUTED_PARALLEL_TRAINER_H_
#define FVAE_DISTRIBUTED_PARALLEL_TRAINER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/fvae_config.h"
#include "core/fvae_model.h"
#include "data/dataset.h"

namespace fvae::distributed {

/// Configuration of the simulated multi-server training run (paper §V-E3 /
/// Fig. 10; substitution documented in DESIGN.md §5).
struct DistributedConfig {
  /// Number of simulated training servers.
  size_t num_workers = 4;
  /// Local steps each worker runs between synchronization barriers.
  size_t sync_every_batches = 8;
  size_t epochs = 2;
  size_t batch_size = 256;
  /// Worker r shuffles its shard with seed + r.
  uint64_t seed = 77;
};

/// Outcome of a simulated run.
struct DistributedResult {
  /// Modeled cluster time: the sum over rounds of max(per-worker busy
  /// time) + sync time, both in the simulating thread's CPU time.
  double simulated_seconds = 0.0;
  size_t users_processed = 0;
  size_t rounds = 0;

  /// Throughput of the modeled cluster — the Fig. 10 quantity.
  double SimulatedUsersPerSecond() const {
    return simulated_seconds > 0.0
               ? double(users_processed) / simulated_seconds
               : 0.0;
  }
};

/// Discrete-event simulation of data-parallel FVAE training with periodic
/// model averaging (local SGD), the Fig. 10 experiment.
///
/// Users are sharded round-robin across `num_workers` model replicas; each
/// worker runs `sync_every_batches` Algorithm-1 steps on its shard, then a
/// barrier averages the dense parameters and key-merges the embedding
/// tables across replicas. The workers run one after another on the
/// calling thread; each round's modeled wall clock is max(worker busy
/// time) + synchronization time, so the scaling curve does not depend on
/// the host's core count. Gradient work is embarrassingly parallel and the
/// synchronization cost is proportional to the rows updated since the last
/// barrier, not to the data.
///
/// With one worker and sync_every_batches = 1 the run is TrainFvae with
/// shuffle_seed = seed, bit for bit.
class ParallelFvaeTrainer {
 public:
  ParallelFvaeTrainer(const core::FvaeConfig& model_config,
                      const DistributedConfig& config);

  /// Runs the simulated training to completion.
  DistributedResult Train(const MultiFieldDataset& dataset);

  /// The averaged model (replica 0) after Train.
  core::FieldVae& model();

 private:
  void AverageReplicas();

  core::FvaeConfig model_config_;
  DistributedConfig config_;
  std::vector<std::unique_ptr<core::FieldVae>> replicas_;
};

}  // namespace fvae::distributed

#endif  // FVAE_DISTRIBUTED_PARALLEL_TRAINER_H_
