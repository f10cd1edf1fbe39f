#ifndef FVAE_CORE_TRAINER_H_
#define FVAE_CORE_TRAINER_H_

#include <functional>
#include <string>
#include <vector>

#include "core/fvae_model.h"
#include "core/model_io.h"
#include "data/dataset.h"

namespace fvae::core {

/// Knobs of the training loop (Algorithm 1).
struct TrainOptions {
  size_t batch_size = 512;
  size_t epochs = 10;
  /// Stop early after this many seconds of wall-clock training (0 = off).
  /// Used by the timed benchmarks (Fig. 6, Table V).
  double time_budget_seconds = 0.0;
  /// Called after every epoch with (epoch index, mean loss, elapsed s);
  /// return false to stop training early. The mean loss is NaN for an
  /// epoch that ran zero batches (possible when resuming at an epoch
  /// boundary or stopping on the time budget).
  std::function<bool(size_t, double, double)> epoch_callback;
  /// Called after every `eval_every_steps` steps (0 = never) with
  /// (step index, elapsed seconds); used by AUC-vs-time studies.
  size_t eval_every_steps = 0;
  std::function<void(size_t, double)> step_callback;
  uint64_t shuffle_seed = 99;
  /// Save a checkpoint every this many global steps (0 = never). Requires
  /// checkpoint_dir.
  size_t checkpoint_every_steps = 0;
  /// Directory for `checkpoint-<step>.fvmd` files (core/checkpoint.h).
  std::string checkpoint_dir;
  /// Newest checkpoints kept per rotation.
  size_t checkpoint_retain = 3;
};

/// Aggregated outcome of a training run. For a resumed run the totals
/// (steps, users, epoch losses, seconds) cover the whole logical run, not
/// just the part after the resume.
struct TrainResult {
  std::vector<double> epoch_loss;
  size_t steps = 0;
  size_t users_processed = 0;
  double seconds = 0.0;
  /// Mean candidate-set size per field over all steps (what batched softmax
  /// + sampling actually scored).
  std::vector<double> mean_candidates_per_field;

  double UsersPerSecond() const {
    return seconds > 0.0 ? double(users_processed) / seconds : 0.0;
  }
};

/// The annealed KL weight at 1-based training step `step` under the given
/// configuration (exposed for tests and custom training loops).
float AnnealedBeta(const FvaeConfig& config, size_t step);

/// Runs Algorithm 1: shuffled mini-batches, per-batch candidate
/// construction (inside the model), and KL annealing from 0 up to
/// config.beta over config.anneal_steps steps (config.anneal_schedule).
/// An empty dataset is a no-op returning a zeroed result.
///
/// With checkpoint_every_steps set, the loop saves crash-safe checkpoints
/// through a CheckpointManager; a save failure is logged and training
/// continues.
///
/// Each call owns a ThreadPool of std::thread::hardware_concurrency()
/// workers for the run and passes it to FieldVae::TrainStep, whose pooled
/// step is bitwise identical to a serial one.
TrainResult TrainFvae(FieldVae& model, const MultiFieldDataset& dataset,
                      const TrainOptions& options);

/// Resumes a run from `cursor` (loaded via core/checkpoint.h along with
/// the model it describes). Replays the batch schedule up to the cursor
/// and continues to options.epochs; with the default batched-softmax path
/// the final parameters are bitwise-identical to the uninterrupted run.
/// The cursor's shuffle seed overrides options.shuffle_seed.
TrainResult TrainFvaeResumingFrom(FieldVae& model,
                                  const MultiFieldDataset& dataset,
                                  const TrainOptions& options,
                                  const TrainingCursor& cursor);

}  // namespace fvae::core

#endif  // FVAE_CORE_TRAINER_H_
