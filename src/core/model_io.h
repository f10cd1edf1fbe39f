#ifndef FVAE_CORE_MODEL_IO_H_
#define FVAE_CORE_MODEL_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "core/fvae_model.h"

namespace fvae::core {

/// Checkpointing of a FieldVae: the offline module trains, saves, and the
/// serving side reloads for inference (Fig. 2's model serving proxy); the
/// trainer additionally saves mid-run checkpoints it can resume from with
/// bitwise-identical results (ARCHITECTURE.md §10).
///
/// Format (little-endian): magic "FVMD", uint32 version 3, then a sequence
/// of self-describing sections — uint32 tag, uint64 payload size, payload,
/// uint32 CRC-32 of the payload — in strictly increasing tag order,
/// terminated by an end-marker section (tag 0, empty payload). Sections:
/// config, schemas, dense parameters, embedding tables, optimizer state
/// (Adam moments + step count, per-key AdaGrad accumulators), then either
/// the training cursor (epoch/step position, model RNG state, KL-anneal
/// position) or, for exports, the model RNG state alone. Every load verifies
/// each section's checksum, so a truncated or corrupted file is reported
/// as an IoError — it can never deserialize into a silently-wrong model.
/// Any other version or section tag is InvalidArgument. All writes are
/// crash-safe via common/atomic_file.h and fire the `model_io.save.*`
/// failpoints.

/// Exact position of a training run, captured at a step boundary. Together
/// with the optimizer state this is sufficient for TrainFvae to resume and
/// reproduce the uninterrupted run bit for bit (default batched-softmax
/// path; see trainer.h).
struct TrainingCursor {
  /// Epoch index currently in progress and batches already consumed in it.
  uint64_t epoch = 0;
  uint64_t batch_in_epoch = 0;
  /// Global 0-based completed-step count — also the KL-anneal position
  /// (AnnealedBeta is a pure function of the 1-based step).
  uint64_t step = 0;
  uint64_t users_processed = 0;
  /// Loss sum over the current (partial) epoch's batches.
  double epoch_loss_accum = 0.0;
  /// Mean losses of the epochs completed so far.
  std::vector<double> epoch_loss;
  /// Per-field running candidate-count sums (divided by steps at the end).
  std::vector<double> candidate_accum;
  /// Shuffle seed of the run, so resume replays the same batch order.
  uint64_t shuffle_seed = 0;
  /// Wall-clock seconds accumulated before this checkpoint.
  double prior_seconds = 0.0;
  /// Model RNG (reparameterization eps, candidate sampling). Table rows
  /// need none: a new row's values depend only on its table's seed and key.
  RngState model_rng;
};

/// A loaded checkpoint: the model plus, when the file carries one (trainer
/// checkpoints), the training cursor to resume from.
struct LoadedCheckpoint {
  std::unique_ptr<FieldVae> model;
  bool has_cursor = false;
  TrainingCursor cursor;
};

/// Saves model weights + optimizer state (no cursor): a final export that
/// is exact for inference and an exact warm start for further training.
Status SaveFieldVae(const FieldVae& model, const std::string& path);

/// Saves a mid-run trainer checkpoint: weights, optimizer state, and the
/// training cursor.
Status SaveCheckpoint(const FieldVae& model, const TrainingCursor& cursor,
                      const std::string& path);

/// Loads a checkpoint or export, restoring optimizer state and the model
/// RNG stream. The cursor, if any, is ignored.
Result<std::unique_ptr<FieldVae>> LoadFieldVae(const std::string& path);

/// Loads like LoadFieldVae and also surfaces the training cursor
/// (has_cursor = false for plain SaveFieldVae exports).
Result<LoadedCheckpoint> LoadCheckpoint(const std::string& path);

}  // namespace fvae::core

#endif  // FVAE_CORE_MODEL_IO_H_
