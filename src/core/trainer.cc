#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <thread>

#include "common/check.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "data/batching.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace fvae::core {

float AnnealedBeta(const FvaeConfig& config, size_t step) {
  FVAE_CHECK(step >= 1) << "steps are 1-based";
  const size_t period = std::max<size_t>(1, config.anneal_steps);
  switch (config.anneal_schedule) {
    case AnnealSchedule::kLinear: {
      const float progress = std::min(1.0f, float(step) / float(period));
      return config.beta * progress;
    }
    case AnnealSchedule::kCyclical: {
      // Sawtooth: position within the current cycle, 1-based.
      const size_t phase = ((step - 1) % period) + 1;
      return config.beta * float(phase) / float(period);
    }
    case AnnealSchedule::kCosine: {
      const float progress = std::min(1.0f, float(step) / float(period));
      return config.beta * 0.5f *
             (1.0f - std::cos(float(std::numbers::pi) * progress));
    }
  }
  return config.beta;
}

namespace {

/// Snapshot of the loop position and all RNG streams, taken right after a
/// completed step so a resumed run replays from the next step.
TrainingCursor CaptureCursor(const FieldVae& model, size_t epoch,
                             size_t batch_in_epoch, const TrainResult& result,
                             double epoch_loss_accum, uint64_t shuffle_seed,
                             double total_seconds) {
  TrainingCursor cursor;
  cursor.epoch = epoch;
  cursor.batch_in_epoch = batch_in_epoch;
  cursor.step = result.steps;
  cursor.users_processed = result.users_processed;
  cursor.epoch_loss_accum = epoch_loss_accum;
  cursor.epoch_loss = result.epoch_loss;
  // mean_candidates_per_field holds running sums until the final divide.
  cursor.candidate_accum = result.mean_candidates_per_field;
  cursor.shuffle_seed = shuffle_seed;
  cursor.prior_seconds = total_seconds;
  cursor.model_rng = model.rng_state();
  for (size_t k = 0; k < model.num_fields(); ++k) {
    cursor.input_table_rng.push_back(model.input_table(k).rng_state());
    cursor.output_table_rng.push_back(model.output_table(k).rng_state());
  }
  return cursor;
}

TrainResult TrainLoop(FieldVae& model, const MultiFieldDataset& dataset,
                      const TrainOptions& options,
                      const TrainingCursor* resume) {
  FVAE_CHECK(options.batch_size > 0);

  TrainResult result;
  result.mean_candidates_per_field.assign(model.num_fields(), 0.0);
  // An empty dataset is a legal no-op (e.g. a shard that received no
  // users), not a crash: there is nothing to iterate and nothing to learn.
  if (dataset.num_users() == 0) return result;

  const uint64_t shuffle_seed =
      resume != nullptr ? resume->shuffle_seed : options.shuffle_seed;
  BatchIterator batches(dataset.num_users(), options.batch_size,
                        shuffle_seed);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter& steps_counter = metrics.Counter("training.steps");
  obs::Counter& users_counter = metrics.Counter("training.users");
  obs::Counter& epochs_counter = metrics.Counter("training.epochs");
  // Loss values live on a linear-ish scale near 1; a fine growth factor
  // keeps the percentile estimates meaningful for them.
  LatencyHistogram& loss_histo =
      metrics.Histo("training.epoch_loss", /*min_value=*/0.01,
                    /*growth=*/1.05, /*num_buckets=*/256);
  LatencyHistogram& epoch_us_histo = metrics.Histo("training.epoch_us");
  LatencyHistogram& step_us_histo = metrics.Histo("training.step_us");
  obs::Gauge& epoch_gauge = metrics.Gauge("training.epoch");
  obs::Gauge& last_loss_gauge = metrics.Gauge("training.last_epoch_loss");

  std::unique_ptr<CheckpointManager> checkpointer;
  if (options.checkpoint_every_steps > 0) {
    FVAE_CHECK(!options.checkpoint_dir.empty())
        << "checkpoint_every_steps requires checkpoint_dir";
    CheckpointManagerOptions manager_options;
    manager_options.dir = options.checkpoint_dir;
    manager_options.retain = options.checkpoint_retain;
    checkpointer = std::make_unique<CheckpointManager>(manager_options);
  }

  size_t start_epoch = 0;
  size_t resumed_batches = 0;
  double resumed_epoch_loss = 0.0;
  double prior_seconds = 0.0;
  if (resume != nullptr) {
    result.steps = size_t(resume->step);
    result.users_processed = size_t(resume->users_processed);
    result.epoch_loss = resume->epoch_loss;
    FVAE_CHECK(resume->candidate_accum.size() == model.num_fields())
        << "cursor does not match this model's field count";
    result.mean_candidates_per_field = resume->candidate_accum;
    start_epoch = size_t(resume->epoch);
    resumed_batches = size_t(resume->batch_in_epoch);
    resumed_epoch_loss = resume->epoch_loss_accum;
    prior_seconds = resume->prior_seconds;
    // Replay the batch schedule to the cursor: each epoch's order is a
    // function of the seed and the reshuffle count alone.
    std::vector<uint32_t> discard;
    for (size_t e = 0; e < start_epoch; ++e) batches.NewEpoch();
    for (size_t b = 0; b < resumed_batches; ++b) {
      FVAE_CHECK(batches.Next(&discard))
          << "cursor batch position exceeds the dataset's batch count";
    }
  }

  // One worker per hardware thread for the step's row-split GEMMs and NLL
  // rows; a pooled step is bitwise identical to a serial one.
  ThreadPool pool(std::thread::hardware_concurrency());
  Stopwatch watch;
  std::vector<uint32_t> batch;
  bool stop = false;

  for (size_t epoch = start_epoch; epoch < options.epochs && !stop; ++epoch) {
    obs::TraceSpan epoch_span("train.epoch");
    Stopwatch epoch_watch;
    const bool resumed_epoch = resume != nullptr && epoch == start_epoch;
    double epoch_loss = resumed_epoch ? resumed_epoch_loss : 0.0;
    size_t epoch_batches = resumed_epoch ? resumed_batches : 0;
    while (batches.Next(&batch)) {
      obs::TraceSpan step_span("train.step");
      Stopwatch step_watch;
      const float beta = AnnealedBeta(model.config(), result.steps + 1);
      const StepStats stats = model.TrainStep(dataset, batch, beta, &pool);
      step_span.End();
      step_us_histo.Record(step_watch.ElapsedSeconds() * 1e6);
      steps_counter.Increment();
      users_counter.Add(batch.size());
      epoch_loss += stats.loss;
      ++epoch_batches;
      ++result.steps;
      result.users_processed += batch.size();
      for (size_t k = 0; k < stats.candidates_per_field.size(); ++k) {
        result.mean_candidates_per_field[k] +=
            double(stats.candidates_per_field[k]);
      }
      if (options.eval_every_steps > 0 && options.step_callback &&
          result.steps % options.eval_every_steps == 0) {
        options.step_callback(result.steps, watch.ElapsedSeconds());
      }
      if (checkpointer != nullptr &&
          result.steps % options.checkpoint_every_steps == 0) {
        const TrainingCursor cursor = CaptureCursor(
            model, epoch, epoch_batches, result, epoch_loss, shuffle_seed,
            prior_seconds + watch.ElapsedSeconds());
        const Status saved = checkpointer->Save(model, cursor);
        // A failed periodic save costs resumability, not correctness;
        // training continues toward the next checkpoint opportunity.
        if (!saved.ok()) {
          FVAE_LOG(WARNING) << "checkpoint save failed: "
                            << saved.ToString();
        }
      }
      if (options.time_budget_seconds > 0.0 &&
          prior_seconds + watch.ElapsedSeconds() >=
              options.time_budget_seconds) {
        stop = true;
        break;
      }
    }
    batches.NewEpoch();
    epochs_counter.Increment();
    epoch_gauge.Set(double(epoch));
    epoch_us_histo.Record(epoch_watch.ElapsedSeconds() * 1e6);
    // An epoch can legally run zero batches (time budget exhausted before
    // its first step, or a resume landing exactly on the epoch boundary):
    // there is no mean loss to report then, and indexing epoch_loss.back()
    // here used to read a value from some *earlier* epoch — or, on the
    // very first one, an empty vector.
    double mean_loss = std::numeric_limits<double>::quiet_NaN();
    if (epoch_batches > 0) {
      mean_loss = epoch_loss / double(epoch_batches);
      result.epoch_loss.push_back(mean_loss);
      loss_histo.Record(mean_loss);
      last_loss_gauge.Set(mean_loss);
    }
    if (options.epoch_callback && !stop) {
      if (!options.epoch_callback(epoch, mean_loss,
                                  prior_seconds + watch.ElapsedSeconds())) {
        stop = true;
      }
    }
  }

  result.seconds = prior_seconds + watch.ElapsedSeconds();
  for (double& c : result.mean_candidates_per_field) {
    if (result.steps > 0) c /= double(result.steps);
  }
  return result;
}

}  // namespace

TrainResult TrainFvae(FieldVae& model, const MultiFieldDataset& dataset,
                      const TrainOptions& options) {
  return TrainLoop(model, dataset, options, nullptr);
}

TrainResult TrainFvaeResumingFrom(FieldVae& model,
                                  const MultiFieldDataset& dataset,
                                  const TrainOptions& options,
                                  const TrainingCursor& cursor) {
  return TrainLoop(model, dataset, options, &cursor);
}

}  // namespace fvae::core
