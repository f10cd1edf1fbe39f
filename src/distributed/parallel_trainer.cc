#include "distributed/parallel_trainer.h"

#include <algorithm>
#include <thread>
#include <unordered_map>

#include "common/check.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/checkpoint.h"
#include "data/batching.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace fvae::distributed {

ParallelFvaeTrainer::ParallelFvaeTrainer(const core::FvaeConfig& model_config,
                                         const DistributedConfig& config)
    : model_config_(model_config), config_(config) {
  FVAE_CHECK(config_.num_workers >= 1);
  FVAE_CHECK(config_.sync_every_batches >= 1);
}

core::FieldVae& ParallelFvaeTrainer::model() {
  FVAE_CHECK(!replicas_.empty()) << "Train must be called first";
  return *replicas_[0];
}

void ParallelFvaeTrainer::AverageReplicas() {
  const size_t num_replicas = replicas_.size();
  if (num_replicas < 2) return;
  FVAE_TRACE_SCOPE("distributed.merge");
  Stopwatch merge_watch;

  // Dense parameters: elementwise mean, broadcast back.
  std::vector<std::vector<Matrix*>> params(num_replicas);
  for (size_t r = 0; r < num_replicas; ++r) {
    params[r] = replicas_[r]->DenseParams();
    FVAE_CHECK(params[r].size() == params[0].size());
  }
  const float inv = 1.0f / float(num_replicas);
  for (size_t p = 0; p < params[0].size(); ++p) {
    Matrix& base = *params[0][p];
    for (size_t r = 1; r < num_replicas; ++r) {
      FVAE_CHECK(params[r][p]->size() == base.size());
      base.Add(*params[r][p]);
    }
    base.Scale(inv);
    for (size_t r = 1; r < num_replicas; ++r) *params[r][p] = base;
  }

  // Embedding tables: delta synchronization. Only rows some replica
  // actually updated since the last barrier are exchanged (the realistic
  // parameter-server behaviour — and what keeps the sync cost proportional
  // to the recent work, not to the full table). The merged value of a key
  // is the mean over the replicas that know it; every replica then adopts
  // the merged rows.
  const size_t num_fields = replicas_[0]->num_fields();
  for (size_t k = 0; k < num_fields; ++k) {
    for (int which = 0; which < 2; ++which) {
      auto table_of = [&](size_t r) -> nn::EmbeddingTable& {
        return which == 0 ? replicas_[r]->input_table(k)
                          : replicas_[r]->output_table(k);
      };
      const size_t dim = table_of(0).dim();
      const bool with_bias = table_of(0).with_bias();

      // Union of dirty keys across replicas.
      std::unordered_map<uint64_t, bool> dirty_keys;
      for (size_t r = 0; r < num_replicas; ++r) {
        nn::EmbeddingTable& table = table_of(r);
        for (uint32_t row : table.TakeDirtyRows()) {
          dirty_keys.emplace(table.KeyOfRow(row), true);
        }
      }

      // key -> (sum vector, sum bias, count) over replicas knowing it.
      struct Accum {
        std::vector<float> sum;
        float bias = 0.0f;
        uint32_t count = 0;
      };
      std::unordered_map<uint64_t, Accum> merged;
      merged.reserve(dirty_keys.size());
      for (size_t r = 0; r < num_replicas; ++r) {
        nn::EmbeddingTable& table = table_of(r);
        for (const auto& [key, unused] : dirty_keys) {
          (void)unused;
          const auto row = table.FindRow(key);
          if (!row.has_value()) continue;
          Accum& acc = merged[key];
          if (acc.sum.empty()) acc.sum.assign(dim, 0.0f);
          std::span<const float> w = table.Row(*row);
          for (size_t d = 0; d < dim; ++d) acc.sum[d] += w[d];
          if (with_bias) acc.bias += table.bias(*row);
          ++acc.count;
        }
      }
      for (auto& [key, acc] : merged) {
        const float scale = 1.0f / float(acc.count);
        for (float& v : acc.sum) v *= scale;
        acc.bias *= scale;
      }
      for (size_t r = 0; r < num_replicas; ++r) {
        nn::EmbeddingTable& table = table_of(r);
        for (const auto& [key, acc] : merged) {
          const uint32_t row = table.GetOrCreateRow(key);
          std::span<float> w = table.Row(row);
          std::copy(acc.sum.begin(), acc.sum.end(), w.begin());
          if (with_bias) table.set_bias(row, acc.bias);
        }
      }
    }
  }
  obs::MetricsRegistry::Global()
      .Histo("distributed.merge_us")
      .Record(merge_watch.ElapsedSeconds() * 1e6);
}

DistributedResult ParallelFvaeTrainer::Train(
    const MultiFieldDataset& dataset) {
  const size_t workers = config_.num_workers;
  replicas_.clear();

  std::unique_ptr<core::CheckpointManager> checkpointer;
  if (config_.checkpoint_every_rounds > 0 || config_.resume) {
    FVAE_CHECK(!config_.checkpoint_dir.empty())
        << "distributed checkpointing requires checkpoint_dir";
    core::CheckpointManagerOptions manager_options;
    manager_options.dir = config_.checkpoint_dir;
    manager_options.retain = config_.checkpoint_retain;
    checkpointer =
        std::make_unique<core::CheckpointManager>(manager_options);
  }

  // Resume: every replica restarts from the checkpointed post-barrier
  // model (loaded once per replica — FieldVae is non-copyable), giving a
  // consensus warm start at the saved round.
  size_t start_round = 0;
  size_t resumed_users = 0;
  if (config_.resume) {
    auto latest = core::CheckpointManager::LatestIn(config_.checkpoint_dir);
    if (latest.ok()) {
      auto loaded = checkpointer->LoadLatest();
      FVAE_CHECK(loaded.ok()) << "cannot resume from " << *latest << ": "
                              << loaded.status().ToString();
      FVAE_CHECK(loaded->has_cursor)
          << *latest << " has no training cursor to resume from";
      start_round = size_t(loaded->cursor.step);
      resumed_users = size_t(loaded->cursor.users_processed);
      replicas_.push_back(std::move(loaded->model));
      for (size_t r = 1; r < workers; ++r) {
        auto replica = core::LoadFieldVae(*latest);
        FVAE_CHECK(replica.ok()) << "cannot resume from " << *latest << ": "
                                 << replica.status().ToString();
        replicas_.push_back(std::move(replica).value());
      }
    } else {
      FVAE_LOG(INFO) << "no checkpoint to resume from in "
                     << config_.checkpoint_dir << ", starting fresh";
    }
  }
  if (replicas_.empty()) {
    for (size_t r = 0; r < workers; ++r) {
      // Identical dense init across replicas (same seed) so model averaging
      // starts from a consensus point.
      replicas_.push_back(
          std::make_unique<core::FieldVae>(model_config_, dataset.fields()));
    }
  }

  // Round-robin user shards.
  std::vector<std::vector<uint32_t>> shards(workers);
  for (uint32_t u = 0; u < dataset.num_users(); ++u) {
    shards[u % workers].push_back(u);
  }
  for (const auto& shard : shards) {
    FVAE_CHECK(!shard.empty()) << "more workers than users";
  }

  // Per-worker local batch iterators over shard-local indices.
  std::vector<BatchIterator> iterators;
  iterators.reserve(workers);
  for (size_t r = 0; r < workers; ++r) {
    iterators.emplace_back(shards[r].size(), config_.batch_size,
                           config_.seed + r);
  }

  DistributedResult result;
  Stopwatch watch;
  const size_t batches_per_epoch = iterators[0].BatchesPerEpoch();
  const size_t total_rounds =
      (config_.epochs * batches_per_epoch + config_.sync_every_batches - 1) /
      config_.sync_every_batches;

  // Replay the consumed batch schedule up to the resumed round: iterator
  // state is a pure function of the seed and the consumption pattern.
  if (start_round > 0) {
    std::vector<uint32_t> discard;
    for (size_t round = 0; round < start_round; ++round) {
      for (size_t r = 0; r < workers; ++r) {
        for (size_t step = 0; step < config_.sync_every_batches; ++step) {
          if (!iterators[r].Next(&discard)) {
            iterators[r].NewEpoch();
            if (!iterators[r].Next(&discard)) break;
          }
        }
      }
    }
  }

  {
    MutexLock lock(progress_mutex_);
    users_processed_ = resumed_users;
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter& rounds_counter = metrics.Counter("distributed.rounds");
  LatencyHistogram& round_us_histo = metrics.Histo("distributed.round_us");
  for (size_t round = start_round; round < total_rounds; ++round) {
    Stopwatch round_watch;
    // One worker's share of the round (steps between barriers). Progress
    // accumulates locally and folds into the guarded counter once per
    // round, so the lock is off the training hot path.
    auto run_worker = [&](size_t r) {
      FVAE_TRACE_SCOPE("distributed.worker_round");
      std::vector<uint32_t> local, global;
      size_t worker_processed = 0;
      for (size_t step = 0; step < config_.sync_every_batches; ++step) {
        if (!iterators[r].Next(&local)) {
          iterators[r].NewEpoch();
          if (!iterators[r].Next(&local)) break;
        }
        global.clear();
        global.reserve(local.size());
        for (uint32_t idx : local) global.push_back(shards[r][idx]);
        const float beta =
            model_config_.beta *
            std::min(1.0f,
                     float(round * config_.sync_every_batches + step + 1) /
                         float(std::max<size_t>(
                             1, model_config_.anneal_steps)));
        // Serial step: the replicas are already the parallelism.
        replicas_[r]->TrainStep(dataset, global, beta);
        worker_processed += global.size();
      }
      obs::MetricsRegistry::Global()
          .Counter("distributed.users")
          .Add(worker_processed);
      MutexLock lock(progress_mutex_);
      users_processed_ += worker_processed;
    };

    if (config_.simulate_cluster) {
      // Discrete-event accounting: workers execute sequentially; the
      // modeled round time is the slowest worker (they would run in
      // parallel on a real cluster) plus the synchronization barrier.
      double max_busy = 0.0;
      for (size_t r = 0; r < workers; ++r) {
        Stopwatch busy;
        run_worker(r);
        max_busy = std::max(max_busy, busy.ElapsedSeconds());
      }
      Stopwatch sync;
      AverageReplicas();
      result.simulated_seconds += max_busy + sync.ElapsedSeconds();
    } else {
      std::vector<std::thread> threads;
      threads.reserve(workers);
      for (size_t r = 0; r < workers; ++r) {
        threads.emplace_back(run_worker, r);
      }
      for (std::thread& t : threads) t.join();
      AverageReplicas();
    }
    ++result.rounds;
    rounds_counter.Increment();
    round_us_histo.Record(round_watch.ElapsedSeconds() * 1e6);

    if (checkpointer != nullptr && config_.checkpoint_every_rounds > 0 &&
        (round + 1) % config_.checkpoint_every_rounds == 0) {
      // Post-barrier is the one moment a single model represents the run:
      // replica 0 carries the averaged parameters. The cursor's `step` is
      // the number of completed rounds.
      const core::FieldVae& snapshot = *replicas_[0];
      core::TrainingCursor cursor;
      cursor.step = round + 1;
      {
        MutexLock lock(progress_mutex_);
        cursor.users_processed = users_processed_;
      }
      cursor.shuffle_seed = config_.seed;
      cursor.model_rng = snapshot.rng_state();
      for (size_t k = 0; k < snapshot.num_fields(); ++k) {
        cursor.input_table_rng.push_back(
            snapshot.input_table(k).rng_state());
        cursor.output_table_rng.push_back(
            snapshot.output_table(k).rng_state());
      }
      const Status saved = checkpointer->Save(snapshot, cursor);
      // Same policy as TrainFvae: a failed save costs resumability only.
      if (!saved.ok()) {
        FVAE_LOG(WARNING) << "distributed checkpoint save failed: "
                          << saved.ToString();
      }
    }
  }

  result.seconds = watch.ElapsedSeconds();
  if (!config_.simulate_cluster) {
    result.simulated_seconds = result.seconds;
  }
  {
    MutexLock lock(progress_mutex_);
    result.users_processed = users_processed_;
  }
  return result;
}

}  // namespace fvae::distributed
