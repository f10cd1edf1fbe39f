#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/retry.h"
#include "core/checkpoint.h"
#include "core/fvae_model.h"
#include "core/model_io.h"
#include "core/trainer.h"

namespace fvae::core {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Environment-variable arming. This must be the FIRST test in the binary:
// FVAE_FAILPOINT is parsed once, on the first FailpointCheck of the
// process, and the forked child below inherits that once-flag. As long as
// nothing called FailpointCheck before the fork, the child parses the
// environment fresh.
// ---------------------------------------------------------------------------
TEST(FailpointEnvTest, EnvVariableArmsErrorActionWithHitBudget) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child. No gtest assertions here — communicate via the exit code.
    ::setenv("FVAE_FAILPOINT",
             "env.test_point:error@2, malformed::entry ,env.other", 1);
    if (FailpointCheck("env.test_point").code() != StatusCode::kUnavailable) {
      ::_exit(10);
    }
    if (FailpointCheck("env.test_point").code() != StatusCode::kUnavailable) {
      ::_exit(11);
    }
    // Hit budget of 2 exhausted: the point goes dormant again.
    if (!FailpointCheck("env.test_point").ok()) ::_exit(12);
    if (FailpointHitCount("env.test_point") != 2) ::_exit(13);
    // A bare name defaults to kill; prove it is armed without dying.
    if (FailpointHitCount("env.other") != 0) ::_exit(14);
    // The malformed entry must have been ignored, not crashed on.
    if (!FailpointCheck("malformed").ok()) ::_exit(15);
    ::_exit(0);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0) << "child failed at checkpoint "
                                     << WEXITSTATUS(wstatus);
}

TEST(FailpointTest, ScopedArmErrorsUntilBudgetExhausted) {
  ScopedFailpoint fp("unit.point", FailpointAction::kError, 2);
  EXPECT_EQ(FailpointCheck("unit.point").code(), StatusCode::kUnavailable);
  EXPECT_EQ(FailpointCheck("unit.point").code(), StatusCode::kUnavailable);
  EXPECT_TRUE(FailpointCheck("unit.point").ok());
  EXPECT_EQ(fp.hits(), 2u);
  EXPECT_TRUE(FailpointCheck("unit.never_armed").ok());
}

TEST(FailpointTest, DisarmedAfterScopeEnds) {
  {
    ScopedFailpoint fp("unit.scoped", FailpointAction::kError);
    EXPECT_FALSE(FailpointCheck("unit.scoped").ok());
  }
  EXPECT_TRUE(FailpointCheck("unit.scoped").ok());
}

TEST(RetryTest, RetriesOnlyUnavailable) {
  RetryOptions options;
  options.initial_backoff_ms = 0.0;
  int calls = 0;
  Status s = RetryWithBackoff(options, [&] {
    ++calls;
    return calls < 3 ? Status::Unavailable("transient")
                     : Status::Ok();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);

  calls = 0;
  s = RetryWithBackoff(options, [&] {
    ++calls;
    return Status::InvalidArgument("permanent");
  });
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);  // permanent failures are not retried
}

// ---------------------------------------------------------------------------
// Fixtures shared by the checkpoint tests.
// ---------------------------------------------------------------------------
class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fvae_ckpt_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  fs::path dir_;
};

MultiFieldDataset Fixture(size_t users = 64) {
  MultiFieldDataset::Builder builder(
      {FieldSchema{"ch", false}, FieldSchema{"tag", true}});
  for (size_t i = 0; i < users; ++i) {
    const uint64_t group = i % 4;
    builder.AddUser({{{group + 1, 1.0f}},
                     {{100 + group, 1.0f}, {200 + (i % 7), 1.0f}}});
  }
  return builder.Build();
}

FvaeConfig SmallConfig() {
  FvaeConfig config;
  config.latent_dim = 6;
  config.encoder_hidden = {12};
  config.decoder_hidden = {12};
  config.anneal_steps = 8;
  config.sampling_strategy = SamplingStrategy::kUniform;
  config.sampling_rate = 0.5;
  config.seed = 7;
  return config;
}

/// A well-formed cursor for `model`.
TrainingCursor MakeCursor(const FieldVae& model, uint64_t step) {
  TrainingCursor cursor;
  cursor.step = step;
  cursor.epoch = step / 4;
  cursor.batch_in_epoch = step % 4;
  cursor.users_processed = step * 16;
  cursor.shuffle_seed = 99;
  cursor.candidate_accum.assign(model.num_fields(), 0.0);
  cursor.model_rng = model.rng_state();
  return cursor;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Matrix EncodeAll(const FieldVae& model, const MultiFieldDataset& data) {
  std::vector<uint32_t> users(data.num_users());
  std::iota(users.begin(), users.end(), 0u);
  return model.Encode(data, users);
}

// ---------------------------------------------------------------------------
// AtomicFileWriter.
// ---------------------------------------------------------------------------
TEST_F(CheckpointTest, AtomicWriterCommitPublishes) {
  AtomicFileWriter writer;
  ASSERT_TRUE(writer.Open(Path("out.txt"), "unit.atomic").ok());
  writer.stream() << "hello";
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(writer.bytes_committed(), 5u);
  std::ifstream in(Path("out.txt"));
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "hello");
  EXPECT_FALSE(fs::exists(Path("out.txt") + ".tmp"));
}

TEST_F(CheckpointTest, AtomicWriterAbortLeavesNothing) {
  {
    AtomicFileWriter writer;
    ASSERT_TRUE(writer.Open(Path("gone.txt"), "unit.atomic").ok());
    writer.stream() << "doomed";
    writer.Abort();
  }
  EXPECT_FALSE(fs::exists(Path("gone.txt")));
  EXPECT_FALSE(fs::exists(Path("gone.txt") + ".tmp"));
}

TEST_F(CheckpointTest, AtomicWriterDestructorAborts) {
  {
    AtomicFileWriter writer;
    ASSERT_TRUE(writer.Open(Path("dtor.txt"), "unit.atomic").ok());
    writer.stream() << "dropped on the floor";
  }
  EXPECT_FALSE(fs::exists(Path("dtor.txt")));
  EXPECT_FALSE(fs::exists(Path("dtor.txt") + ".tmp"));
}

TEST_F(CheckpointTest, AtomicWriterFailureKeepsOldFile) {
  {
    std::ofstream out(Path("keep.txt"));
    out << "old";
  }
  ScopedFailpoint fp("unit.atomic.before_rename", FailpointAction::kError);
  AtomicFileWriter writer;
  ASSERT_TRUE(writer.Open(Path("keep.txt"), "unit.atomic").ok());
  writer.stream() << "new content that must not land";
  EXPECT_EQ(writer.Commit().code(), StatusCode::kUnavailable);

  std::ifstream in(Path("keep.txt"));
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "old");
  EXPECT_FALSE(fs::exists(Path("keep.txt") + ".tmp"));
}

// ---------------------------------------------------------------------------
// Kill matrix: SIGKILL the process at every registered save failpoint and
// prove the canonical checkpoint is always loadable — either the old file
// or the completely-written new one, never a torn hybrid.
// ---------------------------------------------------------------------------
TEST_F(CheckpointTest, KillAtEverySaveStageLeavesOldOrNewCheckpoint) {
  const MultiFieldDataset data = Fixture();
  FieldVae old_model(SmallConfig(), data.fields());
  TrainOptions options;
  options.batch_size = 16;
  options.epochs = 1;
  TrainFvae(old_model, data, options);

  FvaeConfig new_config = SmallConfig();
  new_config.seed = 21;
  FieldVae new_model(new_config, data.fields());
  TrainFvae(new_model, data, options);

  const struct {
    const char* stage;
    bool expect_new;  // did the rename land before the kill?
  } kStages[] = {
      {"model_io.save.before_tmp_write", false},
      {"model_io.save.after_tmp_write", false},
      {"model_io.save.before_rename", false},
      {"model_io.save.after_rename", true},
  };

  for (const auto& [stage, expect_new] : kStages) {
    SCOPED_TRACE(stage);
    const std::string path = Path("canon.fvmd");
    ASSERT_TRUE(SaveCheckpoint(old_model, MakeCursor(old_model, 1), path)
                    .ok());

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ArmFailpoint(stage, FailpointAction::kKill);
      // The kill failpoint fires mid-save; the status never materializes.
      (void)SaveCheckpoint(new_model, MakeCursor(new_model, 2), path);
      ::_exit(77);  // reached only if the failpoint failed to fire
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child exited instead of dying";
    EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

    auto loaded = LoadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(loaded->has_cursor);
    EXPECT_EQ(loaded->cursor.step, expect_new ? 2u : 1u);
    const Matrix want =
        EncodeAll(expect_new ? new_model : old_model, data);
    const Matrix got = EncodeAll(*loaded->model, data);
    EXPECT_EQ(Matrix::MaxAbsDiff(want, got), 0.0f);
    fs::remove(path);
    fs::remove(path + ".tmp");
  }
}

// ---------------------------------------------------------------------------
// Exact resume.
// ---------------------------------------------------------------------------
TEST_F(CheckpointTest, ResumeReproducesUninterruptedRunBitwise) {
  const MultiFieldDataset data = Fixture(64);
  TrainOptions options;
  options.batch_size = 16;  // 4 steps per epoch
  options.epochs = 4;
  options.shuffle_seed = 5;

  // Reference: one uninterrupted run. TrainFvae and TrainFvaeResumingFrom
  // both run their steps on a thread pool, so this also pins that pooled
  // steps replay bitwise across a resume.
  FieldVae reference(SmallConfig(), data.fields());
  const TrainResult ref_result = TrainFvae(reference, data, options);
  ASSERT_EQ(ref_result.steps, 16u);

  // Same run, saving a checkpoint every 3 steps (so the mid-run
  // checkpoints land mid-epoch, the hard case for the cursor).
  TrainOptions ckpt_options = options;
  ckpt_options.checkpoint_every_steps = 3;
  ckpt_options.checkpoint_dir = Path("ckpts");
  ckpt_options.checkpoint_retain = 16;
  FieldVae full(SmallConfig(), data.fields());
  TrainFvae(full, data, ckpt_options);

  // Checkpointing must observe, never perturb, the run.
  EXPECT_EQ(Matrix::MaxAbsDiff(EncodeAll(reference, data),
                               EncodeAll(full, data)),
            0.0f);

  // Resume from a mid-run checkpoint (step 6 = epoch 1, batch 2) as if the
  // process had been killed there, and train to completion.
  auto loaded = LoadCheckpoint(Path("ckpts") + "/checkpoint-6.fvmd");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->has_cursor);
  EXPECT_EQ(loaded->cursor.step, 6u);
  EXPECT_EQ(loaded->cursor.epoch, 1u);
  EXPECT_EQ(loaded->cursor.batch_in_epoch, 2u);

  const TrainResult resumed_result =
      TrainFvaeResumingFrom(*loaded->model, data, options, loaded->cursor);

  // The resumed parameters must be bitwise identical to the uninterrupted
  // run: encoder outputs, decoder scores, and the run totals all agree.
  EXPECT_EQ(Matrix::MaxAbsDiff(EncodeAll(reference, data),
                               EncodeAll(*loaded->model, data)),
            0.0f);
  const std::vector<uint64_t> candidates{100, 101, 102, 103, 200};
  const Matrix z_ref = EncodeAll(reference, data);
  EXPECT_EQ(Matrix::MaxAbsDiff(
                reference.ScoreField(z_ref, 1, candidates),
                loaded->model->ScoreField(z_ref, 1, candidates)),
            0.0f);
  EXPECT_EQ(resumed_result.steps, ref_result.steps);
  EXPECT_EQ(resumed_result.users_processed, ref_result.users_processed);
  ASSERT_EQ(resumed_result.epoch_loss.size(), ref_result.epoch_loss.size());
  for (size_t e = 0; e < ref_result.epoch_loss.size(); ++e) {
    EXPECT_EQ(resumed_result.epoch_loss[e], ref_result.epoch_loss[e])
        << "epoch " << e;
  }
  ASSERT_EQ(resumed_result.mean_candidates_per_field.size(),
            ref_result.mean_candidates_per_field.size());
  for (size_t k = 0; k < ref_result.mean_candidates_per_field.size(); ++k) {
    EXPECT_EQ(resumed_result.mean_candidates_per_field[k],
              ref_result.mean_candidates_per_field[k]);
  }
}

TEST_F(CheckpointTest, SavedModelIsExactWarmStart) {
  const MultiFieldDataset data = Fixture();
  TrainOptions options;
  options.batch_size = 16;
  options.epochs = 2;

  FieldVae model(SmallConfig(), data.fields());
  TrainFvae(model, data, options);
  ASSERT_TRUE(SaveFieldVae(model, Path("warm.fvmd")).ok());
  auto loaded = LoadFieldVae(Path("warm.fvmd"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Training both for one more epoch must stay bitwise identical; that
  // only holds if the Adam moments, AdaGrad accumulators, and the model RNG
  // stream all round-tripped (a fresh optimizer diverges within one step).
  TrainOptions more = options;
  more.epochs = 1;
  TrainFvae(model, data, more);
  TrainFvae(**loaded, data, more);
  EXPECT_EQ(Matrix::MaxAbsDiff(EncodeAll(model, data),
                               EncodeAll(**loaded, data)),
            0.0f);
}

// A load inserts every row with the file's values and takes the model
// generator state from the file, so saving what was loaded writes the
// file back byte for byte: for an export, for a trainer checkpoint, and
// for tables whose rows span several storage blocks.
TEST_F(CheckpointTest, LoadThenSaveGivesSameBytes) {
  const MultiFieldDataset data = Fixture();
  TrainOptions options;
  options.batch_size = 16;
  options.epochs = 2;
  options.checkpoint_every_steps = 5;
  options.checkpoint_dir = Path("ckpts");
  FieldVae trained(SmallConfig(), data.fields());
  TrainFvae(trained, data, options);
  ASSERT_TRUE(SaveFieldVae(trained, Path("trained.fvmd")).ok());

  // Input rows of dim 100 (512 to a block), output rows of dim 256 (256 to
  // a block), each table over more than three blocks, with AdaGrad state.
  FvaeConfig wide = SmallConfig();
  wide.encoder_hidden = {100};
  wide.decoder_hidden = {256};
  FieldVae blocks(wide, data.fields());
  for (size_t k = 0; k < blocks.num_fields(); ++k) {
    for (auto [table, rows] :
         {std::pair{&blocks.input_table(k), uint64_t{3 * 512 + 5}},
          std::pair{&blocks.output_table(k), uint64_t{3 * 256 + 5}}}) {
      for (uint64_t key = 0; key < rows; ++key) {
        const uint32_t row = table->GetOrCreateRow(key * 977 + k);
        if (key % 3 == 0) {
          const std::vector<float> grad(table->dim(), 0.01f * float(key % 5));
          table->AccumulateGrad(row, grad, 0.5f);
        }
      }
      table->ApplyGradients(0.1f);
    }
  }
  ASSERT_TRUE(SaveFieldVae(blocks, Path("blocks.fvmd")).ok());

  for (const char* name : {"trained.fvmd", "blocks.fvmd"}) {
    auto loaded = LoadFieldVae(Path(name));
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();
    ASSERT_TRUE(SaveFieldVae(**loaded, Path("again.fvmd")).ok());
    EXPECT_TRUE(ReadFile(Path(name)) == ReadFile(Path("again.fvmd"))) << name;
  }
  const std::string checkpoint = Path("ckpts") + "/checkpoint-5.fvmd";
  auto loaded = LoadCheckpoint(checkpoint);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->has_cursor);
  ASSERT_TRUE(
      SaveCheckpoint(*loaded->model, loaded->cursor, Path("again.fvmd")).ok());
  EXPECT_TRUE(ReadFile(checkpoint) == ReadFile(Path("again.fvmd")));
}

// Without a cursor or rng section a load could not set the model generator,
// and a warm start would draw other noise, so the file is refused outright.
TEST_F(CheckpointTest, FileWithoutCursorOrRngIsRejected) {
  const MultiFieldDataset data = Fixture();
  FieldVae model(SmallConfig(), data.fields());
  ASSERT_TRUE(SaveFieldVae(model, Path("export.fvmd")).ok());
  std::string bytes = ReadFile(Path("export.fvmd"));
  // Walk the sections (tag u32, size u64, payload, crc u32) after the
  // magic and version, and cut the rng one (tag 7) out whole. Every other
  // section keeps its CRC, so only the missing section is wrong.
  size_t at = 8;
  bool cut = false;
  while (at + 12 <= bytes.size()) {
    uint32_t tag = 0;
    uint64_t size = 0;
    std::memcpy(&tag, bytes.data() + at, sizeof(tag));
    std::memcpy(&size, bytes.data() + at + 4, sizeof(size));
    const size_t framed = 4 + 8 + size + 4;
    if (tag == 7) {
      bytes.erase(at, framed);
      cut = true;
      break;
    }
    at += framed;
  }
  ASSERT_TRUE(cut);
  WriteFile(Path("no_rng.fvmd"), bytes);

  auto loaded = LoadFieldVae(Path("no_rng.fvmd"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = loaded.status().message();
  EXPECT_NE(message.find("neither cursor nor rng"), std::string::npos)
      << message;
}

// ---------------------------------------------------------------------------
// CheckpointManager: rotation, discovery, retry.
// ---------------------------------------------------------------------------
TEST_F(CheckpointTest, ManagerRotatesOldCheckpoints) {
  const MultiFieldDataset data = Fixture();
  FieldVae model(SmallConfig(), data.fields());

  CheckpointManagerOptions options;
  options.dir = Path("rot");
  options.retain = 2;
  CheckpointManager manager(options);
  for (uint64_t step : {1, 2, 3, 4, 5}) {
    ASSERT_TRUE(manager.Save(model, MakeCursor(model, step)).ok());
  }
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(Path("rot"))) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names,
            (std::vector<std::string>{"checkpoint-4.fvmd",
                                      "checkpoint-5.fvmd"}));

  auto latest = CheckpointManager::LatestIn(Path("rot"));
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, Path("rot") + "/checkpoint-5.fvmd");

  auto loaded = manager.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->cursor.step, 5u);
}

TEST_F(CheckpointTest, DiscoveryIgnoresTmpDebrisAndForeignFiles) {
  const MultiFieldDataset data = Fixture();
  FieldVae model(SmallConfig(), data.fields());
  CheckpointManagerOptions options;
  options.dir = Path("deb");
  CheckpointManager manager(options);
  ASSERT_TRUE(manager.Save(model, MakeCursor(model, 3)).ok());
  {
    // Crash debris and unrelated files must not win discovery.
    std::ofstream(Path("deb") + "/checkpoint-999.fvmd.tmp") << "torn";
    std::ofstream(Path("deb") + "/notes.txt") << "hi";
    std::ofstream(Path("deb") + "/checkpoint-x.fvmd") << "not a step";
  }
  auto latest = CheckpointManager::LatestIn(Path("deb"));
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, Path("deb") + "/checkpoint-3.fvmd");
}

TEST_F(CheckpointTest, LatestInMissingDirIsNotFound) {
  auto latest = CheckpointManager::LatestIn(Path("no_such_dir"));
  EXPECT_EQ(latest.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointTest, SaveRetriesTransientFailures) {
  const MultiFieldDataset data = Fixture();
  FieldVae model(SmallConfig(), data.fields());
  CheckpointManagerOptions options;
  options.dir = Path("retry");
  options.retry.initial_backoff_ms = 0.0;
  CheckpointManager manager(options);

  // The first two attempts hit a transient error at the rename boundary;
  // the third succeeds within the default 3-attempt budget.
  ScopedFailpoint fp("model_io.save.before_rename", FailpointAction::kError,
                     2);
  ASSERT_TRUE(manager.Save(model, MakeCursor(model, 1)).ok());
  EXPECT_EQ(fp.hits(), 2u);
  EXPECT_TRUE(
      LoadCheckpoint(Path("retry") + "/checkpoint-1.fvmd").ok());
}

TEST_F(CheckpointTest, SaveSurfacesPersistentFailure) {
  const MultiFieldDataset data = Fixture();
  FieldVae model(SmallConfig(), data.fields());
  CheckpointManagerOptions options;
  options.dir = Path("fail");
  options.retry.initial_backoff_ms = 0.0;
  CheckpointManager manager(options);

  ScopedFailpoint fp("model_io.save.before_rename", FailpointAction::kError);
  EXPECT_EQ(manager.Save(model, MakeCursor(model, 1)).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(fp.hits(), 3u);  // the full attempt budget was spent
  EXPECT_FALSE(fs::exists(Path("fail") + "/checkpoint-1.fvmd"));
}

// ---------------------------------------------------------------------------
// Corruption and truncation: a damaged checkpoint must be a clean error,
// never a garbage model.
// ---------------------------------------------------------------------------
TEST_F(CheckpointTest, TruncationAtAnyOffsetIsCleanError) {
  const MultiFieldDataset data = Fixture();
  FieldVae model(SmallConfig(), data.fields());
  TrainOptions options;
  options.batch_size = 16;
  options.epochs = 1;
  TrainFvae(model, data, options);
  ASSERT_TRUE(SaveCheckpoint(model, MakeCursor(model, 4), Path("full.fvmd"))
                  .ok());

  std::ifstream in(Path("full.fvmd"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 64u);

  std::vector<size_t> cut_points;
  for (size_t n = 0; n < 64 && n < bytes.size(); ++n) cut_points.push_back(n);
  for (size_t n = 64; n < bytes.size(); n += 509) cut_points.push_back(n);
  for (size_t back = 1; back <= 16 && back < bytes.size(); ++back) {
    cut_points.push_back(bytes.size() - back);
  }
  for (size_t n : cut_points) {
    std::ofstream out(Path("trunc.fvmd"), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(n));
    out.close();
    auto loaded = LoadCheckpoint(Path("trunc.fvmd"));
    EXPECT_FALSE(loaded.ok()) << "prefix of " << n << " bytes loaded";
  }

  // A mid-payload truncation specifically reports an IO error.
  {
    std::ofstream out(Path("trunc.fvmd"), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  auto loaded = LoadCheckpoint(Path("trunc.fvmd"));
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(CheckpointTest, BitFlipsAreDetected) {
  const MultiFieldDataset data = Fixture();
  FieldVae model(SmallConfig(), data.fields());
  ASSERT_TRUE(
      SaveCheckpoint(model, MakeCursor(model, 1), Path("flip.fvmd")).ok());
  std::ifstream in(Path("flip.fvmd"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());

  bool saw_checksum_message = false;
  for (size_t offset = bytes.size() / 3; offset < bytes.size();
       offset += bytes.size() / 3) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x40);
    std::ofstream out(Path("bad.fvmd"), std::ios::binary);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    out.close();
    auto loaded = LoadCheckpoint(Path("bad.fvmd"));
    EXPECT_FALSE(loaded.ok()) << "flip at " << offset << " loaded";
    if (loaded.status().message().find("checksum") != std::string::npos) {
      saw_checksum_message = true;
    }
  }
  EXPECT_TRUE(saw_checksum_message);
}

TEST_F(CheckpointTest, BadMagicDiagnosticsNameFoundBytesAndPath) {
  {
    std::ofstream out(Path("junk.fvmd"), std::ios::binary);
    out << "XYZ!not a checkpoint";
  }
  auto loaded = LoadFieldVae(Path("junk.fvmd"));
  ASSERT_FALSE(loaded.ok());
  const std::string& message = loaded.status().message();
  EXPECT_NE(message.find(Path("junk.fvmd")), std::string::npos) << message;
  EXPECT_NE(message.find("FVMD"), std::string::npos) << message;
  // The bytes actually found must appear, so a mixed-up file is obvious.
  EXPECT_NE(message.find("58 59 5a 21"), std::string::npos) << message;
}

TEST_F(CheckpointTest, UnsupportedVersionDiagnosticsNameVersionAndPath) {
  const MultiFieldDataset data = Fixture();
  FieldVae model(SmallConfig(), data.fields());
  ASSERT_TRUE(SaveFieldVae(model, Path("current.fvmd")).ok());
  const std::string current = ReadFile(Path("current.fvmd"));
  // Version 1 is the retired section-less format, version 2 carried a
  // generator state per table; 99 is from the future.
  for (const uint32_t version : {1u, 2u, 99u}) {
    std::string bytes = current;
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    const std::string path = Path("v" + std::to_string(version) + ".fvmd");
    WriteFile(path, bytes);
    auto loaded = LoadFieldVae(path);
    ASSERT_FALSE(loaded.ok()) << "version " << version << " loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    const std::string& message = loaded.status().message();
    EXPECT_NE(message.find("version " + std::to_string(version)),
              std::string::npos)
        << message;
    EXPECT_NE(message.find(path), std::string::npos) << message;
    EXPECT_NE(message.find("supported"), std::string::npos) << message;
  }
}

TEST_F(CheckpointTest, UnknownSectionTagIsRejected) {
  const MultiFieldDataset data = Fixture();
  FieldVae model(SmallConfig(), data.fields());
  ASSERT_TRUE(SaveFieldVae(model, Path("current.fvmd")).ok());
  std::string bytes = ReadFile(Path("current.fvmd"));
  // Splice a well-formed, CRC-valid section with tag 8 (after the export's
  // last tag, kRng = 7) in front of the 16-byte end marker.
  const std::string payload = "from a newer writer";
  std::string section;
  const uint32_t tag = 8;
  const uint64_t size = payload.size();
  const uint32_t crc = Crc32(payload);
  section.append(reinterpret_cast<const char*>(&tag), sizeof(tag));
  section.append(reinterpret_cast<const char*>(&size), sizeof(size));
  section += payload;
  section.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  bytes.insert(bytes.size() - 16, section);
  WriteFile(Path("tag8.fvmd"), bytes);

  auto loaded = LoadFieldVae(Path("tag8.fvmd"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = loaded.status().message();
  EXPECT_NE(message.find("tag 8"), std::string::npos) << message;
  EXPECT_NE(message.find(Path("tag8.fvmd")), std::string::npos) << message;
}

TEST_F(CheckpointTest, NonZeroAnnealScheduleWordIsRejected) {
  const MultiFieldDataset data = Fixture();
  FieldVae model(SmallConfig(), data.fields());
  ASSERT_TRUE(SaveFieldVae(model, Path("current.fvmd")).ok());
  const std::string current = ReadFile(Path("current.fvmd"));
  // The config section comes first: magic, version, tag, u64 size, then
  // the payload. In it, latent_dim (8) + encoder_hidden {12} (4 + 8) +
  // decoder_hidden {12} (4 + 8) + empty alpha (4) + beta (4) +
  // anneal_steps (8) precede the reserved word that once held the anneal
  // schedule id.
  constexpr size_t kPayload = 4 + 4 + 4 + 8;
  constexpr size_t kBeta = kPayload + 8 + 12 + 12 + 4;
  constexpr size_t kReserved = kBeta + 4 + 8;
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, current.data() + kPayload - 8,
              sizeof(payload_size));
  float beta = 0.0f;
  uint64_t anneal_steps = 0;
  uint32_t reserved = 1;
  std::memcpy(&beta, current.data() + kBeta, sizeof(beta));
  std::memcpy(&anneal_steps, current.data() + kBeta + 4,
              sizeof(anneal_steps));
  std::memcpy(&reserved, current.data() + kReserved, sizeof(reserved));
  ASSERT_EQ(beta, SmallConfig().beta);
  ASSERT_EQ(anneal_steps, SmallConfig().anneal_steps);
  EXPECT_EQ(reserved, 0u);  // every writer stores 0 there

  // 1 and 2 were the retired cyclical and cosine ids. Re-sealing the
  // section's CRC makes the word itself the only thing wrong.
  for (const uint32_t word : {1u, 2u}) {
    std::string bytes = current;
    std::memcpy(bytes.data() + kReserved, &word, sizeof(word));
    const uint32_t crc = Crc32(std::string_view(
        bytes.data() + kPayload, static_cast<size_t>(payload_size)));
    std::memcpy(bytes.data() + kPayload + payload_size, &crc, sizeof(crc));
    const std::string path = Path("word" + std::to_string(word) + ".fvmd");
    WriteFile(path, bytes);
    auto loaded = LoadFieldVae(path);
    ASSERT_FALSE(loaded.ok()) << "reserved word " << word << " loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find("reserved"), std::string::npos)
        << loaded.status().message();
  }
}

}  // namespace
}  // namespace fvae::core
