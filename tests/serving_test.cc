#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "core/fvae_model.h"
#include "data/dataset.h"
#include "math/matrix.h"
#include "serving/embedding_service.h"
#include "serving/fold_in.h"
#include "serving/load_gen.h"
#include "serving/sharded_store.h"
#include "serving/telemetry.h"
#include "fold_in_test_model.h"

// ---------------------------------------------------------------------------
// Debug operator-new interposer: the runtime witness for the FVAE_NOALLOC
// contract that fvae_lint checks statically. Replacing the global
// allocation functions routes every new-expression in this binary through
// a counter that is armed only around the call under test; the warmed
// fold-in encode must hit it zero times.
// ---------------------------------------------------------------------------
namespace alloc_witness {

std::atomic<bool> armed{false};
std::atomic<size_t> count{0};

inline void Note() {
  if (armed.load(std::memory_order_relaxed)) {
    count.fetch_add(1, std::memory_order_relaxed);
  }
}

inline void* Alloc(std::size_t size) {
  Note();
  return std::malloc(size == 0 ? 1 : size);
}

inline void* AlignedAlloc(std::size_t size, std::size_t alignment) {
  Note();
  // aligned_alloc insists size is a multiple of alignment.
  const std::size_t rounded =
      (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

/// Arms the counter for one scope; hits() reads the allocations seen.
class Scope {
 public:
  Scope() {
    count.store(0, std::memory_order_relaxed);
    armed.store(true, std::memory_order_relaxed);
  }
  ~Scope() { armed.store(false, std::memory_order_relaxed); }
  size_t hits() const { return count.load(std::memory_order_relaxed); }
};

}  // namespace alloc_witness

void* operator new(std::size_t size) {
  void* ptr = alloc_witness::Alloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new[](std::size_t size) {
  void* ptr = alloc_witness::Alloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return alloc_witness::Alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return alloc_witness::Alloc(size);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  void* ptr =
      alloc_witness::AlignedAlloc(size, static_cast<std::size_t>(alignment));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  void* ptr =
      alloc_witness::AlignedAlloc(size, static_cast<std::size_t>(alignment));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace fvae::serving {
namespace {

// ---------- ShardedEmbeddingStore ----------

TEST(ShardedStoreTest, PutGetAcrossShards) {
  ShardedEmbeddingStore store(4);
  for (uint64_t id = 0; id < 100; ++id) {
    store.Put(id, {float(id), float(id) + 0.5f});
  }
  EXPECT_EQ(store.size(), 100u);
  EXPECT_EQ(store.dim(), 2u);
  EXPECT_EQ(store.num_shards(), 4u);
  for (uint64_t id = 0; id < 100; ++id) {
    auto embedding = store.Get(id);
    ASSERT_TRUE(embedding.has_value());
    EXPECT_FLOAT_EQ((*embedding)[0], float(id));
  }
  EXPECT_FALSE(store.Get(12345).has_value());

  // Counters: 100 hits and 1 miss distributed over the shards.
  uint64_t hits = 0, misses = 0, entries = 0;
  for (const auto& s : store.Stats()) {
    hits += s.hits;
    misses += s.misses;
    entries += s.entries;
  }
  EXPECT_EQ(hits, 100u);
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(entries, 100u);
}

TEST(ShardedStoreTest, SequentialIdsSpreadOverShards) {
  ShardedEmbeddingStore store(8);
  for (uint64_t id = 0; id < 800; ++id) store.Put(id, {1.0f});
  // The splitmix64 mix must not leave any shard empty or hold everything.
  for (const auto& s : store.Stats()) {
    EXPECT_GT(s.entries, 0u);
    EXPECT_LT(s.entries, 800u / 2);
  }
}

TEST(ShardedStoreTest, PutOverwrites) {
  ShardedEmbeddingStore store(2);
  store.Put(5, {1.0f});
  store.Put(5, {9.0f});
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FLOAT_EQ((*store.Get(5))[0], 9.0f);
}

using fold_in_test::kKnownFeatures;
using fold_in_test::MakeFoldInModel;
using fold_in_test::RawUser;
using fold_in_test::Reference;

// ---------- fold-in hot path: zero-allocation witness ----------

/// Structurally complete model for the witness: two encoder hidden layers
/// so the Mlp trunk runs, plus the per-field embedding sums and the mu
/// head, with input tables grown by one training step.
struct WitnessRig {
  WitnessRig() {
    core::FvaeConfig config;
    config.latent_dim = 6;
    config.encoder_hidden = {12, 10};
    config.decoder_hidden = {12};
    config.anneal_steps = 4;
    config.seed = 11;

    MultiFieldDataset::Builder builder(
        {FieldSchema{"ch", false}, FieldSchema{"tag", true}});
    for (uint64_t i = 0; i < 32; ++i) {
      builder.AddUser({{{i % 4 + 1, 1.0f}},
                       {{100 + i % 4, 1.0f}, {200 + (i % 7), 1.0f}}});
    }
    const MultiFieldDataset data = builder.Build();
    model = std::make_unique<core::FieldVae>(config, data.fields());
    std::vector<uint32_t> users(data.num_users());
    std::iota(users.begin(), users.end(), 0);
    // One training step grows the input tables so fold-in actually sums
    // embedding rows instead of skipping every feature as cold.
    model->TrainStep(data, users, /*beta=*/0.1f);

    raw.reserve(8);
    for (uint64_t i = 0; i < 8; ++i) {
      // Mix of known features and one unknown id (cold-feature path).
      raw.push_back({{{i % 4 + 1, 1.0f}},
                     {{100 + i % 4, 1.0f}, {987654321, 1.0f}}});
    }
    for (const auto& features : raw) ptrs.push_back(&features);
  }

  std::unique_ptr<core::FieldVae> model;
  std::vector<core::RawUserFeatures> raw;
  std::vector<const core::RawUserFeatures*> ptrs;
};

TEST(FoldInZeroAllocTest, WarmedEncodeBatchIsAllocationFree) {
  WitnessRig rig;
  FvaeFoldInEncoder encoder(rig.model.get());
  Matrix out;
  encoder.EncodeBatchInto(rig.ptrs, &out);  // grows this thread's scratch
  encoder.EncodeBatchInto(rig.ptrs, &out);  // settles any lazy growth
  ASSERT_EQ(out.rows(), rig.ptrs.size());
  ASSERT_EQ(out.cols(), rig.model->latent_dim());

  size_t allocations = 0;
  {
    alloc_witness::Scope witness;
    encoder.EncodeBatchInto(rig.ptrs, &out);
    allocations = witness.hits();
  }
  EXPECT_EQ(allocations, 0u)
      << "warmed fold-in encode must not touch the heap (FVAE_NOALLOC)";

  // The allocation-free pass still computes the real embeddings.
  const Matrix reference = rig.model->EncodeFoldIn(rig.ptrs);
  EXPECT_EQ(Matrix::MaxAbsDiff(reference, out), 0.0f);
  bool any_nonzero = false;
  for (size_t i = 0; i < out.rows() && !any_nonzero; ++i) {
    for (size_t d = 0; d < out.cols(); ++d) {
      if (out(i, d) != 0.0f) {
        any_nonzero = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_nonzero) << "encode produced an all-zero embedding batch";
}

// The inline path encodes on whichever thread serves the request (an RPC
// worker), each with scratch of its own: a thread's first encode grows its
// scratch even when another thread's is warm, and its second is
// allocation-free.
TEST(FoldInZeroAllocTest, EachThreadWarmsItsOwnScratch) {
  WitnessRig rig;
  const FvaeFoldInEncoder encoder(rig.model.get());
  Matrix main_out;
  encoder.EncodeBatchInto(rig.ptrs, &main_out);
  encoder.EncodeBatchInto(rig.ptrs, &main_out);

  size_t first = 0, warm = 0;
  Matrix worker_out;
  std::thread worker([&] {
    Matrix out(rig.ptrs.size(), rig.model->latent_dim());
    {
      alloc_witness::Scope witness;
      encoder.EncodeBatchInto(rig.ptrs, &out);
      first = witness.hits();
    }
    {
      alloc_witness::Scope witness;
      encoder.EncodeBatchInto(rig.ptrs, &out);
      warm = witness.hits();
    }
    worker_out = out;
  });
  worker.join();
  EXPECT_GT(first, 0u) << "a fresh thread must not share a warm scratch";
  EXPECT_EQ(warm, 0u) << "a warmed worker thread must not touch the heap";
  EXPECT_EQ(Matrix::MaxAbsDiff(main_out, worker_out), 0.0f);
}

// The interposer itself must see ordinary allocations — otherwise a silent
// linker change could turn the zero-allocation assertion into a tautology.
TEST(FoldInZeroAllocTest, InterposerCountsOrdinaryAllocations) {
  size_t allocations = 0;
  {
    alloc_witness::Scope witness;
    std::vector<int>* v = new std::vector<int>(1024, 7);
    allocations = witness.hits();
    delete v;
  }
  EXPECT_GE(allocations, 1u);
}

// ---------- EmbeddingService ----------

EmbeddingServiceOptions FastServiceOptions() {
  EmbeddingServiceOptions options;
  options.num_shards = 4;
  return options;
}

TEST(EmbeddingServiceTest, HotLookupHitsStore) {
  ShardedEmbeddingStore store(4);
  store.Put(42, {1.0f, 2.0f});
  const auto model = MakeFoldInModel(/*latent_dim=*/2);
  FvaeFoldInEncoder encoder(model.get());
  EmbeddingService service(std::move(store), &encoder, FastServiceOptions());

  auto result = service.Lookup(42);
  ASSERT_TRUE(result.ok());
  EXPECT_FLOAT_EQ((*result)[1], 2.0f);
  EXPECT_EQ(service.telemetry().store_hits.Value(), 1u);
  EXPECT_EQ(service.telemetry().fold_ins.Value(), 0u);

  auto missing = service.Lookup(7);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.telemetry().not_found.Value(), 1u);
}

TEST(EmbeddingServiceTest, ColdUserFoldsInAndMaterializes) {
  const auto model = MakeFoldInModel(/*latent_dim=*/2);
  FvaeFoldInEncoder encoder(model.get());
  EmbeddingService service(ShardedEmbeddingStore(4), &encoder,
                           FastServiceOptions());

  auto result = service.LookupOrEncode(900, RawUser(55));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, Reference(*model, RawUser(55)));
  EXPECT_EQ(service.telemetry().fold_ins.Value(), 1u);
  EXPECT_EQ(service.telemetry().foldin_latency_us().Count(), 1u);
  // Each inline encode is accounted as a batch of one.
  EXPECT_EQ(service.telemetry().batches.Value(), 1u);
  EXPECT_EQ(service.telemetry().batched_users.Value(), 1u);

  // Materialized: the next request is a store hit, no second encode —
  // even with different features, the stored embedding answers.
  auto again = service.LookupOrEncode(900, RawUser(56));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *result);
  EXPECT_EQ(service.telemetry().store_hits.Value(), 1u);
  EXPECT_EQ(service.telemetry().fold_ins.Value(), 1u);
  EXPECT_TRUE(service.store().Contains(900));
}

TEST(EmbeddingServiceTest, NoEncoderAnswersNotFound) {
  ShardedEmbeddingStore store(2);
  store.Put(1, {5.0f});
  EmbeddingService service(std::move(store), nullptr);
  ASSERT_TRUE(service.LookupOrEncode(1, RawUser(1)).ok());
  auto cold = service.LookupOrEncode(2, RawUser(2));
  EXPECT_FALSE(cold.ok());
  EXPECT_EQ(cold.status().code(), StatusCode::kNotFound);
}

TEST(EmbeddingServiceTest, TelemetryJsonContainsKeyFields) {
  const auto model = MakeFoldInModel(/*latent_dim=*/2);
  FvaeFoldInEncoder encoder(model.get());
  EmbeddingService service(ShardedEmbeddingStore(2), &encoder,
                           FastServiceOptions());
  // Only the telemetry side effect matters here, not the embedding.
  (void)service.LookupOrEncode(1, RawUser(1));
  const std::string json = service.TelemetryJson();
  EXPECT_NE(json.find("\"qps\""), std::string::npos);
  EXPECT_NE(json.find("\"fold_ins\":1"), std::string::npos);
  EXPECT_NE(json.find("\"foldin_latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// ---------- embedding dump: save, load and reload ----------

/// Per-test temp directory for dump files.
class ReloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fvae_reload_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

using Rows = std::vector<std::pair<uint64_t, std::vector<float>>>;

ShardedEmbeddingStore StoreOf(const Rows& rows, size_t num_shards = 4) {
  ShardedEmbeddingStore store(num_shards);
  for (const auto& [id, row] : rows) store.Put(id, row);
  return store;
}

/// The row `service` serves for `user_id`, or an empty row on any error.
std::vector<float> Served(EmbeddingService& service, uint64_t user_id) {
  EmbeddingService::EmbeddingResult result = service.Lookup(user_id);
  return result.ok() ? *std::move(result) : std::vector<float>{};
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(ReloadTest, SaveLoadRoundTrip) {
  const std::string path = Path("emb.bin");
  ASSERT_TRUE(StoreOf({{1, {1.5f, -2.5f, 3.5f}},
                       {0xFFFFFFFFFFFFFFFFULL, {0.0f, 0.0f, 9.0f}}})
                  .Save(path)
                  .ok());

  auto loaded = ShardedEmbeddingStore::Load(path, /*num_shards=*/8);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->dim(), 3u);
  EXPECT_EQ(loaded->num_shards(), 8u);

  EmbeddingService service(ShardedEmbeddingStore(4), nullptr);
  Status reloaded = service.ReloadFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.ToString();
  EXPECT_EQ(service.store().size(), 2u);
  EXPECT_EQ(service.store().dim(), 3u);
  EXPECT_EQ(Served(service, 1), (std::vector<float>{1.5f, -2.5f, 3.5f}));
  EXPECT_EQ(Served(service, 0xFFFFFFFFFFFFFFFFULL),
            (std::vector<float>{0.0f, 0.0f, 9.0f}));
}

TEST_F(ReloadTest, MissingFileKeepsOldRows) {
  EmbeddingService service(StoreOf({{1, {1.0f, 2.0f}}}), nullptr);
  EXPECT_FALSE(service.ReloadFromFile(Path("missing.bin")).ok());
  EXPECT_EQ(Served(service, 1), (std::vector<float>{1.0f, 2.0f}));
}

TEST_F(ReloadTest, TruncatedDumpKeepsOldRows) {
  Rows rows;
  for (uint64_t i = 0; i < 50; ++i) rows.push_back({i, {1.0f, 2.0f}});
  const std::string path = Path("big.bin");
  ASSERT_TRUE(StoreOf(rows).Save(path).ok());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_FALSE(ShardedEmbeddingStore::Load(path).ok());

  EmbeddingService service(StoreOf({{7, {3.0f, 4.0f}}}), nullptr);
  EXPECT_FALSE(service.ReloadFromFile(path).ok());
  EXPECT_EQ(service.store().size(), 1u);
  EXPECT_EQ(Served(service, 7), (std::vector<float>{3.0f, 4.0f}));
}

TEST_F(ReloadTest, BitFlipIsCaughtByChecksum) {
  // A reload swaps a dump in only after Load succeeds, so the CRC check is
  // what keeps a corrupt dump out of serving.
  Rows rows;
  for (uint64_t i = 0; i < 20; ++i) rows.push_back({i, {float(i), -1.0f}});
  const std::string path = Path("crc.bin");
  ASSERT_TRUE(StoreOf(rows).Save(path).ok());
  std::string bytes = ReadBytes(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  WriteBytes(path, bytes);

  EmbeddingService service(StoreOf({{3, {5.0f, 5.0f}}}), nullptr);
  const Status status = service.ReloadFromFile(path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("checksum"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(Served(service, 3), (std::vector<float>{5.0f, 5.0f}));
}

TEST_F(ReloadTest, V1DumpIsRejectedAndOldRowsKeepServing) {
  ASSERT_TRUE(StoreOf({{5, {1.0f, 2.0f, 3.0f}}, {6, {4.0f, 5.0f, 6.0f}}})
                  .Save(Path("v2.bin"))
                  .ok());
  // The retired v1 layout is the v2 file with version 1 and the CRC footer
  // stripped.
  const std::string bytes = ReadBytes(Path("v2.bin"));
  std::string v1 = bytes.substr(0, bytes.size() - 4);
  const uint32_t version = 1;
  std::memcpy(v1.data() + 4, &version, sizeof(version));
  WriteBytes(Path("v1.bin"), v1);

  EmbeddingService service(StoreOf({{7, {3.0f, 4.0f, 5.0f}}}), nullptr);
  const Status reloaded = service.ReloadFromFile(Path("v1.bin"));
  ASSERT_FALSE(reloaded.ok());
  EXPECT_EQ(reloaded.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reloaded.message().find("version 1"), std::string::npos)
      << reloaded.ToString();
  EXPECT_NE(reloaded.message().find(Path("v1.bin")), std::string::npos)
      << reloaded.ToString();
  EXPECT_EQ(service.store().size(), 1u);
  EXPECT_EQ(Served(service, 7), (std::vector<float>{3.0f, 4.0f, 5.0f}));
}

TEST_F(ReloadTest, ReloadReplacesEveryRow) {
  const auto model = MakeFoldInModel(/*latent_dim=*/2);
  const FvaeFoldInEncoder encoder(model.get());
  EmbeddingService service(StoreOf({{1, {1.0f, 1.0f}}, {2, {2.0f, 2.0f}}}),
                           &encoder);
  // A user folded in since the last dump is not in the next one either.
  ASSERT_TRUE(service.LookupOrEncode(900, RawUser(55)).ok());
  ASSERT_TRUE(service.store().Contains(900));

  // Day 2 lands: user 1 re-embedded, user 2 gone, user 3 new.
  const std::string path = Path("day2.bin");
  ASSERT_TRUE(
      StoreOf({{1, {10.0f, 10.0f}}, {3, {30.0f, 30.0f}}}).Save(path).ok());
  Status reloaded = service.ReloadFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.ToString();

  EXPECT_EQ(service.store().size(), 2u);
  EXPECT_EQ(Served(service, 1), (std::vector<float>{10.0f, 10.0f}));
  EXPECT_EQ(service.Lookup(2).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(Served(service, 3), (std::vector<float>{30.0f, 30.0f}));
  EXPECT_FALSE(service.store().Contains(900));
}

TEST_F(ReloadTest, FailedReloadKeepsServingOldRows) {
  EmbeddingService service(StoreOf({{1, {1.0f}}}), nullptr);
  const std::string path = Path("fresh.bin");
  ASSERT_TRUE(StoreOf({{1, {9.0f}}}).Save(path).ok());

  // A transient read failure ("HDFS bounced") must leave the old rows
  // serving — and a later retry succeeds.
  {
    ScopedFailpoint fp("embedding_store.load", FailpointAction::kError);
    const Status status = service.ReloadFromFile(path);
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(Served(service, 1), std::vector<float>{1.0f});
  }
  ASSERT_TRUE(service.ReloadFromFile(path).ok());
  EXPECT_EQ(Served(service, 1), std::vector<float>{9.0f});

  // A torn dump is equally rejected and the rows it would replace stay.
  WriteBytes(Path("torn.bin"), "FVEB garbage that is not a complete dump");
  EXPECT_FALSE(service.ReloadFromFile(Path("torn.bin")).ok());
  EXPECT_EQ(Served(service, 1), std::vector<float>{9.0f});
}

TEST_F(ReloadTest, WrongDimIsRejectedAndOldRowsServe) {
  const std::string path = Path("dim3.bin");
  ASSERT_TRUE(StoreOf({{1, {7.0f, 7.0f, 7.0f}}}).Save(path).ok());

  // Against the store's dim.
  EmbeddingService service(StoreOf({{1, {1.0f, 2.0f}}}), nullptr);
  Status status = service.ReloadFromFile(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(service.store().dim(), 2u);
  EXPECT_EQ(Served(service, 1), (std::vector<float>{1.0f, 2.0f}));

  // Against the encoder's latent dim while the store is still empty: the
  // dump's rows and later fold-ins must share one width.
  const auto model = MakeFoldInModel(/*latent_dim=*/2);
  const FvaeFoldInEncoder encoder(model.get());
  EmbeddingService empty(ShardedEmbeddingStore(4), &encoder);
  status = empty.ReloadFromFile(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(empty.store().size(), 0u);
  EXPECT_EQ(empty.store().dim(), 0u);

  const std::string good = Path("dim2.bin");
  ASSERT_TRUE(StoreOf({{1, {3.0f, 4.0f}}}).Save(good).ok());
  ASSERT_TRUE(empty.ReloadFromFile(good).ok());
  EXPECT_EQ(Served(empty, 1), (std::vector<float>{3.0f, 4.0f}));
}

// Kill matrix over the dump writer: SIGKILL the producer at every
// registered save failpoint and prove a later reload always swaps in a
// *complete* dump — the old day's or the new day's, never a torn hybrid.
// This closes the loop on the atomic-rename + CRC design: load-then-swap
// can only ever observe all-or-nothing files.
TEST_F(ReloadTest, KillAtEverySaveStageNeverServesTornDump) {
  const char* kStages[] = {
      "embedding_store.save.before_tmp_write",
      "embedding_store.save.after_tmp_write",
      "embedding_store.save.before_rename",
      "embedding_store.save.after_rename",
  };
  const Rows old_rows = {{1, {1.0f, 1.0f}}, {2, {2.0f, 2.0f}}};

  for (const char* stage : kStages) {
    SCOPED_TRACE(stage);
    const std::string path = Path("dump.bin");
    ASSERT_TRUE(StoreOf(old_rows).Save(path).ok());

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: die mid-overwrite. No gtest machinery in here.
      ArmFailpoint(stage, FailpointAction::kKill);
      // The kill failpoint fires mid-save; the status never materializes.
      (void)StoreOf({{1, {10.0f, 10.0f}}, {3, {30.0f, 30.0f}}}).Save(path);
      ::_exit(77);  // reached only if the failpoint failed to fire
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child exited instead of dying";
    ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

    // What the service served before the reload.
    EmbeddingService service(StoreOf(old_rows), nullptr);
    ASSERT_TRUE(service.ReloadFromFile(path).ok())
        << "canonical dump must stay loadable at every kill point";

    if (service.store().Contains(3)) {
      // The rename landed: the complete new dump.
      EXPECT_EQ(Served(service, 1), (std::vector<float>{10.0f, 10.0f}));
      EXPECT_FALSE(service.store().Contains(2));
    } else {
      // The rename did not land: the complete old dump, untouched.
      EXPECT_EQ(Served(service, 1), (std::vector<float>{1.0f, 1.0f}));
      EXPECT_EQ(Served(service, 2), (std::vector<float>{2.0f, 2.0f}));
    }
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".tmp");
  }
}

// Readers racing reloads (run under -DFVAE_SANITIZE=thread): every answer
// is one dump's whole row for that key, and the last dump wins.
TEST_F(ReloadTest, ConcurrentLookupsSeeOneDumpsRow) {
  constexpr uint64_t kKeys = 512;
  constexpr size_t kReaders = 4;
  constexpr int kReloads = 20;
  // Rows of dump d for key k: every element differs, so a row mixing two
  // dumps (or two keys) matches neither.
  const auto row_of = [](int d, uint64_t k) {
    std::vector<float> row(4);
    for (size_t i = 0; i < row.size(); ++i) {
      row[i] = float(d * 100000 + int(k) * 10 + int(i));
    }
    return row;
  };
  Rows dumps[2];
  for (int d = 0; d < 2; ++d) {
    for (uint64_t k = 0; k < kKeys; ++k) dumps[d].push_back({k, row_of(d, k)});
    ASSERT_TRUE(StoreOf(dumps[d], 8).Save(Path("dump" + std::to_string(d)))
                    .ok());
  }

  EmbeddingService service(StoreOf(dumps[0], 8), nullptr);
  std::atomic<bool> done{false};
  std::atomic<size_t> bad{0};
  std::atomic<size_t> reads{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (uint64_t i = t; !done.load(std::memory_order_relaxed); ++i) {
        const uint64_t key = (i * 7) % kKeys;
        const std::vector<float> row = Served(service, key);
        if (row != row_of(0, key) && row != row_of(1, key)) bad.fetch_add(1);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Reload only once the readers are running.
  while (reads.load() < kReaders) std::this_thread::yield();
  for (int r = 1; r <= kReloads; ++r) {
    const Status status =
        service.ReloadFromFile(Path("dump" + std::to_string(r % 2)));
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(bad.load(), 0u);
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(Served(service, k), row_of(kReloads % 2, k)) << "key " << k;
  }
}

// ---------- closed-loop load generator ----------

// Every cold request asks for a never-seen user, so fold-ins keep pace with
// cold requests however many laps the walk takes over the cold pool.
TEST(LoadGenTest, EveryColdRequestFoldsIn) {
  MultiFieldDataset::Builder builder({FieldSchema{"f", false}});
  for (uint64_t i = 0; i < 24; ++i) builder.AddUser({{{i + 1, 1.0f}}});
  const MultiFieldDataset data = builder.Build();
  std::vector<uint32_t> hot_ids(16), cold_ids(8);
  std::iota(hot_ids.begin(), hot_ids.end(), 0u);
  std::iota(cold_ids.begin(), cold_ids.end(), 16u);

  const auto model = MakeFoldInModel(/*latent_dim=*/2);
  FvaeFoldInEncoder encoder(model.get());
  EmbeddingService service(
      MaterializeEmbeddings(*model, data, hot_ids, /*num_shards=*/4),
      &encoder, FastServiceOptions());

  LoadGenOptions options;
  options.num_threads = 2;
  options.requests_per_thread = cold_ids.size();  // two laps of the pool
  options.hot_fraction = 0.0;
  const LoadGenReport cold = RunClosedLoopLoad(service, data, hot_ids,
                                               cold_ids, options);
  EXPECT_EQ(cold.errors, 0u);
  EXPECT_EQ(cold.cold_requests, 2 * cold_ids.size());
  EXPECT_EQ(service.telemetry().fold_ins.Value(), cold.cold_requests);
  EXPECT_EQ(service.telemetry().store_hits.Value(), 0u);

  // A second run on the same service still folds every cold request in.
  options.hot_fraction = 0.5;
  options.requests_per_thread = 200;
  const LoadGenReport mixed = RunClosedLoopLoad(service, data, hot_ids,
                                                cold_ids, options);
  EXPECT_EQ(mixed.errors, 0u);
  EXPECT_GT(mixed.cold_requests, 0u);
  EXPECT_EQ(service.telemetry().fold_ins.Value(),
            cold.cold_requests + mixed.cold_requests);
}

// ---------- concurrency stress (run under -DFVAE_SANITIZE=thread) ----------

TEST(EmbeddingServiceStressTest, ConcurrentFoldInsMatchSerialEncode) {
  constexpr size_t kThreads = 8;
  constexpr size_t kRequestsPerThread = 600;
  constexpr size_t kHotUsers = 128;

  ShardedEmbeddingStore store(8);
  for (uint64_t id = 0; id < kHotUsers; ++id) {
    store.Put(id, {float(id), 0.0f});
  }
  const auto model = MakeFoldInModel(/*latent_dim=*/2);
  const FvaeFoldInEncoder encoder(model.get());
  EmbeddingServiceOptions options = FastServiceOptions();
  options.num_shards = 8;
  EmbeddingService service(std::move(store), &encoder, options);

  // The single-threaded oracle for every feature id the cold traffic uses.
  std::vector<std::vector<float>> reference(kKnownFeatures);
  for (uint64_t id = 0; id < kKnownFeatures; ++id) {
    reference[id] = Reference(*model, RawUser(id));
  }

  std::atomic<size_t> ok_responses{0};
  std::atomic<size_t> error_responses{0};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> start_gate{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // All threads start together so their encodes overlap.
      start_gate.fetch_add(1);
      while (start_gate.load() < kThreads) std::this_thread::yield();
      for (size_t i = 0; i < kRequestsPerThread; ++i) {
        const bool hot = i % 3 == 1;
        const uint64_t user_id = hot ? (t * 31 + i) % kHotUsers
                                     : 100000 + t * kRequestsPerThread + i;
        const uint64_t feature = hot ? 0 : (t * 997 + i * 13) % kKnownFeatures;
        const EmbeddingService::EmbeddingResult result =
            service.LookupOrEncode(user_id, RawUser(feature));
        if (!result.ok()) {
          error_responses.fetch_add(1);
          continue;
        }
        ok_responses.fetch_add(1);
        const std::vector<float> expected =
            hot ? std::vector<float>{float(user_id), 0.0f}
                : reference[feature];
        if (*result != expected) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto& telemetry = service.telemetry();
  const uint64_t total = kThreads * kRequestsPerThread;
  // Every concurrently encoded embedding equals the serial encode, bitwise.
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(error_responses.load(), 0u);
  EXPECT_EQ(ok_responses.load(), total);
  EXPECT_EQ(telemetry.requests.Value(), total);
  // Outcome counters partition the request count.
  EXPECT_EQ(telemetry.store_hits.Value() + telemetry.fold_ins.Value() +
                telemetry.rejected.Value() +
                telemetry.deadline_expired.Value() +
                telemetry.not_found.Value(),
            total);
  EXPECT_EQ(telemetry.rejected.Value(), 0u);
  EXPECT_EQ(telemetry.deadline_expired.Value(), 0u);
  EXPECT_EQ(telemetry.not_found.Value(), 0u);
  // Cold ids are all distinct, so every cold request is one fold-in.
  EXPECT_EQ(telemetry.fold_ins.Value(), total - total / 3);
  EXPECT_EQ(telemetry.batched_users.Value(), telemetry.fold_ins.Value());
  // Per-shard hits/misses add up to the store traffic (every request does
  // exactly one store Get before any fold-in).
  uint64_t shard_hits = 0, shard_misses = 0;
  for (const auto& s : service.store().Stats()) {
    shard_hits += s.hits;
    shard_misses += s.misses;
  }
  EXPECT_EQ(shard_hits, telemetry.store_hits.Value());
  EXPECT_EQ(shard_hits + shard_misses, total);
}

}  // namespace
}  // namespace fvae::serving
