#include "serving/sharded_store.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/atomic_file.h"
#include "common/binary_io.h"
#include "common/check.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/mutex.h"

namespace fvae::serving {

namespace {

constexpr char kMagic[4] = {'F', 'V', 'E', 'B'};
// The body (everything after the 8-byte header) ends in a CRC-32 footer;
// writes go through the atomic-rename path. Load verifies the checksum
// before returning, so a reload (load, then swap) can never swap a corrupt
// dump in.
constexpr uint32_t kVersion = 2;

/// splitmix64 finalizer: user ids are often sequential, so mix before
/// taking the shard residue to spread them across shards.
uint64_t MixId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ShardedEmbeddingStore::ShardedEmbeddingStore(size_t num_shards)
    : dim_(std::make_unique<std::atomic<size_t>>(0)) {
  num_shards = std::max<size_t>(num_shards, 1);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t ShardedEmbeddingStore::ShardOf(uint64_t user_id) const {
  return MixId(user_id) % shards_.size();
}

void ShardedEmbeddingStore::Put(uint64_t user_id,
                                std::vector<float> embedding) {
  size_t expected = 0;
  if (!dim_->compare_exchange_strong(expected, embedding.size(),
                                     std::memory_order_acq_rel)) {
    FVAE_CHECK(embedding.size() == expected)
        << "embedding dim mismatch: store " << expected << ", put "
        << embedding.size();
  }
  Shard& shard = *shards_[ShardOf(user_id)];
  WriterMutexLock lock(shard.mutex);
  shard.table[user_id] = std::move(embedding);
}

std::optional<std::vector<float>> ShardedEmbeddingStore::Get(
    uint64_t user_id) const {
  const Shard& shard = *shards_[ShardOf(user_id)];
  ReaderMutexLock lock(shard.mutex);
  auto it = shard.table.find(user_id);
  if (it == shard.table.end()) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

bool ShardedEmbeddingStore::Contains(uint64_t user_id) const {
  const Shard& shard = *shards_[ShardOf(user_id)];
  ReaderMutexLock lock(shard.mutex);
  return shard.table.count(user_id) > 0;
}

size_t ShardedEmbeddingStore::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    ReaderMutexLock lock(shard->mutex);
    total += shard->table.size();
  }
  return total;
}

std::vector<ShardedEmbeddingStore::ShardStats> ShardedEmbeddingStore::Stats()
    const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats stats;
    stats.hits = shard->hits.load(std::memory_order_relaxed);
    stats.misses = shard->misses.load(std::memory_order_relaxed);
    {
      ReaderMutexLock lock(shard->mutex);
      stats.entries = shard->table.size();
    }
    out.push_back(stats);
  }
  return out;
}

Status ShardedEmbeddingStore::Save(const std::string& path) const {
  AtomicFileWriter writer;
  FVAE_RETURN_IF_ERROR(writer.Open(path, "embedding_store.save"));
  std::ostream& out = writer.stream();
  out.write(kMagic, 4);
  WritePod(out, kVersion);

  std::ostringstream body;
  WritePod(body, static_cast<uint32_t>(dim()));
  WritePod(body, uint64_t{0});  // row count, patched once the rows are in
  uint64_t count = 0;
  for (const auto& shard : shards_) {
    ReaderMutexLock lock(shard->mutex);
    for (const auto& [user_id, embedding] : shard->table) {
      WritePod(body, user_id);
      body.write(reinterpret_cast<const char*>(embedding.data()),
                 static_cast<std::streamsize>(embedding.size() *
                                              sizeof(float)));
    }
    count += shard->table.size();
  }
  body.seekp(sizeof(uint32_t));
  WritePod(body, count);
  const std::string_view payload = body.view();
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  WritePod(out, Crc32(payload));
  return writer.Commit();
}

Result<ShardedEmbeddingStore> ShardedEmbeddingStore::Load(
    const std::string& path, size_t num_shards) {
  // Transient-read-failure injection point for the reload tests (a kError
  // arming models "HDFS read bounced"; the service must keep serving the
  // rows it has).
  FVAE_RETURN_IF_ERROR(FailpointCheck("embedding_store.load"));
  FVAE_ASSIGN_OR_RETURN(const std::string data, ReadFileToString(path));
  FVAE_ASSIGN_OR_RETURN(const std::string_view framed,
                        CheckFileHeader(data, kMagic, kVersion, path));
  FVAE_ASSIGN_OR_RETURN(const std::string_view payload,
                        CheckCrcFooter(framed, path));
  BufferReader body(payload);
  uint32_t dim = 0;
  uint64_t count = 0;
  if (!body.ReadPod(&dim) || !body.ReadPod(&count)) {
    return Status::IoError("truncated store header in " + path);
  }
  if (dim == 0 || dim > 1u << 20) {
    return Status::InvalidArgument("bad embedding dimension");
  }
  ShardedEmbeddingStore store(num_shards);
  store.dim_->store(dim, std::memory_order_release);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t user_id = 0;
    std::vector<float> embedding(dim);
    if (!body.ReadPod(&user_id) ||
        !body.ReadBytes(embedding.data(), size_t(dim) * sizeof(float))) {
      return Status::IoError("truncated store: " + path);
    }
    store.Put(user_id, std::move(embedding));
  }
  return store;
}

void ShardedEmbeddingStore::ReplaceRows(ShardedEmbeddingStore fresh) {
  FVAE_CHECK(fresh.num_shards() == num_shards())
      << "shard count mismatch: store " << num_shards() << ", fresh "
      << fresh.num_shards();
  size_t expected = 0;
  if (!dim_->compare_exchange_strong(expected, fresh.dim(),
                                     std::memory_order_acq_rel)) {
    FVAE_CHECK(fresh.dim() == expected)
        << "embedding dim mismatch: store " << expected << ", fresh "
        << fresh.dim();
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::unordered_map<uint64_t, std::vector<float>> rows;
    {
      WriterMutexLock lock(fresh.shards_[i]->mutex);
      rows.swap(fresh.shards_[i]->table);
    }
    {
      WriterMutexLock lock(shards_[i]->mutex);
      shards_[i]->table.swap(rows);
    }
    // `rows` now holds the shard's old rows and frees them outside the lock.
  }
}

}  // namespace fvae::serving
