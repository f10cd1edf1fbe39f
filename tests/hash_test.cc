#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "hash/dynamic_hash_table.h"
#include "hash/feature_hashing.h"

namespace fvae {
namespace {

TEST(DynamicHashTableTest, InsertAndFind) {
  DynamicHashTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.GetOrInsert(100), 0u);
  EXPECT_EQ(table.GetOrInsert(200), 1u);
  EXPECT_EQ(table.GetOrInsert(100), 0u);  // idempotent
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Find(100).value(), 0u);
  EXPECT_EQ(table.Find(200).value(), 1u);
  EXPECT_FALSE(table.Find(300).has_value());
  EXPECT_TRUE(table.Contains(100));
  EXPECT_FALSE(table.Contains(999));
}

TEST(DynamicHashTableTest, DenseIndicesAreSequential) {
  DynamicHashTable table;
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(table.GetOrInsert(i * 7919 + 13), static_cast<uint32_t>(i));
  }
  EXPECT_EQ(table.size(), 1000u);
}

TEST(DynamicHashTableTest, GrowsBeyondInitialCapacity) {
  DynamicHashTable table(16);
  const size_t initial_capacity = table.capacity();
  for (uint64_t i = 0; i < 10000; ++i) table.GetOrInsert(i);
  EXPECT_GT(table.capacity(), initial_capacity);
  EXPECT_EQ(table.size(), 10000u);
  // All keys still resolve after growth.
  for (uint64_t i = 0; i < 10000; ++i) {
    ASSERT_EQ(table.Find(i).value(), static_cast<uint32_t>(i));
  }
}

TEST(DynamicHashTableTest, LoadFactorStaysBounded) {
  DynamicHashTable table;
  for (uint64_t i = 0; i < 5000; ++i) table.GetOrInsert(i * 31 + 7);
  EXPECT_LE(double(table.size()) / double(table.capacity()), 0.7 + 1e-9);
}

TEST(DynamicHashTableTest, SentinelKeySupported) {
  DynamicHashTable table;
  const uint64_t sentinel = ~uint64_t{0};
  EXPECT_FALSE(table.Find(sentinel).has_value());
  const uint32_t idx = table.GetOrInsert(sentinel);
  EXPECT_EQ(table.GetOrInsert(sentinel), idx);
  EXPECT_EQ(table.Find(sentinel).value(), idx);
  EXPECT_EQ(table.size(), 1u);
}

TEST(DynamicHashTableTest, ItemsReturnsAllEntries) {
  DynamicHashTable table;
  for (uint64_t key : {5u, 17u, 99u}) table.GetOrInsert(key);
  auto items = table.Items();
  EXPECT_EQ(items.size(), 3u);
  std::unordered_map<uint64_t, uint32_t> as_map(items.begin(), items.end());
  EXPECT_EQ(as_map.at(5), table.Find(5).value());
  EXPECT_EQ(as_map.at(99), table.Find(99).value());
}

TEST(DynamicHashTableTest, ClearResets) {
  DynamicHashTable table;
  table.GetOrInsert(1);
  table.GetOrInsert(~uint64_t{0});
  table.Clear();
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.Find(1).has_value());
  EXPECT_FALSE(table.Find(~uint64_t{0}).has_value());
  EXPECT_EQ(table.GetOrInsert(42), 0u);  // indices restart
}

TEST(DynamicHashTableTest, StressAgainstUnorderedMap) {
  DynamicHashTable table;
  std::unordered_map<uint64_t, uint32_t> reference;
  Rng rng(123);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.UniformInt(uint64_t{5000});
    const uint32_t idx = table.GetOrInsert(key);
    auto [it, inserted] = reference.emplace(key, idx);
    if (!inserted) {
      ASSERT_EQ(it->second, idx) << "index changed for key " << key;
    }
  }
  EXPECT_EQ(table.size(), reference.size());
  for (const auto& [key, idx] : reference) {
    ASSERT_EQ(table.Find(key).value(), idx);
  }
}

// A table rebuilt from the key column of another's Items() lists the keys
// in the same order, whatever order they were first inserted in, so a
// saved table read back saves to the same bytes. Indices follow the list.
TEST(DynamicHashTableTest, RestoreItemsReproducesItemsOrder) {
  Rng rng(321);
  for (size_t n : {0, 1, 11, 12, 100, 1000, 5000}) {
    for (const bool sentinel_first : {false, true}) {
      DynamicHashTable original;
      if (sentinel_first) original.GetOrInsert(~uint64_t{0});
      while (original.size() < n) original.GetOrInsert(rng.Next64());
      if (!sentinel_first && n % 2 == 1) original.GetOrInsert(~uint64_t{0});
      std::vector<uint64_t> keys;
      for (const auto& [key, index] : original.Items()) keys.push_back(key);

      DynamicHashTable restored;
      restored.RestoreItems(keys);
      ASSERT_EQ(restored.size(), keys.size());
      EXPECT_EQ(restored.capacity(), original.capacity()) << "n=" << n;
      const auto items = restored.Items();
      ASSERT_EQ(items.size(), keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(items[i].first, keys[i]) << "n=" << n << " i=" << i;
        ASSERT_EQ(restored.Find(keys[i]), i);
      }
      // Inserts keep working on the rebuilt layout.
      const uint64_t fresh = rng.Next64();
      EXPECT_EQ(restored.GetOrInsert(fresh), keys.size());
      EXPECT_EQ(restored.Find(fresh), keys.size());
    }
  }
}

// A list no table could give (here: reversed) still yields every key.
TEST(DynamicHashTableTest, RestoreItemsAcceptsAnyOrder) {
  DynamicHashTable original;
  for (uint64_t key = 0; key < 300; ++key) original.GetOrInsert(key * 7919);
  std::vector<uint64_t> keys;
  for (const auto& [key, index] : original.Items()) keys.push_back(key);
  std::reverse(keys.begin(), keys.end());
  DynamicHashTable restored;
  restored.RestoreItems(keys);
  ASSERT_EQ(restored.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(restored.Find(keys[i]), i);
  }
}

class DynamicHashTableSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DynamicHashTableSizeTest, RoundTripsAtManySizes) {
  const size_t n = GetParam();
  DynamicHashTable table;
  for (size_t i = 0; i < n; ++i) {
    table.GetOrInsert(i * 2654435761ULL);
  }
  EXPECT_EQ(table.size(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(table.Contains(i * 2654435761ULL));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DynamicHashTableSizeTest,
                         ::testing::Values(1, 2, 15, 16, 17, 100, 1024,
                                           4097));

// ---------- FeatureHasher ----------

TEST(FeatureHasherTest, BucketsWithinRange) {
  FeatureHasher hasher(10);
  EXPECT_EQ(hasher.num_buckets(), 1024u);
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(hasher.Bucket(rng.Next64()), 1024u);
  }
}

TEST(FeatureHasherTest, Deterministic) {
  FeatureHasher hasher(16);
  EXPECT_EQ(hasher.Bucket(12345), hasher.Bucket(12345));
  EXPECT_EQ(hasher.Bucket(3, 42), hasher.Bucket(3, 42));
}

TEST(FeatureHasherTest, FieldsDecorrelate) {
  FeatureHasher hasher(20);
  int same = 0;
  for (uint64_t id = 0; id < 1000; ++id) {
    same += hasher.Bucket(0, id) == hasher.Bucket(1, id);
  }
  // With 2^20 buckets, chance collisions between fields are ~0.
  EXPECT_LT(same, 5);
}

TEST(FeatureHasherTest, CollisionRateGrowsAsBucketsShrink) {
  std::vector<uint64_t> ids(20000);
  Rng rng(11);
  for (auto& id : ids) id = rng.Next64();
  FeatureHasher small(10);   // 1k buckets, heavy collisions
  FeatureHasher large(24);   // 16M buckets, nearly none
  EXPECT_GT(small.CollisionRate(ids), 0.8);
  EXPECT_LT(large.CollisionRate(ids), 0.01);
}

TEST(FeatureHasherTest, UniformSpread) {
  FeatureHasher hasher(4);  // 16 buckets
  std::vector<int> counts(16, 0);
  for (uint64_t id = 0; id < 16000; ++id) ++counts[hasher.Bucket(id)];
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

}  // namespace
}  // namespace fvae
