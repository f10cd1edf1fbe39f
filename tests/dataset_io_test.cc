#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "common/crc32.h"
#include "data/dataset.h"
#include "data/io.h"

namespace fvae {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fvae_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

MultiFieldDataset Fixture() {
  MultiFieldDataset::Builder builder(
      {FieldSchema{"ch1", false}, FieldSchema{"tag", true}});
  builder.AddUser({{{7, 1.0f}, {8, 0.5f}}, {{1000, 2.0f}}});
  builder.AddUser({{}, {}});
  builder.AddUser({{{9, 3.0f}}, {{1001, 1.0f}, {~uint64_t{0}, 1.0f}}});
  return builder.Build();
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

void ExpectEqualDatasets(const MultiFieldDataset& a,
                         const MultiFieldDataset& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_fields(), b.num_fields());
  for (size_t k = 0; k < a.num_fields(); ++k) {
    EXPECT_EQ(a.field(k).name, b.field(k).name);
    EXPECT_EQ(a.field(k).is_sparse, b.field(k).is_sparse);
    for (size_t u = 0; u < a.num_users(); ++u) {
      auto sa = a.UserField(u, k);
      auto sb = b.UserField(u, k);
      ASSERT_EQ(sa.size(), sb.size()) << "user " << u << " field " << k;
      for (size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].id, sb[i].id);
        EXPECT_FLOAT_EQ(sa[i].value, sb[i].value);
      }
    }
  }
}

TEST_F(DatasetIoTest, BinaryRoundTrip) {
  const MultiFieldDataset data = Fixture();
  ASSERT_TRUE(SaveDatasetBinary(data, Path("data.bin")).ok());
  auto loaded = LoadDatasetBinary(Path("data.bin"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectEqualDatasets(data, *loaded);
}

TEST_F(DatasetIoTest, BinaryMissingFile) {
  auto loaded = LoadDatasetBinary(Path("nope.bin"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(DatasetIoTest, BinaryRejectsGarbage) {
  {
    std::ofstream out(Path("garbage.bin"), std::ios::binary);
    out << "this is not a dataset";
  }
  auto loaded = LoadDatasetBinary(Path("garbage.bin"));
  EXPECT_FALSE(loaded.ok());
}

TEST_F(DatasetIoTest, BinaryRejectsTruncation) {
  const MultiFieldDataset data = Fixture();
  ASSERT_TRUE(SaveDatasetBinary(data, Path("full.bin")).ok());
  // Truncate the file to half.
  const auto size = std::filesystem::file_size(Path("full.bin"));
  std::filesystem::resize_file(Path("full.bin"), size / 2);
  auto loaded = LoadDatasetBinary(Path("full.bin"));
  EXPECT_FALSE(loaded.ok());
}

TEST_F(DatasetIoTest, BinaryTruncationAtEveryOffsetIsCleanError) {
  const MultiFieldDataset data = Fixture();
  ASSERT_TRUE(SaveDatasetBinary(data, Path("sweep.bin")).ok());
  std::ifstream in(Path("sweep.bin"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 12u);

  // Every strict prefix must fail to load — the CRC footer catches cuts
  // that land on a record boundary and would otherwise parse.
  for (size_t n = 0; n < bytes.size(); ++n) {
    std::ofstream out(Path("cut.bin"), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(n));
    out.close();
    auto loaded = LoadDatasetBinary(Path("cut.bin"));
    EXPECT_FALSE(loaded.ok()) << "prefix of " << n << " bytes loaded";
  }
}

TEST_F(DatasetIoTest, BinaryDetectsBitFlips) {
  const MultiFieldDataset data = Fixture();
  ASSERT_TRUE(SaveDatasetBinary(data, Path("flip.bin")).ok());
  std::ifstream in(Path("flip.bin"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());

  // Flip a byte in the middle of the body: only the checksum can notice a
  // value corruption that keeps the structure parseable.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x01;
  {
    std::ofstream out(Path("flip.bin"), std::ios::binary);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  }
  auto loaded = LoadDatasetBinary(Path("flip.bin"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(DatasetIoTest, BinaryRejectsUnsupportedVersion) {
  const MultiFieldDataset data = Fixture();
  ASSERT_TRUE(SaveDatasetBinary(data, Path("v2.bin")).ok());
  const std::string bytes = ReadFile(Path("v2.bin"));

  // The retired v1 layout is the v2 file with version 1 and no checksum
  // footer; version 9 is from the future.
  std::string v1 = bytes.substr(0, bytes.size() - 4);
  const uint32_t one = 1;
  std::memcpy(v1.data() + 4, &one, sizeof(one));
  WriteFile(Path("v1.bin"), v1);
  std::string v9 = bytes;
  const uint32_t nine = 9;
  std::memcpy(v9.data() + 4, &nine, sizeof(nine));
  WriteFile(Path("v9.bin"), v9);

  for (const auto& [name, version] :
       {std::pair{"v1.bin", 1}, std::pair{"v9.bin", 9}}) {
    auto loaded = LoadDatasetBinary(Path(name));
    ASSERT_FALSE(loaded.ok()) << name << " loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    const std::string& message = loaded.status().message();
    EXPECT_NE(message.find("version " + std::to_string(version)),
              std::string::npos)
        << message;
    EXPECT_NE(message.find(Path(name)), std::string::npos) << message;
  }
}

TEST_F(DatasetIoTest, BinaryRejectsCountsBeyondTheFileSize) {
  // CRC-valid files whose user or entry count exceeds what the remaining
  // bytes could hold: the loader must refuse them before sizing anything
  // by the count (2^64 - 1 users wraps num_users + 1 to 0; 2^40 users or
  // entries cannot be allocated).
  const auto file_with = [](uint64_t num_users, uint64_t nnz) {
    std::ostringstream body;
    const auto pod = [&body](const auto& value) {
      body.write(reinterpret_cast<const char*>(&value), sizeof(value));
    };
    pod(uint32_t{1});  // num_fields
    pod(uint32_t{1});  // name_len
    body << 'a';
    pod(uint8_t{0});  // dense
    pod(num_users);
    pod(nnz);
    pod(uint64_t{0});  // offsets[0]
    pod(nnz);          // offsets[1]
    const std::string payload = body.str();
    std::string file = "FVDS";
    const uint32_t version = 2;
    const uint32_t crc = Crc32(payload);
    file.append(reinterpret_cast<const char*>(&version), sizeof(version));
    file += payload;
    file.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
    return file;
  };
  const std::pair<uint64_t, uint64_t> cases[] = {
      {~uint64_t{0}, 0}, {uint64_t{1} << 40, 0}, {1, uint64_t{1} << 40}};
  for (const auto& [num_users, nnz] : cases) {
    WriteFile(Path("huge.bin"), file_with(num_users, nnz));
    auto loaded = LoadDatasetBinary(Path("huge.bin"));
    ASSERT_FALSE(loaded.ok()) << num_users << " users, " << nnz << " nnz";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find(Path("huge.bin")),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(DatasetIoTest, TextRoundTrip) {
  // The text format parses IDs as signed decimals, so skip the ~0 entry.
  MultiFieldDataset::Builder builder(
      {FieldSchema{"a", false}, FieldSchema{"b", true}});
  builder.AddUser({{{7, 1.0f}}, {{1000, 2.5f}}});
  builder.AddUser({{}, {}});
  builder.AddUser({{{9, 3.0f}, {10, 1.0f}}, {}});
  const MultiFieldDataset data = builder.Build();

  ASSERT_TRUE(SaveDatasetText(data, Path("data.txt")).ok());
  auto loaded = LoadDatasetText(Path("data.txt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectEqualDatasets(data, *loaded);
}

TEST_F(DatasetIoTest, TextPreservesSparseFlag) {
  MultiFieldDataset::Builder builder(
      {FieldSchema{"x", true}, FieldSchema{"y", false}});
  builder.AddUser({{{1, 1.0f}}, {{2, 1.0f}}});
  ASSERT_TRUE(SaveDatasetText(builder.Build(), Path("flags.txt")).ok());
  auto loaded = LoadDatasetText(Path("flags.txt"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->field(0).is_sparse);
  EXPECT_FALSE(loaded->field(1).is_sparse);
}

TEST_F(DatasetIoTest, TextRejectsMissingHeader) {
  {
    std::ofstream out(Path("bad.txt"));
    out << "1:1|2:2\n";
  }
  auto loaded = LoadDatasetText(Path("bad.txt"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DatasetIoTest, TextRejectsWrongFieldCount) {
  {
    std::ofstream out(Path("short.txt"));
    out << "#fields a,b\n";
    out << "1:1\n";  // only one field on the line
  }
  auto loaded = LoadDatasetText(Path("short.txt"));
  EXPECT_FALSE(loaded.ok());
}

TEST_F(DatasetIoTest, TextRejectsBadEntry) {
  {
    std::ofstream out(Path("badentry.txt"));
    out << "#fields a\n";
    out << "nonsense\n";
  }
  auto loaded = LoadDatasetText(Path("badentry.txt"));
  EXPECT_FALSE(loaded.ok());
}

}  // namespace
}  // namespace fvae
