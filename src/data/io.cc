#include "data/io.h"

#include <fstream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/binary_io.h"
#include "common/crc32.h"
#include "common/string_util.h"

namespace fvae {

namespace {

constexpr char kMagic[4] = {'F', 'V', 'D', 'S'};
constexpr uint32_t kVersion = 2;
/// On-disk size of one entry: u64 id, f32 value (no padding).
constexpr size_t kEntryBytes = sizeof(uint64_t) + sizeof(float);

}  // namespace

Status SaveDatasetBinary(const MultiFieldDataset& dataset,
                         const std::string& path) {
  AtomicFileWriter writer;
  FVAE_RETURN_IF_ERROR(writer.Open(path, "data_io.save"));
  std::ostream& header = writer.stream();
  header.write(kMagic, 4);
  WritePod(header, kVersion);

  std::ostringstream body;
  std::ostream& out = body;
  WritePod(out, static_cast<uint32_t>(dataset.num_fields()));
  for (const FieldSchema& field : dataset.fields()) {
    WritePod(out, static_cast<uint32_t>(field.name.size()));
    out.write(field.name.data(),
              static_cast<std::streamsize>(field.name.size()));
    WritePod(out, static_cast<uint8_t>(field.is_sparse ? 1 : 0));
  }
  WritePod(out, static_cast<uint64_t>(dataset.num_users()));
  for (size_t k = 0; k < dataset.num_fields(); ++k) {
    WritePod(out, static_cast<uint64_t>(dataset.FieldNnz(k)));
    uint64_t offset = 0;
    WritePod(out, offset);
    for (size_t u = 0; u < dataset.num_users(); ++u) {
      offset += dataset.UserField(u, k).size();
      WritePod(out, offset);
    }
    for (size_t u = 0; u < dataset.num_users(); ++u) {
      for (const FeatureEntry& e : dataset.UserField(u, k)) {
        WritePod(out, e.id);
        WritePod(out, e.value);
      }
    }
  }
  const std::string_view payload = body.view();
  header.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  WritePod(header, Crc32(payload));
  return writer.Commit();
}

namespace {

/// The FVDS body: schemas, user count, then per-field offset tables and
/// entry arrays. Counts read from the file are bounded by the bytes left
/// before anything is sized by them.
Result<MultiFieldDataset> ParseDatasetBody(BufferReader& in,
                                           const std::string& path) {
  uint32_t num_fields = 0;
  if (!in.ReadPod(&num_fields) || num_fields == 0 || num_fields > 1024) {
    return Status::InvalidArgument("bad field count");
  }
  std::vector<FieldSchema> fields(num_fields);
  for (FieldSchema& field : fields) {
    uint32_t name_len = 0;
    if (!in.ReadPod(&name_len) || name_len > 4096) {
      return Status::InvalidArgument("bad field name length");
    }
    field.name.resize(name_len);
    if (!in.ReadBytes(field.name.data(), name_len)) {
      return Status::IoError("truncated schema");
    }
    uint8_t sparse = 0;
    if (!in.ReadPod(&sparse)) return Status::IoError("truncated schema");
    field.is_sparse = sparse != 0;
  }
  uint64_t num_users = 0;
  if (!in.ReadPod(&num_users)) return Status::IoError("truncated header");
  // Each field's offset table alone holds num_users + 1 u64s.
  if (num_users >= in.remaining() / sizeof(uint64_t)) {
    return Status::InvalidArgument("user count " + std::to_string(num_users) +
                                   " exceeds the file size in " + path);
  }

  std::vector<std::vector<FeatureEntry>> field_entries(num_fields);
  std::vector<std::vector<uint64_t>> field_offsets(num_fields);
  for (uint32_t k = 0; k < num_fields; ++k) {
    uint64_t nnz = 0;
    if (!in.ReadPod(&nnz)) return Status::IoError("truncated field header");
    field_offsets[k].resize(num_users + 1);
    for (uint64_t& off : field_offsets[k]) {
      if (!in.ReadPod(&off)) return Status::IoError("truncated offsets");
    }
    if (field_offsets[k].back() != nnz) {
      return Status::InvalidArgument("offset/nnz mismatch in " + path);
    }
    if (nnz > in.remaining() / kEntryBytes) {
      return Status::InvalidArgument("entry count " + std::to_string(nnz) +
                                     " exceeds the file size in " + path);
    }
    field_entries[k].resize(nnz);
    for (FeatureEntry& e : field_entries[k]) {
      if (!in.ReadPod(&e.id) || !in.ReadPod(&e.value)) {
        return Status::IoError("truncated entries");
      }
    }
  }

  MultiFieldDataset::Builder builder(std::move(fields));
  std::vector<std::vector<FeatureEntry>> per_field(num_fields);
  for (uint64_t u = 0; u < num_users; ++u) {
    for (uint32_t k = 0; k < num_fields; ++k) {
      const uint64_t lo = field_offsets[k][u];
      const uint64_t hi = field_offsets[k][u + 1];
      if (hi < lo || hi > field_entries[k].size()) {
        return Status::InvalidArgument("corrupt offsets in " + path);
      }
      per_field[k].assign(field_entries[k].begin() + lo,
                          field_entries[k].begin() + hi);
    }
    builder.AddUser(per_field);
  }
  return builder.Build();
}

}  // namespace

Result<MultiFieldDataset> LoadDatasetBinary(const std::string& path) {
  FVAE_ASSIGN_OR_RETURN(const std::string data, ReadFileToString(path));
  FVAE_ASSIGN_OR_RETURN(const std::string_view framed,
                        CheckFileHeader(data, kMagic, kVersion, path));
  FVAE_ASSIGN_OR_RETURN(const std::string_view payload,
                        CheckCrcFooter(framed, path));
  BufferReader body(payload);
  return ParseDatasetBody(body, path);
}

Status SaveDatasetText(const MultiFieldDataset& dataset,
                       const std::string& path) {
  AtomicFileWriter writer;
  FVAE_RETURN_IF_ERROR(writer.Open(path, "data_io.save_text"));
  std::ostream& out = writer.stream();
  out << "#fields ";
  for (size_t k = 0; k < dataset.num_fields(); ++k) {
    if (k) out << ",";
    out << dataset.field(k).name;
    if (dataset.field(k).is_sparse) out << ":sparse";
  }
  out << "\n";
  for (size_t u = 0; u < dataset.num_users(); ++u) {
    for (size_t k = 0; k < dataset.num_fields(); ++k) {
      if (k) out << "|";
      auto span = dataset.UserField(u, k);
      for (size_t i = 0; i < span.size(); ++i) {
        if (i) out << ",";
        out << span[i].id << ":" << span[i].value;
      }
    }
    out << "\n";
  }
  return writer.Commit();
}

Result<MultiFieldDataset> LoadDatasetText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::string line;
  if (!std::getline(in, line) || !StartsWith(line, "#fields ")) {
    return Status::InvalidArgument("missing #fields header in " + path);
  }
  std::vector<FieldSchema> fields;
  for (const std::string& spec : Split(line.substr(8), ',')) {
    FieldSchema field;
    auto parts = Split(spec, ':');
    if (parts.empty() || parts[0].empty()) {
      return Status::InvalidArgument("bad field spec: " + spec);
    }
    field.name = std::string(StripWhitespace(parts[0]));
    field.is_sparse = parts.size() > 1 && parts[1] == "sparse";
    fields.push_back(field);
  }
  const size_t num_fields = fields.size();
  MultiFieldDataset::Builder builder(std::move(fields));
  std::vector<std::vector<FeatureEntry>> per_field(num_fields);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto field_specs = Split(line, '|');
    if (field_specs.size() != num_fields) {
      return Status::InvalidArgument("wrong field count on line: " + line);
    }
    for (size_t k = 0; k < num_fields; ++k) {
      per_field[k].clear();
      if (StripWhitespace(field_specs[k]).empty()) continue;
      for (const std::string& entry : Split(field_specs[k], ',')) {
        auto pieces = Split(entry, ':');
        if (pieces.size() != 2) {
          return Status::InvalidArgument("bad entry: " + entry);
        }
        FVAE_ASSIGN_OR_RETURN(int64_t id, ParseInt64(pieces[0]));
        FVAE_ASSIGN_OR_RETURN(double value, ParseDouble(pieces[1]));
        per_field[k].push_back(
            {static_cast<uint64_t>(id), static_cast<float>(value)});
      }
    }
    builder.AddUser(per_field);
  }
  return builder.Build();
}

}  // namespace fvae
