#include "data/streaming.h"

#include <cstring>
#include <memory>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "obs/metrics_registry.h"

namespace fvae {

namespace {
constexpr char kMagic[4] = {'F', 'V', 'S', 'T'};
constexpr uint32_t kVersion = 1;

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return in.good();
}
}  // namespace

Status StreamingDatasetWriter::Open(const std::string& path,
                                    std::vector<FieldSchema> fields) {
  if (open_) return Status::FailedPrecondition("writer already open");
  if (fields.empty()) return Status::InvalidArgument("no fields");
  FVAE_RETURN_IF_ERROR(writer_.Open(path, "streaming.save"));
  fields_ = std::move(fields);
  users_written_ = 0;

  std::ostream& out = writer_.stream();
  out.write(kMagic, 4);
  WritePod(out, kVersion);
  WritePod(out, static_cast<uint32_t>(fields_.size()));
  for (const FieldSchema& field : fields_) {
    WritePod(out, static_cast<uint32_t>(field.name.size()));
    out.write(field.name.data(),
              static_cast<std::streamsize>(field.name.size()));
    WritePod(out, static_cast<uint8_t>(field.is_sparse ? 1 : 0));
  }
  if (!out) return Status::IoError("header write failed");
  open_ = true;
  return Status::Ok();
}

Status StreamingDatasetWriter::WriteUser(
    const std::vector<std::vector<FeatureEntry>>& features_per_field) {
  if (!open_) return Status::FailedPrecondition("writer not open");
  if (features_per_field.size() != fields_.size()) {
    return Status::InvalidArgument("field count mismatch");
  }
  std::ostream& out = writer_.stream();
  for (const auto& field_features : features_per_field) {
    WritePod(out, static_cast<uint32_t>(field_features.size()));
    for (const FeatureEntry& e : field_features) {
      WritePod(out, e.id);
      WritePod(out, e.value);
    }
  }
  if (!out) return Status::IoError("record write failed");
  ++users_written_;
  static obs::Counter& written_counter =
      obs::MetricsRegistry::Global().Counter("data.stream_users_written");
  written_counter.Increment();
  return Status::Ok();
}

Status StreamingDatasetWriter::Close() {
  if (!open_) return Status::Ok();
  open_ = false;
  // Commit samples the stream state *after* the closing flush — the old
  // pre-close check here reported Ok for write errors the OS only
  // surfaced when the buffer actually hit the disk — then fsyncs and
  // atomically renames the temp file into place.
  return writer_.Commit();
}

Result<StreamingDatasetReader> StreamingDatasetReader::Open(
    const std::string& path) {
  auto in = std::make_shared<std::ifstream>(path, std::ios::binary);
  if (!*in) return Status::IoError("cannot open for read: " + path);

  char magic[4];
  in->read(magic, 4);
  if (!*in || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  uint32_t version = 0;
  if (!ReadPod(*in, &version) || version != kVersion) {
    return Status::InvalidArgument("unsupported stream version");
  }
  uint32_t num_fields = 0;
  if (!ReadPod(*in, &num_fields) || num_fields == 0 || num_fields > 1024) {
    return Status::InvalidArgument("bad field count");
  }
  StreamingDatasetReader reader;
  reader.fields_.resize(num_fields);
  for (FieldSchema& field : reader.fields_) {
    uint32_t name_len = 0;
    if (!ReadPod(*in, &name_len) || name_len > 4096) {
      return Status::InvalidArgument("bad field name");
    }
    field.name.resize(name_len);
    in->read(field.name.data(), name_len);
    uint8_t sparse = 0;
    if (!ReadPod(*in, &sparse)) return Status::IoError("truncated header");
    field.is_sparse = sparse != 0;
  }
  reader.in_ = std::move(in);
  return reader;
}

bool StreamingDatasetReader::NextUser(
    std::vector<std::vector<FeatureEntry>>* features_per_field) {
  if (!status_.ok() || in_ == nullptr) return false;
  // IO-wait accounting: time spent decoding one record off the stream.
  Stopwatch read_watch;
  features_per_field->assign(fields_.size(), {});
  for (size_t k = 0; k < fields_.size(); ++k) {
    uint32_t count = 0;
    if (!ReadPod(*in_, &count)) {
      if (k == 0 && in_->eof()) return false;  // clean EOF between records
      status_ = Status::IoError("truncated record");
      return false;
    }
    if (count > (1u << 24)) {
      status_ = Status::InvalidArgument("implausible feature count");
      return false;
    }
    auto& field_features = (*features_per_field)[k];
    field_features.resize(count);
    for (FeatureEntry& e : field_features) {
      if (!ReadPod(*in_, &e.id) || !ReadPod(*in_, &e.value)) {
        status_ = Status::IoError("truncated entry");
        return false;
      }
    }
  }
  ++users_read_;
  static obs::Counter& read_counter =
      obs::MetricsRegistry::Global().Counter("data.stream_users");
  static LatencyHistogram& read_us_histo =
      obs::MetricsRegistry::Global().Histo("data.stream_read_us");
  read_counter.Increment();
  read_us_histo.Record(read_watch.ElapsedSeconds() * 1e6);
  return true;
}

Result<MultiFieldDataset> StreamingDatasetReader::ReadAll() {
  MultiFieldDataset::Builder builder(fields_);
  std::vector<std::vector<FeatureEntry>> per_field;
  while (NextUser(&per_field)) {
    builder.AddUser(per_field);
  }
  FVAE_RETURN_IF_ERROR(status_);
  return builder.Build();
}

}  // namespace fvae
