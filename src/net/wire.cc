#include "net/wire.h"

#include <algorithm>

#include "common/crc32.h"
#include "common/string_util.h"

namespace fvae::net {
namespace {

/// Bounds-checked little-endian cursor over a payload buffer.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (size_ - pos_ < sizeof(T)) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool Done() const { return pos_ == size_; }
  size_t Remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

template <typename T>
void Append(std::vector<uint8_t>& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

}  // namespace

WireStatus ToWireStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return WireStatus::kOk;
    case StatusCode::kNotFound:
      return WireStatus::kNotFound;
    case StatusCode::kDeadlineExceeded:
      return WireStatus::kDeadlineExceeded;
    case StatusCode::kResourceExhausted:
      return WireStatus::kResourceExhausted;
    case StatusCode::kInvalidArgument:
      return WireStatus::kInvalidArgument;
    default:  // codes with no wire equivalent collapse to kInternal
      return WireStatus::kInternal;
  }
}

Status FromWireStatus(WireStatus code, const std::string& message) {
  switch (code) {
    case WireStatus::kOk:
      return Status::Ok();
    case WireStatus::kNotFound:
      return Status::NotFound(message);
    case WireStatus::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case WireStatus::kResourceExhausted:
      return Status::ResourceExhausted(message);
    case WireStatus::kInvalidArgument:
      return Status::InvalidArgument(message);
    case WireStatus::kInternal:
      return Status::Internal(message);
  }
  return Status::Internal("unknown wire status " +
                          std::to_string(static_cast<int>(code)));
}

Status ValidateHeader(const FrameHeader& header) {
  if (header.magic != kFrameMagic) {
    return Status::InvalidArgument(
        StrFormat("bad frame magic 0x%08x", header.magic));
  }
  if (header.version != kProtocolVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported protocol version %u", header.version));
  }
  if (header.length > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        StrFormat("frame length %u exceeds cap %u", header.length,
                  kMaxPayloadBytes));
  }
  if (header.verb > static_cast<uint8_t>(Verb::kIntrospect)) {
    return Status::InvalidArgument(
        StrFormat("unknown verb %u", header.verb));
  }
  if ((header.flags & kFlagTraceContext) != 0 &&
      header.length < kTraceContextBytes) {
    return Status::InvalidArgument(
        StrFormat("frame length %u cannot hold the %zu-byte trace prefix",
                  header.length, kTraceContextBytes));
  }
  return Status::Ok();
}

Status ValidatePayload(const FrameHeader& header, const uint8_t* payload,
                       size_t size) {
  const uint32_t crc = Crc32(payload, size);
  if (crc != header.crc) {
    return Status::IoError(
        StrFormat("frame crc mismatch: header 0x%08x payload 0x%08x",
                  header.crc, crc));
  }
  return Status::Ok();
}

void AppendFrame(std::vector<uint8_t>& out, Verb verb, WireStatus status,
                 uint8_t flags, uint64_t tag, const uint8_t* payload,
                 size_t payload_size, uint8_t version,
                 const obs::TraceContext* trace) {
  const bool traced = trace != nullptr && trace->valid();
  const size_t prefix = traced ? kTraceContextBytes : 0;
  FrameHeader header;
  header.version = version;
  header.verb = static_cast<uint8_t>(verb);
  header.status = static_cast<uint8_t>(status);
  header.flags = traced ? (flags | kFlagTraceContext) : flags;
  header.tag = tag;
  header.length = static_cast<uint32_t>(prefix + payload_size);
  const size_t at = out.size();
  out.resize(at + kHeaderBytes + prefix + payload_size);
  uint8_t* body = out.data() + at + kHeaderBytes;
  if (traced) {
    std::memcpy(body, &trace->trace_id, sizeof(uint64_t));
    std::memcpy(body + sizeof(uint64_t), &trace->span_id, sizeof(uint64_t));
  }
  if (payload_size > 0) {
    std::memcpy(body + prefix, payload, payload_size);
  }
  // CRC over the assembled payload region (prefix + body), then the header
  // is patched in last.
  header.crc = Crc32(body, prefix + payload_size);
  std::memcpy(out.data() + at, &header, kHeaderBytes);
}

Result<obs::TraceContext> ExtractTraceContext(Frame* frame) {
  obs::TraceContext context;
  if ((frame->header.flags & kFlagTraceContext) == 0) return context;
  if (frame->payload.size() < kTraceContextBytes) {
    return Status::InvalidArgument(
        "trace-context flag on a frame too short for the prefix");
  }
  std::memcpy(&context.trace_id, frame->payload.data(), sizeof(uint64_t));
  std::memcpy(&context.span_id,
              frame->payload.data() + sizeof(uint64_t), sizeof(uint64_t));
  frame->payload.erase(
      frame->payload.begin(),
      frame->payload.begin() + static_cast<ptrdiff_t>(kTraceContextBytes));
  frame->header.flags &= static_cast<uint8_t>(~kFlagTraceContext);
  frame->header.length -= static_cast<uint32_t>(kTraceContextBytes);
  return context;
}

void EncodeLookupRequest(std::vector<uint8_t>& out, uint64_t user_id) {
  Append(out, user_id);
}

Result<uint64_t> DecodeLookupRequest(const uint8_t* payload, size_t size) {
  Reader reader(payload, size);
  uint64_t user_id = 0;
  if (!reader.Read(&user_id) || !reader.Done()) {
    return Status::InvalidArgument("malformed lookup request payload");
  }
  return user_id;
}

void EncodeFoldInRequest(std::vector<uint8_t>& out, uint64_t user_id,
                         const core::RawUserFeatures& features) {
  Append(out, user_id);
  Append(out, static_cast<uint32_t>(features.size()));
  for (const auto& field : features) {
    Append(out, static_cast<uint32_t>(field.size()));
    for (const FeatureEntry& entry : field) {
      Append(out, entry.id);
      Append(out, entry.value);
    }
  }
}

Result<FoldInRequest> DecodeFoldInRequest(const uint8_t* payload,
                                          size_t size) {
  Reader reader(payload, size);
  FoldInRequest request;
  uint32_t num_fields = 0;
  if (!reader.Read(&request.user_id) || !reader.Read(&num_fields)) {
    return Status::InvalidArgument("truncated fold-in request header");
  }
  // Each declared field costs at least its 4-byte count, so num_fields is
  // bounded by the remaining bytes — rejects absurd counts before reserve.
  if (num_fields > reader.Remaining() / sizeof(uint32_t)) {
    return Status::InvalidArgument("fold-in field count exceeds payload");
  }
  request.features.resize(num_fields);
  for (uint32_t f = 0; f < num_fields; ++f) {
    uint32_t count = 0;
    if (!reader.Read(&count)) {
      return Status::InvalidArgument("truncated fold-in field count");
    }
    constexpr size_t kEntryBytes = sizeof(uint64_t) + sizeof(float);
    if (count > reader.Remaining() / kEntryBytes) {
      return Status::InvalidArgument("fold-in entry count exceeds payload");
    }
    auto& field = request.features[f];
    field.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      if (!reader.Read(&field[i].id) || !reader.Read(&field[i].value)) {
        return Status::InvalidArgument("truncated fold-in entry");
      }
    }
  }
  if (!reader.Done()) {
    return Status::InvalidArgument("trailing bytes after fold-in request");
  }
  return request;
}

void EncodeEmbeddingResponse(std::vector<uint8_t>& out,
                             const std::vector<float>& embedding) {
  Append(out, static_cast<uint32_t>(embedding.size()));
  const size_t at = out.size();
  out.resize(at + embedding.size() * sizeof(float));
  std::memcpy(out.data() + at, embedding.data(),
              embedding.size() * sizeof(float));
}

Result<std::vector<float>> DecodeEmbeddingResponse(const uint8_t* payload,
                                                   size_t size) {
  Reader reader(payload, size);
  uint32_t dim = 0;
  if (!reader.Read(&dim) || reader.Remaining() != dim * sizeof(float)) {
    return Status::InvalidArgument("malformed embedding response payload");
  }
  std::vector<float> embedding(dim);
  for (uint32_t i = 0; i < dim; ++i) {
    if (!reader.Read(&embedding[i])) {
      return Status::InvalidArgument("truncated embedding response");
    }
  }
  return embedding;
}

void EncodeIntrospectRequest(std::vector<uint8_t>& out,
                             IntrospectFormat format) {
  Append(out, static_cast<uint8_t>(format));
}

Result<IntrospectFormat> DecodeIntrospectRequest(const uint8_t* payload,
                                                 size_t size) {
  Reader reader(payload, size);
  uint8_t format = 0;
  if (!reader.Read(&format) || !reader.Done()) {
    return Status::InvalidArgument("malformed introspect request payload");
  }
  if (format > static_cast<uint8_t>(IntrospectFormat::kPrometheus)) {
    return Status::InvalidArgument(
        StrFormat("unknown introspect format %u", format));
  }
  return static_cast<IntrospectFormat>(format);
}

void FrameParser::Feed(const uint8_t* data, size_t size) {
  // Compact once the consumed prefix dominates, so long-lived connections
  // do not grow the buffer without bound.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

Result<Frame> FrameParser::Next() {
  const size_t available = buffer_.size() - consumed_;
  if (available < kHeaderBytes) {
    return Status::Unavailable("incomplete header");
  }
  FrameHeader header;
  std::memcpy(&header, buffer_.data() + consumed_, kHeaderBytes);
  FVAE_RETURN_IF_ERROR(ValidateHeader(header));
  if (available < kHeaderBytes + header.length) {
    return Status::Unavailable("incomplete payload");
  }
  const uint8_t* payload = buffer_.data() + consumed_ + kHeaderBytes;
  FVAE_RETURN_IF_ERROR(ValidatePayload(header, payload, header.length));
  Frame frame;
  frame.header = header;
  frame.payload.assign(payload, payload + header.length);
  consumed_ += kHeaderBytes + header.length;
  return frame;
}

}  // namespace fvae::net
