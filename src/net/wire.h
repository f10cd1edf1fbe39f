#ifndef FVAE_NET_WIRE_H_
#define FVAE_NET_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/fvae_model.h"
#include "obs/trace.h"

namespace fvae::net {

// The wire format is raw little-endian structs; a big-endian host would
// need byte swaps this codec does not implement.
static_assert(std::endian::native == std::endian::little,
              "fvae wire protocol requires a little-endian host");

/// Request verbs. Numeric values are wire contract — append only.
enum class Verb : uint8_t {
  kHealth = 0,
  kLookup = 1,
  kEncodeFoldIn = 2,
  kStats = 3,
  kIntrospect = 4,  // metrics snapshot + slow traces + Prometheus text
};

/// Response status codes on the wire. A transport-level CRC/framing error
/// never gets a response — the server closes the connection instead.
enum class WireStatus : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kDeadlineExceeded = 2,
  kResourceExhausted = 3,
  kInvalidArgument = 4,
  kInternal = 5,
};

/// Converts a serving-layer Status into its wire code (and back, for client
/// error reporting).
WireStatus ToWireStatus(const Status& status);
Status FromWireStatus(WireStatus code, const std::string& message);

inline constexpr uint32_t kFrameMagic = 0x50525646;  // "FVRP" little-endian.
/// The protocol version, the only one ValidateHeader accepts — see
/// docs/PROTOCOL.md.
inline constexpr uint8_t kProtocolVersion = 2;
/// Hard payload ceiling: a fold-in request for even a pathological user fits
/// in well under 16 MiB, so anything bigger is a corrupt or hostile length
/// prefix and the connection is dropped before allocating.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 24;

inline constexpr uint8_t kFlagResponse = 0x01;
/// The payload begins with a 16-byte trace-context prefix (u64 trace_id,
/// u64 parent span_id, little-endian). `length` and `crc` cover prefix +
/// body.
inline constexpr uint8_t kFlagTraceContext = 0x02;

/// Size of the trace-context payload prefix (u64 trace_id + u64 span_id).
inline constexpr size_t kTraceContextBytes = 16;

/// Fixed 24-byte frame header. `length` counts payload bytes only; `crc`
/// covers payload bytes only (header corruption is caught by the magic /
/// version / length sanity checks).
struct FrameHeader {
  uint32_t magic = kFrameMagic;
  uint8_t version = kProtocolVersion;
  uint8_t verb = 0;
  uint8_t status = 0;  // WireStatus; meaningful on responses.
  uint8_t flags = 0;
  uint64_t tag = 0;  // Echoed verbatim: matches responses to requests.
  uint32_t length = 0;
  uint32_t crc = 0;
};
static_assert(sizeof(FrameHeader) == 24, "header layout is wire contract");

inline constexpr size_t kHeaderBytes = sizeof(FrameHeader);

/// A fully parsed inbound frame.
struct Frame {
  FrameHeader header;
  std::vector<uint8_t> payload;
};

/// Validates magic / version / flag / length bounds of a header freshly
/// copied off the wire. Only kProtocolVersion is accepted; the
/// trace-context flag is rejected on frames too short to hold the prefix.
/// Does NOT check the CRC (the payload has not been read yet).
Status ValidateHeader(const FrameHeader& header);

/// Checks the payload against the header CRC.
Status ValidatePayload(const FrameHeader& header, const uint8_t* payload,
                       size_t size);

/// Appends header + payload to `out` with the CRC computed over the
/// payload region. `version` stamps the header; every peer sends
/// kProtocolVersion, and tests pass others to forge bad frames. When
/// `trace` is non-null and valid, the kFlagTraceContext bit is set and the
/// 16-byte prefix (trace->trace_id, trace->span_id — the sender's current
/// span, i.e. the receiver's parent) is written ahead of the payload;
/// `length`/`crc` cover both.
void AppendFrame(std::vector<uint8_t>& out, Verb verb, WireStatus status,
                 uint8_t flags, uint64_t tag, const uint8_t* payload,
                 size_t payload_size, uint8_t version = kProtocolVersion,
                 const obs::TraceContext* trace = nullptr);

/// Strips the trace-context prefix from `frame` (payload shrinks by 16
/// bytes, the flag bit clears) and returns it as a TraceContext whose
/// span_id is the *sender's* span — the parent of everything the receiver
/// records. Frames without the flag return {0,0} untouched. A flagged
/// frame with a short payload is an error (ValidateHeader already rejects
/// it; this guards direct callers).
Result<obs::TraceContext> ExtractTraceContext(Frame* frame);

// --- Payload codecs -------------------------------------------------------
//
// Lookup request:       u64 user_id
// EncodeFoldIn request: u64 user_id, u32 num_fields,
//                       per field: u32 count, count × (u64 id, f32 value)
// Embedding response:   u32 dim, dim × f32
// Error response:       UTF-8 message bytes (no terminator)
// Health / Stats req:   empty
// Health response:      empty payload, WireStatus::kOk
// Stats response:       UTF-8 JSON document
// Introspect request:   u8 format (IntrospectFormat)
// Introspect response:  UTF-8 document (JSON or Prometheus text)

void EncodeLookupRequest(std::vector<uint8_t>& out, uint64_t user_id);
Result<uint64_t> DecodeLookupRequest(const uint8_t* payload, size_t size);

void EncodeFoldInRequest(std::vector<uint8_t>& out, uint64_t user_id,
                         const core::RawUserFeatures& features);
struct FoldInRequest {
  uint64_t user_id = 0;
  core::RawUserFeatures features;
};
Result<FoldInRequest> DecodeFoldInRequest(const uint8_t* payload, size_t size);

void EncodeEmbeddingResponse(std::vector<uint8_t>& out,
                             const std::vector<float>& embedding);
Result<std::vector<float>> DecodeEmbeddingResponse(const uint8_t* payload,
                                                   size_t size);

/// Requested rendering of the Introspect snapshot.
enum class IntrospectFormat : uint8_t {
  kJson = 0,        // metrics + per-verb latency + slow traces + exemplars
  kPrometheus = 1,  // text exposition format for scrapers
};

void EncodeIntrospectRequest(std::vector<uint8_t>& out,
                             IntrospectFormat format);
Result<IntrospectFormat> DecodeIntrospectRequest(const uint8_t* payload,
                                                 size_t size);

/// Incremental frame parser: feed bytes as they arrive, pop complete frames.
/// One instance per connection; headers and payloads that span reads are
/// buffered internally.
class FrameParser {
 public:
  /// Appends newly received bytes to the parse buffer.
  void Feed(const uint8_t* data, size_t size);

  /// Extracts the next complete, CRC-valid frame. Returns:
  ///  - Ok(frame) when a full frame was parsed,
  ///  - kUnavailable when more bytes are needed (not an error),
  ///  - kInvalidArgument / kIoError on malformed input — the connection
  ///    must be closed, the buffer is poisoned.
  Result<Frame> Next();

  /// Bytes currently buffered (for backpressure accounting and tests).
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;  // Prefix of buffer_ already handed out as frames.
};

}  // namespace fvae::net

#endif  // FVAE_NET_WIRE_H_
