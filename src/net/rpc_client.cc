#include "net/rpc_client.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "common/stopwatch.h"

namespace fvae::net {

Result<std::unique_ptr<RpcChannel>> RpcChannel::Connect(
    const std::string& endpoint, int timeout_ms) {
  FVAE_ASSIGN_OR_RETURN(Fd fd, ConnectEndpoint(endpoint, timeout_ms));
  return std::unique_ptr<RpcChannel>(
      new RpcChannel(std::move(fd), endpoint));
}

Result<uint64_t> RpcChannel::SendRequest(Verb verb,
                                         const std::vector<uint8_t>& payload,
                                         int64_t deadline_micros) {
  const uint64_t tag = next_tag_++;
  send_buffer_.clear();
  // The thread-ambient trace context, if any, rides every frame.
  const obs::TraceContext context = obs::CurrentTraceContext();
  AppendFrame(send_buffer_, verb, WireStatus::kOk, /*flags=*/0, tag,
              payload.data(), payload.size(), kProtocolVersion, &context);
  FVAE_RETURN_IF_ERROR(SendAll(fd_.get(), send_buffer_.data(),
                               send_buffer_.size(), deadline_micros));
  return tag;
}

Result<Frame> RpcChannel::ReadResponse(uint64_t tag,
                                       int64_t deadline_micros) {
  for (;;) {
    // Drain any frame already buffered before touching the socket.
    Result<Frame> frame = parser_.Next();
    if (frame.ok()) {
      if (frame->header.tag == tag) {
        // Responses are not expected to carry a trace prefix today, but a
        // future server minting server-side contexts may; strip it so verb
        // wrappers always see the bare payload.
        FVAE_RETURN_IF_ERROR(
            ExtractTraceContext(&*frame).status());
        return CheckResponse(*std::move(frame));
      }
      // Stale response from an abandoned hedge arm on a reused channel:
      // skip it and keep reading.
      continue;
    }
    if (frame.status().code() != StatusCode::kUnavailable) {
      return frame.status();  // Corrupt stream.
    }
    uint8_t buffer[16 * 1024];
    FVAE_RETURN_IF_ERROR(WaitReadable(fd_.get(), deadline_micros));
    const ssize_t n = ::recv(fd_.get(), buffer, sizeof(buffer), 0);
    if (n > 0) {
      parser_.Feed(buffer, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::IoError("connection closed by server");
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return Status::IoError(std::string("recv: ") + std::strerror(errno));
  }
}

Result<Frame> RpcChannel::Call(Verb verb, const std::vector<uint8_t>& payload,
                               int64_t deadline_micros) {
  FVAE_ASSIGN_OR_RETURN(const uint64_t tag,
                        SendRequest(verb, payload, deadline_micros));
  return ReadResponse(tag, deadline_micros);
}

Result<Frame> RpcChannel::CheckResponse(Frame frame) {
  const auto code = static_cast<WireStatus>(frame.header.status);
  if (code != WireStatus::kOk) {
    return FromWireStatus(
        code, std::string(frame.payload.begin(), frame.payload.end()));
  }
  return frame;
}

Status RpcChannel::Health(int64_t deadline_micros) {
  const std::vector<uint8_t> empty;
  FVAE_ASSIGN_OR_RETURN(Frame frame,
                        Call(Verb::kHealth, empty, deadline_micros));
  (void)frame;  // Ok status frame carries no payload.
  return Status::Ok();
}

Result<std::vector<float>> RpcChannel::Lookup(uint64_t user_id,
                                              int64_t deadline_micros) {
  std::vector<uint8_t> payload;
  EncodeLookupRequest(payload, user_id);
  FVAE_ASSIGN_OR_RETURN(Frame frame,
                        Call(Verb::kLookup, payload, deadline_micros));
  return DecodeEmbeddingResponse(frame.payload.data(), frame.payload.size());
}

Result<std::vector<float>> RpcChannel::EncodeFoldIn(
    uint64_t user_id, const core::RawUserFeatures& features,
    int64_t deadline_micros) {
  std::vector<uint8_t> payload;
  EncodeFoldInRequest(payload, user_id, features);
  FVAE_ASSIGN_OR_RETURN(Frame frame,
                        Call(Verb::kEncodeFoldIn, payload, deadline_micros));
  return DecodeEmbeddingResponse(frame.payload.data(), frame.payload.size());
}

Result<std::string> RpcChannel::Stats(int64_t deadline_micros) {
  const std::vector<uint8_t> empty;
  FVAE_ASSIGN_OR_RETURN(Frame frame,
                        Call(Verb::kStats, empty, deadline_micros));
  return std::string(frame.payload.begin(), frame.payload.end());
}

Result<std::string> RpcChannel::Introspect(IntrospectFormat format,
                                           int64_t deadline_micros) {
  std::vector<uint8_t> payload;
  EncodeIntrospectRequest(payload, format);
  FVAE_ASSIGN_OR_RETURN(Frame frame,
                        Call(Verb::kIntrospect, payload, deadline_micros));
  return std::string(frame.payload.begin(), frame.payload.end());
}

Result<std::unique_ptr<RpcChannel>> ChannelPool::Acquire(int timeout_ms) {
  {
    MutexLock lock(mutex_);
    if (!idle_.empty()) {
      std::unique_ptr<RpcChannel> channel = std::move(idle_.back());
      idle_.pop_back();
      return channel;
    }
  }
  return RpcChannel::Connect(endpoint_, timeout_ms);
}

void ChannelPool::Release(std::unique_ptr<RpcChannel> channel) {
  if (channel == nullptr) return;
  MutexLock lock(mutex_);
  idle_.push_back(std::move(channel));
}

size_t ChannelPool::idle() const {
  MutexLock lock(mutex_);
  return idle_.size();
}

}  // namespace fvae::net
