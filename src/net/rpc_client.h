#ifndef FVAE_NET_RPC_CLIENT_H_
#define FVAE_NET_RPC_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/hot_path.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/fvae_model.h"
#include "net/fd.h"
#include "net/wire.h"

namespace fvae::net {

/// Blocking client connection: one in-flight request at a time, matched to
/// its response by tag. Not thread-safe — each thread (or each hedged arm)
/// uses its own channel; ChannelPool below hands them out.
///
/// Every request goes out as a kProtocolVersion frame, with the
/// thread-ambient obs::TraceContext, when one is active, injected as the
/// payload trace prefix — the first request on a fresh channel included.
class RpcChannel {
 public:
  /// Connects to "127.0.0.1:<port>".
  FVAE_MAY_BLOCK static Result<std::unique_ptr<RpcChannel>> Connect(
      const std::string& endpoint, int timeout_ms = 1000);

  /// Full round trip: send + wait for the tagged response.
  /// `deadline_micros` is absolute (MonotonicMicros scale; 0 = no limit).
  FVAE_MAY_BLOCK Result<Frame> Call(Verb verb,
                                    const std::vector<uint8_t>& payload,
                                    int64_t deadline_micros = 0);

  /// Split-phase API for hedging: send now, collect later.
  /// Returns the tag the response will carry.
  FVAE_MAY_BLOCK Result<uint64_t> SendRequest(
      Verb verb, const std::vector<uint8_t>& payload,
      int64_t deadline_micros = 0);
  /// Blocks until the response tagged `tag` arrives (skipping stale earlier
  /// responses) or the deadline passes (kUnavailable).
  FVAE_MAY_BLOCK Result<Frame> ReadResponse(uint64_t tag,
                                            int64_t deadline_micros);

  /// Raw socket for poll-based readiness checks (hedging).
  int fd() const { return fd_.get(); }
  const std::string& endpoint() const { return endpoint_; }

  // --- Verb wrappers ---
  FVAE_MAY_BLOCK Status Health(int64_t deadline_micros = 0);
  FVAE_MAY_BLOCK Result<std::vector<float>> Lookup(
      uint64_t user_id, int64_t deadline_micros = 0);
  FVAE_MAY_BLOCK Result<std::vector<float>> EncodeFoldIn(
      uint64_t user_id, const core::RawUserFeatures& features,
      int64_t deadline_micros = 0);
  FVAE_MAY_BLOCK Result<std::string> Stats(int64_t deadline_micros = 0);
  /// Live introspection snapshot: metrics, slow traces and exemplars as
  /// JSON, or a Prometheus scrape body.
  FVAE_MAY_BLOCK Result<std::string> Introspect(
      IntrospectFormat format = IntrospectFormat::kJson,
      int64_t deadline_micros = 0);

 private:
  RpcChannel(Fd fd, std::string endpoint)
      : fd_(std::move(fd)), endpoint_(std::move(endpoint)) {}

  /// Turns a response frame into the caller-facing result: wire errors map
  /// back to Status, Ok frames hand back the payload.
  static Result<Frame> CheckResponse(Frame frame);

  Fd fd_;
  std::string endpoint_;
  uint64_t next_tag_ = 1;
  std::vector<uint8_t> send_buffer_;
  FrameParser parser_;
};

/// Mutex-guarded free list of channels to one endpoint. Channels check out
/// for the duration of a call and return on clean completion; channels that
/// saw a transport error are discarded (their stream state is unknown).
class ChannelPool {
 public:
  explicit ChannelPool(std::string endpoint) : endpoint_(std::move(endpoint)) {}

  /// Pops a pooled channel or dials a new one (a fresh dial blocks in
  /// connect).
  FVAE_MAY_BLOCK Result<std::unique_ptr<RpcChannel>> Acquire(
      int timeout_ms = 1000) FVAE_EXCLUDES(mutex_);

  /// Returns a healthy channel for reuse.
  void Release(std::unique_ptr<RpcChannel> channel) FVAE_EXCLUDES(mutex_);

  const std::string& endpoint() const { return endpoint_; }
  size_t idle() const FVAE_EXCLUDES(mutex_);

 private:
  const std::string endpoint_;
  mutable Mutex mutex_;
  std::vector<std::unique_ptr<RpcChannel>> idle_ FVAE_GUARDED_BY(mutex_);
};

}  // namespace fvae::net

#endif  // FVAE_NET_RPC_CLIENT_H_
