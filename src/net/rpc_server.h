#ifndef FVAE_NET_RPC_SERVER_H_
#define FVAE_NET_RPC_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/hot_path.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/epoll_loop.h"
#include "net/fd.h"
#include "net/net_metrics.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "serving/embedding_service.h"

namespace fvae::net {

struct RpcServerOptions {
  /// 0 picks an ephemeral port — read it back with port().
  uint16_t port = 0;
  /// Worker event loops; connections are distributed round-robin.
  size_t num_workers = 2;
  /// Read side pauses (backpressure) while a connection's pending write
  /// buffer exceeds this.
  size_t write_buffer_high_watermark = 1 << 20;
  /// A connection holding an incomplete frame longer than this is closed —
  /// the slow-loris defense. Byte dribbling resets nothing: the clock runs
  /// from the first byte of the unfinished frame.
  int64_t frame_assembly_timeout_micros = 2'000'000;
  /// Graceful-drain budget on Stop(): connections flush pending responses
  /// until this expires, then are force-closed.
  int64_t drain_timeout_micros = 2'000'000;
  /// Tail capture: a completed request slower than this (or finishing with
  /// a non-ok wire status) lands in the slow-trace ring served by the
  /// Introspect verb. 0 captures errors only.
  int64_t slow_trace_threshold_micros = 50'000;
};

/// Epoll-based network front-end over an EmbeddingService.
///
/// One acceptor thread distributes connections round-robin to N worker
/// threads; each worker runs a private EpollLoop that owns its connections
/// outright, so the data path is lock-free — frames are parsed, dispatched
/// and answered entirely on the owning loop thread, fold-in encodes
/// included. The only cross-thread hops are the acceptor's connection
/// handoff and Stop's drain signal, both via EpollLoop::Post. Connections
/// are addressed by a monotonically increasing id, never by fd, so a timer
/// racing a close cannot hit a recycled descriptor. Admission is
/// backpressure: a connection whose replies pile up past the write
/// watermark stops being read until they drain.
class RpcServer {
 public:
  /// `service` must outlive the server. `registry` null keeps the server's
  /// transport metrics in a private registry.
  RpcServer(serving::EmbeddingService* service, RpcServerOptions options,
            obs::MetricsRegistry* registry = nullptr);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds, listens, and spins up acceptor + workers.
  Status Start();

  /// Graceful drain: stop accepting, let in-flight responses flush (up to
  /// drain_timeout), close everything, join threads. Idempotent.
  void Stop();

  /// The bound port (valid after Start).
  uint16_t port() const { return port_; }

  ServerMetrics& metrics() { return metrics_; }

 private:
  struct Connection;

  /// Per-request bookkeeping threaded from frame arrival to response
  /// queueing.
  struct RequestState {
    uint64_t tag = 0;
    Verb verb = Verb::kHealth;
    int64_t start_us = 0;
    /// Wire-extracted context: the trace id plus the client's span id
    /// (our parent). Invalid (zero) on untraced requests.
    obs::TraceContext trace;
  };

  /// One worker thread: a private event loop plus the connections it owns.
  /// All members except the loop's Post queue are loop-thread-only.
  struct Worker {
    EpollLoop loop;
    std::thread thread;
    // Loop-thread-only: connection table and drain flag.
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections;
    // Closed connections whose memory must outlive the current event:
    // CloseConnection runs deep inside ReadFrames/FlushWrites call chains
    // whose callers still test `conn->closing` on the way out. The fd is
    // closed eagerly; the object is freed at the next top-of-event safe
    // point (or with the worker).
    std::vector<std::unique_ptr<Connection>> reaped;
    bool draining = false;
    RpcServer* server = nullptr;
  };

  void AcceptLoop();
  // Everything below AcceptLoop runs on a worker's loop thread (directly
  // as an epoll/timer callback or via Post); FVAE_EVENT_LOOP holds the
  // whole data path to the no-blocking discipline (tools/lint_graph.h).
  FVAE_EVENT_LOOP void AdoptConnection(Worker* worker, Fd fd);
  /// Schedules the self-rearming slow-loris watchdog for a connection.
  FVAE_EVENT_LOOP void ArmAssemblyWatchdog(Worker* worker, uint64_t conn_id);
  FVAE_EVENT_LOOP void HandleIo(Worker* worker, uint64_t conn_id,
                                EpollLoop::Events events);
  FVAE_EVENT_LOOP void ReadFrames(Worker* worker, Connection* conn);
  /// Takes the frame by pointer: extracting the trace-context prefix
  /// mutates the payload in place.
  FVAE_EVENT_LOOP void DispatchFrame(Worker* worker, Connection* conn,
                                     Frame* frame);
  /// Terminal step for every request: records the reply span, per-verb
  /// latency, exemplars and slow-trace capture, then frames the response.
  FVAE_EVENT_LOOP void QueueResponse(Worker* worker, Connection* conn,
                                     const RequestState& req,
                                     WireStatus status, const uint8_t* payload,
                                     size_t payload_size);
  FVAE_EVENT_LOOP void FlushWrites(Worker* worker, Connection* conn);
  FVAE_EVENT_LOOP void UpdateInterest(Worker* worker, Connection* conn);
  FVAE_EVENT_LOOP void CloseConnection(Worker* worker, uint64_t conn_id);
  /// During drain: close once no reply bytes are pending; stop the loop
  /// when the worker has no connections left.
  FVAE_EVENT_LOOP void MaybeFinishDrain(Worker* worker, Connection* conn);

  serving::EmbeddingService* service_;
  RpcServerOptions options_;
  ServerMetrics metrics_;

  Fd listener_;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<size_t> next_worker_{0};
};

}  // namespace fvae::net

#endif  // FVAE_NET_RPC_SERVER_H_
