#include "net/rpc_server.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/prometheus.h"
#include "obs/trace.h"

namespace fvae::net {

/// Per-connection state, owned by exactly one worker loop.
struct RpcServer::Connection {
  uint64_t id = 0;
  Fd fd;
  FrameParser parser;
  /// Encoded responses not yet handed to the kernel; [sent, size) pending.
  std::vector<uint8_t> write_buffer;
  size_t write_sent = 0;
  /// Read interest currently disabled (write buffer over watermark).
  bool paused = false;
  /// EPOLLOUT currently armed.
  bool want_write = false;
  /// Micros timestamp of the first byte of the frame being assembled;
  /// 0 = no partial frame pending. The slow-loris clock.
  int64_t incomplete_since = 0;
  TimerWheel::TimerId assembly_timer = TimerWheel::kInvalidTimer;
  bool closing = false;

  size_t pending_write_bytes() const {
    return write_buffer.size() - write_sent;
  }
};

RpcServer::RpcServer(serving::EmbeddingService* service,
                     RpcServerOptions options, obs::MetricsRegistry* registry)
    : service_(service), options_(options), metrics_(registry) {
  FVAE_CHECK(service_ != nullptr) << "RpcServer needs a service";
  options_.num_workers = std::max<size_t>(options_.num_workers, 1);
}

RpcServer::~RpcServer() { Stop(); }

Status RpcServer::Start() {
  FVAE_ASSIGN_OR_RETURN(listener_, TcpListen(options_.port));
  FVAE_ASSIGN_OR_RETURN(port_, LocalPort(listener_.get()));
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->server = this;
    FVAE_RETURN_IF_ERROR(worker->loop.Init());
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([w] { w->loop.Run(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  started_.store(true, std::memory_order_release);
  return Status::Ok();
}

void RpcServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listener_.get(), POLLIN, 0};
    const int n = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (n < 0 && errno != EINTR) break;
    if (n <= 0) continue;
    for (;;) {
      Result<Fd> conn = Accept(listener_);
      if (!conn.ok()) break;  // EAGAIN drained or transient error.
      metrics_.connections_accepted.Increment();
      metrics_.UpdateOpenConnections(+1);
      Worker* worker =
          workers_[next_worker_.fetch_add(1, std::memory_order_relaxed) %
                   workers_.size()]
              .get();
      // Fd is move-only but std::function wants copyable — park it in a
      // shared_ptr for the hop onto the loop thread.
      auto shared_fd = std::make_shared<Fd>(std::move(conn).value());
      worker->loop.Post([this, worker, shared_fd]() mutable {
        AdoptConnection(worker, std::move(*shared_fd));
      });
    }
  }
}

void RpcServer::AdoptConnection(Worker* worker, Fd fd) {
  if (worker->draining || !fd.valid()) {
    metrics_.connections_closed.Increment();
    metrics_.UpdateOpenConnections(-1);
    return;
  }
  auto conn = std::make_unique<Connection>();
  conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  conn->fd = std::move(fd);
  const uint64_t conn_id = conn->id;
  const int raw_fd = conn->fd.get();
  worker->connections.emplace(conn_id, std::move(conn));
  const Status added = worker->loop.Add(
      raw_fd, /*want_write=*/false,
      [this, worker, conn_id](EpollLoop::Events events) {
        HandleIo(worker, conn_id, events);
      });
  if (!added.ok()) {
    FVAE_LOG(WARNING) << "net: failed to register connection: "
                   << added.ToString();
    worker->connections.erase(conn_id);
    metrics_.connections_closed.Increment();
    metrics_.UpdateOpenConnections(-1);
    return;
  }
  ArmAssemblyWatchdog(worker, conn_id);
}

void RpcServer::ArmAssemblyWatchdog(Worker* worker, uint64_t conn_id) {
  auto it = worker->connections.find(conn_id);
  if (it == worker->connections.end()) return;
  // Fires at half the assembly budget so a slow-loris violation is caught
  // within 1.5x the configured timeout; rearms itself while the connection
  // lives.
  it->second->assembly_timer = worker->loop.ScheduleTimer(
      options_.frame_assembly_timeout_micros / 2, [this, worker, conn_id] {
        auto it2 = worker->connections.find(conn_id);
        if (it2 == worker->connections.end()) return;
        Connection* conn = it2->second.get();
        conn->assembly_timer = TimerWheel::kInvalidTimer;
        if (conn->incomplete_since != 0 &&
            MonotonicMicros() - conn->incomplete_since >
                options_.frame_assembly_timeout_micros) {
          metrics_.idle_timeouts.Increment();
          CloseConnection(worker, conn_id);
          return;
        }
        ArmAssemblyWatchdog(worker, conn_id);
      });
}

void RpcServer::HandleIo(Worker* worker, uint64_t conn_id,
                         EpollLoop::Events events) {
  // Top of a fresh event: the previous event's closed connections can no
  // longer be referenced by any live stack frame — free them now.
  worker->reaped.clear();
  auto it = worker->connections.find(conn_id);
  if (it == worker->connections.end()) return;
  Connection* conn = it->second.get();
  if (events.error) {
    CloseConnection(worker, conn_id);
    return;
  }
  if (events.writable) {
    FlushWrites(worker, conn);
    if (conn->closing) return;  // FlushWrites may close on write error.
  }
  if (events.readable && !conn->paused) {
    ReadFrames(worker, conn);
    if (conn->closing) return;
  }
  if (worker->draining) MaybeFinishDrain(worker, conn);
}

void RpcServer::ReadFrames(Worker* worker, Connection* conn) {
  uint8_t buffer[16 * 1024];
  for (;;) {
    // MSG_DONTWAIT: the socket is already O_NONBLOCK, but the explicit
    // flag keeps this read non-blocking even if a future code path hands
    // over a descriptor whose flag was dropped (and satisfies fvae_lint's
    // event-loop discipline without trusting per-fd state).
    const ssize_t n =
        ::recv(conn->fd.get(), buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n > 0) {
      metrics_.bytes_rx.Add(static_cast<uint64_t>(n));
      conn->parser.Feed(buffer, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {  // Peer closed.
      CloseConnection(worker, conn->id);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(worker, conn->id);
    return;
  }
  for (;;) {
    Result<Frame> frame = conn->parser.Next();
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kUnavailable) break;
      // Malformed input: no way to resynchronize a corrupt byte stream,
      // drop the connection.
      metrics_.protocol_errors.Increment();
      CloseConnection(worker, conn->id);
      return;
    }
    metrics_.frames_rx.Increment();
    DispatchFrame(worker, conn, &*frame);
    if (conn->closing) return;
  }
  // Track the start of an unfinished frame for the slow-loris watchdog.
  if (conn->parser.buffered_bytes() > 0) {
    if (conn->incomplete_since == 0) {
      conn->incomplete_since = MonotonicMicros();
    }
  } else {
    conn->incomplete_since = 0;
  }
}

void RpcServer::DispatchFrame(Worker* worker, Connection* conn,
                              Frame* frame) {
  RequestState req;
  req.tag = frame->header.tag;
  req.verb = static_cast<Verb>(frame->header.verb);
  req.start_us = MonotonicMicros();
  // Peel the trace prefix off the payload before any verb decoding. A
  // malformed prefix is a protocol error (ValidateHeader already vetoed
  // the too-short case, but stay defensive).
  Result<obs::TraceContext> extracted = ExtractTraceContext(frame);
  if (!extracted.ok()) {
    metrics_.protocol_errors.Increment();
    CloseConnection(worker, conn->id);
    return;
  }
  req.trace = *extracted;
  // Install the wire context for the dispatch: spans opened below (and any
  // synchronous service work) stitch into the client's trace.
  obs::ScopedTraceContext scoped(req.trace);
  obs::TraceSpan parse_span("net.server.parse");
  switch (req.verb) {
    case Verb::kHealth: {
      parse_span.End();
      QueueResponse(worker, conn, req, WireStatus::kOk, nullptr, 0);
      break;
    }
    case Verb::kStats: {
      parse_span.End();
      const std::string json = "{\"serving\":" + service_->TelemetryJson() +
                               ",\"net\":" + metrics_.ToJson() + "}";
      QueueResponse(worker, conn, req, WireStatus::kOk,
                    reinterpret_cast<const uint8_t*>(json.data()),
                    json.size());
      break;
    }
    case Verb::kIntrospect: {
      Result<IntrospectFormat> format = DecodeIntrospectRequest(
          frame->payload.data(), frame->payload.size());
      parse_span.End();
      if (!format.ok()) {
        const std::string& msg = format.status().message();
        QueueResponse(worker, conn, req, WireStatus::kInvalidArgument,
                      reinterpret_cast<const uint8_t*>(msg.data()),
                      msg.size());
        break;
      }
      std::string body;
      if (*format == IntrospectFormat::kPrometheus) {
        body = obs::PrometheusText(metrics_.registry());
      } else {
        body = "{\"serving\":" + service_->TelemetryJson() +
               ",\"net\":" + metrics_.ToJson() +
               ",\"slow_traces\":" + metrics_.slow_traces().ToJson() +
               ",\"exemplars\":" + metrics_.registry().ExemplarsJson() + "}";
      }
      QueueResponse(worker, conn, req, WireStatus::kOk,
                    reinterpret_cast<const uint8_t*>(body.data()),
                    body.size());
      break;
    }
    case Verb::kLookup: {
      Result<uint64_t> user =
          DecodeLookupRequest(frame->payload.data(), frame->payload.size());
      parse_span.End();
      if (!user.ok()) {
        const std::string& msg = user.status().message();
        QueueResponse(worker, conn, req, WireStatus::kInvalidArgument,
                      reinterpret_cast<const uint8_t*>(msg.data()),
                      msg.size());
        break;
      }
      serving::EmbeddingService::EmbeddingResult result =
          service_->Lookup(*user);
      if (result.ok()) {
        std::vector<uint8_t> payload;
        EncodeEmbeddingResponse(payload, *result);
        QueueResponse(worker, conn, req, WireStatus::kOk, payload.data(),
                      payload.size());
      } else {
        const std::string& msg = result.status().message();
        QueueResponse(worker, conn, req, ToWireStatus(result.status()),
                      reinterpret_cast<const uint8_t*>(msg.data()),
                      msg.size());
      }
      break;
    }
    case Verb::kEncodeFoldIn: {
      Result<FoldInRequest> request =
          DecodeFoldInRequest(frame->payload.data(), frame->payload.size());
      parse_span.End();
      if (!request.ok()) {
        const std::string& msg = request.status().message();
        QueueResponse(worker, conn, req, WireStatus::kInvalidArgument,
                      reinterpret_cast<const uint8_t*>(msg.data()),
                      msg.size());
        break;
      }
      // Encoded right here on the loop thread, like a Lookup: the encoder
      // is lock-free, so workers fold in in parallel and the reply needs no
      // thread hop.
      serving::EmbeddingService::EmbeddingResult result =
          service_->LookupOrEncode(request->user_id, request->features);
      if (result.ok()) {
        std::vector<uint8_t> payload;
        EncodeEmbeddingResponse(payload, *result);
        QueueResponse(worker, conn, req, WireStatus::kOk, payload.data(),
                      payload.size());
      } else {
        const std::string& msg = result.status().message();
        QueueResponse(worker, conn, req, ToWireStatus(result.status()),
                      reinterpret_cast<const uint8_t*>(msg.data()),
                      msg.size());
      }
      break;
    }
  }
}

void RpcServer::QueueResponse(Worker* worker, Connection* conn,
                              const RequestState& req, WireStatus status,
                              const uint8_t* payload, size_t payload_size) {
  const int64_t now_us = MonotonicMicros();
  const double latency_us = static_cast<double>(now_us - req.start_us);
  // One reply span per request, parented on the client's send span, so the
  // stitched trace shows the full server-side envelope (parse, store read
  // and any fold-in encode).
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  if (recorder.enabled() && req.trace.valid()) {
    const obs::TraceContext reply_ctx{req.trace.trace_id, obs::MintSpanId()};
    recorder.RecordSpan("net.server.reply", req.start_us,
                        now_us - req.start_us, reply_ctx,
                        /*parent_span_id=*/req.trace.span_id);
  }
  metrics_.request_latency_us().Record(latency_us);
  metrics_.verb_latency_us(req.verb).Record(latency_us);
  if (req.trace.valid()) {
    metrics_.request_exemplars().Offer(latency_us, req.trace.trace_id);
  }
  if (latency_us > static_cast<double>(options_.slow_trace_threshold_micros) ||
      status != WireStatus::kOk) {
    obs::SlowTraceRing::Entry entry;
    entry.trace_id = req.trace.trace_id;
    entry.parent_span_id = req.trace.span_id;
    entry.tag = req.tag;
    entry.start_us = req.start_us;
    entry.duration_us = now_us - req.start_us;
    entry.verb = static_cast<uint8_t>(req.verb);
    entry.status = static_cast<uint8_t>(status);
    metrics_.slow_traces().Record(entry);
  }
  AppendFrame(conn->write_buffer, req.verb, status, kFlagResponse, req.tag,
              payload, payload_size);
  metrics_.frames_tx.Increment();
  FlushWrites(worker, conn);
}

void RpcServer::FlushWrites(Worker* worker, Connection* conn) {
  while (conn->pending_write_bytes() > 0) {
    // MSG_DONTWAIT for the same reason as the read side: the loop thread
    // must never park in a send, whatever the descriptor's flags say.
    const ssize_t n =
        ::send(conn->fd.get(), conn->write_buffer.data() + conn->write_sent,
               conn->pending_write_bytes(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      metrics_.bytes_tx.Add(static_cast<uint64_t>(n));
      conn->write_sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConnection(worker, conn->id);
    return;
  }
  if (conn->pending_write_bytes() == 0) {
    conn->write_buffer.clear();
    conn->write_sent = 0;
  }
  UpdateInterest(worker, conn);
}

void RpcServer::UpdateInterest(Worker* worker, Connection* conn) {
  const bool over_watermark =
      conn->pending_write_bytes() > options_.write_buffer_high_watermark;
  const bool want_write = conn->pending_write_bytes() > 0;
  const bool want_read = !over_watermark;
  if (over_watermark && !conn->paused) {
    metrics_.backpressure_pauses.Increment();
  }
  if (conn->paused != over_watermark || conn->want_write != want_write) {
    conn->paused = over_watermark;
    conn->want_write = want_write;
    const Status modified =
        worker->loop.Mod(conn->fd.get(), want_read, want_write);
    if (!modified.ok()) CloseConnection(worker, conn->id);
  }
}

void RpcServer::CloseConnection(Worker* worker, uint64_t conn_id) {
  auto it = worker->connections.find(conn_id);
  if (it == worker->connections.end()) return;
  Connection* conn = it->second.get();
  if (conn->closing) return;
  conn->closing = true;
  if (conn->assembly_timer != TimerWheel::kInvalidTimer) {
    worker->loop.CancelTimer(conn->assembly_timer);
    conn->assembly_timer = TimerWheel::kInvalidTimer;
  }
  // Del before close so the loop never sees a recycled fd number.
  (void)worker->loop.Del(conn->fd.get());  // ok to fail on dead sockets
  conn->fd.Reset();  // eager close: the peer sees EOF/RST immediately
  metrics_.connections_closed.Increment();
  metrics_.UpdateOpenConnections(-1);
  // Callers up the current stack (ReadFrames loops, HandleIo) still hold
  // `conn` and test `conn->closing` after this returns, so the object must
  // outlive the event: park it in the graveyard, freed at the next
  // top-of-event safe point.
  worker->reaped.push_back(std::move(it->second));
  worker->connections.erase(it);
  if (worker->draining && worker->connections.empty()) {
    worker->loop.Stop();
  }
}

void RpcServer::MaybeFinishDrain(Worker* worker, Connection* conn) {
  if (conn->pending_write_bytes() == 0) {
    CloseConnection(worker, conn->id);
  }
}

void RpcServer::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Reset();
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->loop.Post([this, w] {
      w->draining = true;
      // Snapshot ids: MaybeFinishDrain mutates the table.
      std::vector<uint64_t> ids;
      ids.reserve(w->connections.size());
      for (const auto& [id, conn] : w->connections) ids.push_back(id);
      for (uint64_t id : ids) {
        auto it = w->connections.find(id);
        if (it != w->connections.end()) MaybeFinishDrain(w, it->second.get());
      }
      if (w->connections.empty()) {
        w->loop.Stop();
        return;
      }
      // Force-close stragglers once the drain budget is spent.
      w->loop.ScheduleTimer(options_.drain_timeout_micros, [this, w] {
        std::vector<uint64_t> left;
        left.reserve(w->connections.size());
        for (const auto& [id, conn] : w->connections) left.push_back(id);
        for (uint64_t id : left) CloseConnection(w, id);
        w->loop.Stop();
      });
    });
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  started_.store(false, std::memory_order_release);
}

}  // namespace fvae::net
