#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "core/fvae_model.h"
#include "math/matrix.h"
#include "net/epoll_loop.h"
#include "net/fd.h"
#include "net/rpc_client.h"
#include "net/rpc_server.h"
#include "net/shard_router.h"
#include "net/timer_wheel.h"
#include "net/wire.h"
#include "serving/embedding_service.h"
#include "serving/fold_in.h"
#include "fold_in_test_model.h"

namespace fvae::net {
namespace {

using serving::EmbeddingService;
using serving::FvaeFoldInEncoder;
using serving::ShardedEmbeddingStore;

using fold_in_test::MakeFoldInModel;
using fold_in_test::RawUser;

std::string Endpoint(uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}

/// One serve stack: model + encoder + service + RPC server on an ephemeral
/// port.
struct TestServer {
  explicit TestServer(size_t dim = 4, RpcServerOptions options = {})
      : model(MakeFoldInModel(dim)),
        encoder(model.get()),
        service(ShardedEmbeddingStore(4), &encoder),
        server(&service, options) {
    EXPECT_TRUE(server.Start().ok());
  }
  ~TestServer() { server.Stop(); }

  std::string endpoint() { return Endpoint(server.port()); }

  /// The embedding a fold-in of `features` must answer with.
  std::vector<float> Reference(const core::RawUserFeatures& features) const {
    return encoder.Encode(features);
  }

  std::unique_ptr<core::FieldVae> model;
  FvaeFoldInEncoder encoder;
  EmbeddingService service;
  RpcServer server;
};

// ---------- wire format ----------

TEST(WireTest, HeaderLayoutIsStable) {
  static_assert(sizeof(FrameHeader) == 24);
  FrameHeader header;
  EXPECT_EQ(header.magic, kFrameMagic);
  EXPECT_EQ(header.version, kProtocolVersion);
}

TEST(WireTest, LookupRequestRoundTrip) {
  std::vector<uint8_t> payload;
  EncodeLookupRequest(payload, 0xdeadbeefcafe1234ull);
  Result<uint64_t> user = DecodeLookupRequest(payload.data(), payload.size());
  ASSERT_TRUE(user.ok());
  EXPECT_EQ(*user, 0xdeadbeefcafe1234ull);

  // Short and long payloads are both rejected.
  EXPECT_FALSE(DecodeLookupRequest(payload.data(), 7).ok());
  payload.push_back(0);
  EXPECT_FALSE(DecodeLookupRequest(payload.data(), payload.size()).ok());
}

TEST(WireTest, FoldInRequestRoundTrip) {
  core::RawUserFeatures features = {
      {{101, 1.0f}, {202, 0.5f}}, {}, {{303, 2.0f}}};
  std::vector<uint8_t> payload;
  EncodeFoldInRequest(payload, 42, features);
  Result<FoldInRequest> decoded =
      DecodeFoldInRequest(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->user_id, 42u);
  ASSERT_EQ(decoded->features.size(), features.size());
  for (size_t f = 0; f < features.size(); ++f) {
    ASSERT_EQ(decoded->features[f].size(), features[f].size());
    for (size_t i = 0; i < features[f].size(); ++i) {
      EXPECT_EQ(decoded->features[f][i].id, features[f][i].id);
      EXPECT_FLOAT_EQ(decoded->features[f][i].value, features[f][i].value);
    }
  }
}

TEST(WireTest, FoldInRequestRejectsAbsurdCounts) {
  // Claim 2^31 fields with a 12-byte body: must reject before allocating.
  std::vector<uint8_t> payload;
  const uint64_t user = 1;
  const uint32_t fields = 1u << 31;
  payload.resize(sizeof(user) + sizeof(fields));
  std::memcpy(payload.data(), &user, sizeof(user));
  std::memcpy(payload.data() + sizeof(user), &fields, sizeof(fields));
  EXPECT_FALSE(DecodeFoldInRequest(payload.data(), payload.size()).ok());
}

TEST(WireTest, EmbeddingResponseRoundTrip) {
  const std::vector<float> embedding = {1.5f, -2.25f, 0.0f, 7.0f};
  std::vector<uint8_t> payload;
  EncodeEmbeddingResponse(payload, embedding);
  Result<std::vector<float>> decoded =
      DecodeEmbeddingResponse(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, embedding);
}

std::vector<uint8_t> BuildFrame(Verb verb, uint64_t tag,
                                const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> bytes;
  AppendFrame(bytes, verb, WireStatus::kOk, 0, tag, payload.data(),
              payload.size());
  return bytes;
}

TEST(FrameParserTest, ParsesFrameFedBytewise) {
  std::vector<uint8_t> payload;
  EncodeLookupRequest(payload, 77);
  const std::vector<uint8_t> bytes = BuildFrame(Verb::kLookup, 9, payload);

  FrameParser parser;
  for (size_t i = 0; i < bytes.size(); ++i) {
    // Truncated at every offset: incomplete, never an error.
    Result<Frame> frame = parser.Next();
    ASSERT_FALSE(frame.ok());
    ASSERT_EQ(frame.status().code(), StatusCode::kUnavailable)
        << "offset " << i << ": " << frame.status().ToString();
    parser.Feed(&bytes[i], 1);
  }
  Result<Frame> frame = parser.Next();
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->header.tag, 9u);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(FrameParserTest, RejectsBitFlippedCrc) {
  std::vector<uint8_t> payload;
  EncodeLookupRequest(payload, 77);
  // Flip one bit in each payload byte position in turn; every variant must
  // fail CRC validation.
  for (size_t i = 0; i < payload.size(); ++i) {
    std::vector<uint8_t> bytes = BuildFrame(Verb::kLookup, 1, payload);
    bytes[kHeaderBytes + i] ^= 0x10;
    FrameParser parser;
    parser.Feed(bytes.data(), bytes.size());
    Result<Frame> frame = parser.Next();
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kIoError) << "byte " << i;
  }
}

TEST(FrameParserTest, RejectsBadMagicAndVersion) {
  std::vector<uint8_t> bytes = BuildFrame(Verb::kHealth, 1, {});
  bytes[0] ^= 0xff;  // magic
  FrameParser parser;
  parser.Feed(bytes.data(), bytes.size());
  EXPECT_EQ(parser.Next().status().code(), StatusCode::kInvalidArgument);

  // Version 1 (the retired untraced protocol, with or without a trace
  // prefix behind the flag) and a future version are both refused.
  std::vector<uint8_t> lookup;
  EncodeLookupRequest(lookup, 77);
  const obs::TraceContext trace{1, 2};
  std::vector<uint8_t> traced;
  AppendFrame(traced, Verb::kLookup, WireStatus::kOk, 0, 9, lookup.data(),
              lookup.size(), kProtocolVersion, &trace);
  for (std::vector<uint8_t> frame :
       {BuildFrame(Verb::kHealth, 1, {}), BuildFrame(Verb::kLookup, 5, lookup),
        traced}) {
    for (const uint8_t version : {uint8_t{1}, uint8_t{99}}) {
      frame[4] = version;
      FrameParser versioned;
      versioned.Feed(frame.data(), frame.size());
      EXPECT_EQ(versioned.Next().status().code(),
                StatusCode::kInvalidArgument)
          << "version " << int(version);
    }
  }
}

TEST(FrameParserTest, RejectsOversizedLengthPrefix) {
  std::vector<uint8_t> bytes = BuildFrame(Verb::kHealth, 1, {});
  const uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(bytes.data() + 16, &huge, sizeof(huge));  // length field
  FrameParser parser;
  parser.Feed(bytes.data(), bytes.size());
  // Rejected from the header alone — no waiting for 16 MiB that will never
  // arrive, no allocation.
  EXPECT_EQ(parser.Next().status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameParserTest, ParsesPipelinedFrames) {
  std::vector<uint8_t> stream;
  for (uint64_t tag = 1; tag <= 5; ++tag) {
    std::vector<uint8_t> payload;
    EncodeLookupRequest(payload, tag * 100);
    AppendFrame(stream, Verb::kLookup, WireStatus::kOk, 0, tag,
                payload.data(), payload.size());
  }
  FrameParser parser;
  parser.Feed(stream.data(), stream.size());
  for (uint64_t tag = 1; tag <= 5; ++tag) {
    Result<Frame> frame = parser.Next();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->header.tag, tag);
  }
  EXPECT_EQ(parser.Next().status().code(), StatusCode::kUnavailable);
}

// ---------- trace-context compatibility ----------

std::vector<uint8_t> BuildTracedFrame(Verb verb, uint64_t tag,
                                      const std::vector<uint8_t>& payload,
                                      const obs::TraceContext& trace) {
  std::vector<uint8_t> bytes;
  AppendFrame(bytes, verb, WireStatus::kOk, 0, tag, payload.data(),
              payload.size(), kProtocolVersion, &trace);
  return bytes;
}

TEST(TraceContextTest, PrefixRoundTripsAndStripsClean) {
  std::vector<uint8_t> payload;
  EncodeLookupRequest(payload, 77);
  const obs::TraceContext trace{0xdeadbeefcafe1234ull, 0x42ull};
  const std::vector<uint8_t> bytes =
      BuildTracedFrame(Verb::kLookup, 9, payload, trace);

  FrameParser parser;
  parser.Feed(bytes.data(), bytes.size());
  Result<Frame> frame = parser.Next();
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->header.flags & kFlagTraceContext, kFlagTraceContext);
  EXPECT_EQ(frame->payload.size(), payload.size() + kTraceContextBytes);

  Result<obs::TraceContext> extracted = ExtractTraceContext(&*frame);
  ASSERT_TRUE(extracted.ok());
  EXPECT_EQ(extracted->trace_id, trace.trace_id);
  EXPECT_EQ(extracted->span_id, trace.span_id);
  // The prefix is gone, the flag is cleared, and the body is byte-identical
  // to what the sender encoded.
  EXPECT_EQ(frame->payload, payload);
  EXPECT_EQ(frame->header.flags & kFlagTraceContext, 0);

  // Extraction on an unflagged frame is the identity: {0,0}, untouched.
  extracted = ExtractTraceContext(&*frame);
  ASSERT_TRUE(extracted.ok());
  EXPECT_FALSE(extracted->valid());
  EXPECT_EQ(frame->payload, payload);
}

TEST(TraceContextTest, FlaggedFrameTooShortForPrefixIsRejected) {
  // Set the trace bit on a frame whose payload cannot hold the 16-byte
  // prefix. flags live at header offset 7 and are outside the CRC region.
  std::vector<uint8_t> bytes = BuildFrame(Verb::kHealth, 1, {});
  bytes[7] |= kFlagTraceContext;
  FrameParser parser;
  parser.Feed(bytes.data(), bytes.size());
  EXPECT_EQ(parser.Next().status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceContextTest, TracedFrameParsesFedBytewise) {
  std::vector<uint8_t> payload;
  EncodeLookupRequest(payload, 42);
  const std::vector<uint8_t> bytes =
      BuildTracedFrame(Verb::kLookup, 3, payload, {7, 8});

  FrameParser parser;
  for (size_t i = 0; i < bytes.size(); ++i) {
    // Truncation at every offset of the extended frame — header, prefix,
    // body — is incomplete, never an error.
    Result<Frame> frame = parser.Next();
    ASSERT_FALSE(frame.ok());
    ASSERT_EQ(frame.status().code(), StatusCode::kUnavailable)
        << "offset " << i << ": " << frame.status().ToString();
    parser.Feed(&bytes[i], 1);
  }
  Result<Frame> frame = parser.Next();
  ASSERT_TRUE(frame.ok());
  Result<obs::TraceContext> extracted = ExtractTraceContext(&*frame);
  ASSERT_TRUE(extracted.ok());
  EXPECT_EQ(extracted->trace_id, 7u);
  EXPECT_EQ(extracted->span_id, 8u);
}

TEST(TraceContextTest, BitFlippedTraceBytesFailCrc) {
  // The CRC covers the trace prefix: corruption in any of its 16 bytes is
  // caught before the context can mis-stitch two unrelated traces.
  std::vector<uint8_t> payload;
  EncodeLookupRequest(payload, 77);
  for (size_t i = 0; i < kTraceContextBytes; ++i) {
    std::vector<uint8_t> bytes =
        BuildTracedFrame(Verb::kLookup, 1, payload, {0xabcd, 0xef01});
    bytes[kHeaderBytes + i] ^= 0x10;
    FrameParser parser;
    parser.Feed(bytes.data(), bytes.size());
    Result<Frame> frame = parser.Next();
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kIoError)
        << "prefix byte " << i;
  }
}

TEST(TraceContextTest, IntrospectRequestRoundTrip) {
  for (IntrospectFormat format :
       {IntrospectFormat::kJson, IntrospectFormat::kPrometheus}) {
    std::vector<uint8_t> payload;
    EncodeIntrospectRequest(payload, format);
    Result<IntrospectFormat> decoded =
        DecodeIntrospectRequest(payload.data(), payload.size());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, format);
  }
  EXPECT_FALSE(DecodeIntrospectRequest(nullptr, 0).ok());
}

// ---------- timer wheel ----------

TEST(TimerWheelTest, FiresInOrderAndHonorsCancel) {
  TimerWheel wheel(/*tick_micros=*/1000, /*num_slots=*/8);
  std::vector<int> fired;
  wheel.Schedule(0, 3000, [&] { fired.push_back(3); });
  const auto cancel_me = wheel.Schedule(0, 5000, [&] { fired.push_back(5); });
  wheel.Schedule(0, 9000, [&] { fired.push_back(9); });  // > one rotation
  EXPECT_EQ(wheel.pending(), 3u);

  wheel.Cancel(cancel_me);
  EXPECT_EQ(wheel.pending(), 2u);

  wheel.Advance(4000);
  EXPECT_EQ(fired, std::vector<int>({3}));
  wheel.Advance(8000);
  EXPECT_EQ(fired, std::vector<int>({3}));  // 9 ms timer not due yet
  wheel.Advance(10000);
  EXPECT_EQ(fired, std::vector<int>({3, 9}));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, CallbackMayReschedule) {
  TimerWheel wheel(1000, 8);
  int count = 0;
  std::function<void()> rearm = [&] {
    ++count;
    if (count < 3) wheel.Schedule(count * 2000, 2000, rearm);
  };
  wheel.Schedule(0, 2000, rearm);
  for (int64_t t = 1000; t <= 10000; t += 1000) wheel.Advance(t);
  EXPECT_EQ(count, 3);
}

// ---------- fd helpers ----------

TEST(FdTest, MoveSemanticsAndRelease) {
  Result<Fd> listener = TcpListen(0);
  ASSERT_TRUE(listener.ok());
  const int raw = listener->get();
  Fd moved = std::move(*listener);
  EXPECT_EQ(moved.get(), raw);
  EXPECT_FALSE(listener->valid());  // NOLINT(bugprone-use-after-move)
  const int released = moved.Release();
  EXPECT_EQ(released, raw);
  EXPECT_FALSE(moved.valid());
  Fd adopted(released);  // Re-own so the descriptor still closes.
}

TEST(FdTest, EndpointParsing) {
  ASSERT_TRUE(EndpointPort("127.0.0.1:8080").ok());
  EXPECT_EQ(*EndpointPort("127.0.0.1:8080"), 8080);
  EXPECT_FALSE(EndpointPort("10.0.0.1:8080").ok());
  EXPECT_FALSE(EndpointPort("127.0.0.1").ok());
  EXPECT_FALSE(EndpointPort("127.0.0.1:notaport").ok());
  EXPECT_FALSE(EndpointPort("127.0.0.1:99999").ok());
}

TEST(FdTest, ConnectToClosedPortFails) {
  // Grab an ephemeral port, close the listener, then dial it.
  uint16_t port = 0;
  {
    Result<Fd> listener = TcpListen(0);
    ASSERT_TRUE(listener.ok());
    Result<uint16_t> local = LocalPort(listener->get());
    ASSERT_TRUE(local.ok());
    port = *local;
  }
  EXPECT_FALSE(TcpConnect(port, 200).ok());
}

// ---------- epoll loop ----------

TEST(EpollLoopTest, PostRunsTasksOnLoopThread) {
  EpollLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  std::atomic<int> ran{0};
  std::atomic<bool> in_loop_thread{false};
  std::thread runner([&] { loop.Run(); });
  loop.Post([&] {
    in_loop_thread.store(loop.InLoopThread());
    ran.fetch_add(1);
  });
  for (int i = 0; i < 500 && ran.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop.Stop();
  runner.join();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_TRUE(in_loop_thread.load());
}

TEST(EpollLoopTest, TimerFires) {
  EpollLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  std::atomic<bool> fired{false};
  std::thread runner([&] { loop.Run(); });
  loop.Post([&] {
    loop.ScheduleTimer(20'000, [&] { fired.store(true); });
  });
  for (int i = 0; i < 1000 && !fired.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop.Stop();
  runner.join();
  EXPECT_TRUE(fired.load());
}

// ---------- RPC server end-to-end ----------

TEST(RpcServerTest, HealthLookupFoldInStats) {
  TestServer ts(/*dim=*/4);

  Result<std::unique_ptr<RpcChannel>> channel =
      RpcChannel::Connect(ts.endpoint());
  ASSERT_TRUE(channel.ok());
  RpcChannel& rpc = **channel;

  EXPECT_TRUE(rpc.Health().ok());

  // Cold user: fold-in encodes and materializes.
  Result<std::vector<float>> encoded = rpc.EncodeFoldIn(7, RawUser(123));
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  ASSERT_EQ(encoded->size(), 4u);
  EXPECT_EQ(*encoded, ts.Reference(RawUser(123)));

  // Now hot: lookup serves from the store.
  Result<std::vector<float>> looked_up = rpc.Lookup(7);
  ASSERT_TRUE(looked_up.ok());
  EXPECT_EQ(*looked_up, *encoded);

  // Unknown user: wire-level NotFound maps back to a Status.
  Result<std::vector<float>> missing = rpc.Lookup(999);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  Result<std::string> stats = rpc.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"serving\""), std::string::npos);
  EXPECT_NE(stats->find("\"frames_rx\""), std::string::npos);

  EXPECT_GE(ts.server.metrics().frames_rx.Value(), 5u);
  EXPECT_GE(ts.server.metrics().frames_tx.Value(), 5u);
  // The server records latency just after queueing a response, so the last
  // sample can land a beat after the client read the reply.
  for (int i = 0;
       i < 1000 && ts.server.metrics().request_latency_us().Count() < 5u;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(ts.server.metrics().request_latency_us().Count(), 5u);
}

TEST(RpcServerTest, MalformedBytesCloseConnection) {
  TestServer ts;
  for (int variant = 0; variant < 4; ++variant) {
    Result<Fd> conn = TcpConnect(ts.server.port());
    ASSERT_TRUE(conn.ok());
    std::vector<uint8_t> bytes = BuildFrame(Verb::kHealth, 1, {});
    switch (variant) {
      case 0:
        bytes[0] ^= 0xff;  // bad magic
        break;
      case 1: {
        const uint32_t huge = kMaxPayloadBytes + 1;  // hostile length
        std::memcpy(bytes.data() + 16, &huge, sizeof(huge));
        break;
      }
      case 2: {
        // CRC flip needs a non-empty payload.
        std::vector<uint8_t> payload;
        EncodeLookupRequest(payload, 1);
        bytes = BuildFrame(Verb::kLookup, 1, payload);
        bytes[kHeaderBytes] ^= 0x01;
        break;
      }
      case 3:
        bytes[4] = 1;  // a retired v1 frame
        break;
    }
    ASSERT_TRUE(SendAll(conn->get(), bytes.data(), bytes.size()).ok());
    // Server must close on us (recv sees EOF) rather than answer.
    const Status readable =
        WaitReadable(conn->get(), MonotonicMicros() + 2'000'000);
    ASSERT_TRUE(readable.ok()) << "server did not react to garbage";
    char buffer[64];
    EXPECT_EQ(::recv(conn->get(), buffer, sizeof(buffer), 0), 0)
        << "expected EOF, got data (variant " << variant << ")";
  }
  EXPECT_GE(ts.server.metrics().protocol_errors.Value(), 4u);
  // No leaked connections: the open-connection gauge returns to zero.
  for (int i = 0; i < 2000 && ts.server.metrics().open_connections() != 0.0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ts.server.metrics().open_connections(), 0.0);
  EXPECT_EQ(ts.server.metrics().connections_accepted.Value(),
            ts.server.metrics().connections_closed.Value());
}

TEST(RpcServerTest, SlowLorisIsKicked) {
  RpcServerOptions options;
  options.frame_assembly_timeout_micros = 150'000;
  TestServer ts(4, options);

  Result<Fd> conn = TcpConnect(ts.server.port());
  ASSERT_TRUE(conn.ok());
  const std::vector<uint8_t> bytes = BuildFrame(Verb::kHealth, 1, {});
  // Dribble one byte per poll interval; each byte arrives "fresh", but the
  // frame never completes — the assembly clock must kick the connection
  // anyway.
  Status send_status = Status::Ok();
  for (size_t i = 0; i < bytes.size() - 1 && send_status.ok(); ++i) {
    send_status = SendAll(conn->get(), &bytes[i], 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  // Either the dribble already hit a closed socket, or the next read sees
  // EOF within the watchdog budget.
  if (send_status.ok()) {
    const Status readable =
        WaitReadable(conn->get(), MonotonicMicros() + 2'000'000);
    ASSERT_TRUE(readable.ok()) << "slow-loris connection never kicked";
    char buffer[16];
    EXPECT_EQ(::recv(conn->get(), buffer, sizeof(buffer), 0), 0);
  }
  EXPECT_GE(ts.server.metrics().idle_timeouts.Value(), 1u);
}

TEST(RpcServerTest, BackpressurePausesReadsAndRecovers) {
  RpcServerOptions options;
  options.write_buffer_high_watermark = 1;  // any pending byte pauses reads
  TestServer ts(/*dim=*/4096, options);

  // Materialize one hot user with a fat embedding (~16 KiB per response).
  Result<std::unique_ptr<RpcChannel>> warm =
      RpcChannel::Connect(ts.endpoint());
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE((*warm)->EncodeFoldIn(1, RawUser(5)).ok());
  const std::vector<float> expected = ts.Reference(RawUser(5));

  Result<std::unique_ptr<RpcChannel>> channel =
      RpcChannel::Connect(ts.endpoint());
  ASSERT_TRUE(channel.ok());
  RpcChannel& rpc = **channel;

  // Pipeline a few thousand lookups without reading a single response:
  // ~64 MiB of responses exceed even generously auto-tuned kernel socket
  // buffers (tcp_rmem max is 32 MiB on some hosts), so the server's write
  // queue grows past the watermark and its read side must pause.
  constexpr int kRequests = 4000;
  std::vector<uint8_t> payload;
  EncodeLookupRequest(payload, 1);
  std::vector<uint64_t> tags;
  tags.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    Result<uint64_t> tag = rpc.SendRequest(Verb::kLookup, payload);
    ASSERT_TRUE(tag.ok()) << "request " << i;
    tags.push_back(*tag);
  }
  // Read nothing until the server has paused: a client that starts
  // draining while a loaded server is still working through the requests
  // can keep the socket buffers from ever filling.
  for (int i = 0;
       i < 10000 && ts.server.metrics().backpressure_pauses.Value() == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Now drain: every response must arrive, in order, intact.
  for (int i = 0; i < kRequests; ++i) {
    Result<Frame> frame =
        rpc.ReadResponse(tags[i], MonotonicMicros() + 10'000'000);
    ASSERT_TRUE(frame.ok()) << "response " << i << ": "
                            << frame.status().ToString();
    Result<std::vector<float>> embedding =
        DecodeEmbeddingResponse(frame->payload.data(), frame->payload.size());
    ASSERT_TRUE(embedding.ok());
    ASSERT_EQ(embedding->size(), 4096u);
    EXPECT_EQ((*embedding)[0], expected[0]);
  }
  EXPECT_GE(ts.server.metrics().backpressure_pauses.Value(), 1u);
}

TEST(RpcServerTest, GracefulDrainFlushesPendingReplies) {
  // Reads never pause here, so the server takes in every request while
  // its replies (~16 KiB each, ~32 MiB in all) pile up in the write buffer
  // of a client that is not reading yet.
  RpcServerOptions options;
  options.write_buffer_high_watermark = size_t(1) << 30;
  // Far beyond the flush time even under a sanitizer: the drain must end
  // because the replies went out, not because the budget ran out.
  options.drain_timeout_micros = 60'000'000;
  TestServer ts(/*dim=*/4096, options);

  Result<std::unique_ptr<RpcChannel>> channel =
      RpcChannel::Connect(ts.endpoint());
  ASSERT_TRUE(channel.ok());
  RpcChannel& rpc = **channel;
  ASSERT_TRUE(rpc.EncodeFoldIn(1, RawUser(5)).ok());
  const std::vector<float> expected = ts.Reference(RawUser(5));

  constexpr int kRequests = 2000;
  std::vector<uint8_t> payload;
  EncodeLookupRequest(payload, 1);
  std::vector<uint64_t> tags;
  tags.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    Result<uint64_t> tag = rpc.SendRequest(Verb::kLookup, payload);
    ASSERT_TRUE(tag.ok()) << "request " << i;
    tags.push_back(*tag);
  }
  // Every request answered (in the write buffer or the socket) before the
  // drain starts, so Stop() races replies that are still pending.
  for (int i = 0; i < 10000 && ts.server.metrics().frames_tx.Value() <
                                   uint64_t(kRequests) + 1;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(ts.server.metrics().frames_tx.Value(), uint64_t(kRequests) + 1);

  std::thread stopper([&] { ts.server.Stop(); });
  for (int i = 0; i < kRequests; ++i) {
    Result<Frame> frame =
        rpc.ReadResponse(tags[i], MonotonicMicros() + 10'000'000);
    ASSERT_TRUE(frame.ok()) << "response " << i << ": "
                            << frame.status().ToString();
    Result<std::vector<float>> embedding =
        DecodeEmbeddingResponse(frame->payload.data(), frame->payload.size());
    ASSERT_TRUE(embedding.ok());
    ASSERT_EQ(embedding->size(), 4096u);
    EXPECT_EQ((*embedding)[0], expected[0]);
  }
  stopper.join();
}

TEST(RpcServerTest, ConcurrentClientsUnderLoad) {
  RpcServerOptions options;
  options.num_workers = 3;
  TestServer ts(/*dim=*/8, options);

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Result<std::unique_ptr<RpcChannel>> channel =
          RpcChannel::Connect(ts.endpoint());
      if (!channel.ok()) {
        failures.fetch_add(kCallsPerThread);
        return;
      }
      RpcChannel& rpc = **channel;
      for (int i = 0; i < kCallsPerThread; ++i) {
        const uint64_t user = uint64_t(t) * 1000 + i;
        Result<std::vector<float>> encoded =
            rpc.EncodeFoldIn(user, RawUser(user + 1));
        if (!encoded.ok() || *encoded != ts.Reference(RawUser(user + 1))) {
          failures.fetch_add(1);
          continue;
        }
        Result<std::vector<float>> looked_up = rpc.Lookup(user);
        if (!looked_up.ok() || *looked_up != *encoded) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(ts.server.metrics().frames_rx.Value(),
            uint64_t(kThreads) * kCallsPerThread * 2);
}

// ---------- shard router ----------

TEST(ShardRouterTest, ConsistentHashingCoversAllShards) {
  // Ring-only properties need no live servers: health checks off, no calls
  // issued.
  ShardRouterOptions options;
  options.enable_health_checks = false;
  ShardRouterClient router(
      {"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}, options);

  std::vector<int> per_shard(3, 0);
  for (uint64_t user = 0; user < 3000; ++user) {
    const size_t owner = router.OwnerOf(user);
    ASSERT_LT(owner, 3u);
    per_shard[owner]++;
    EXPECT_EQ(router.OwnerOf(user), owner);  // deterministic
    const std::vector<size_t> candidates = router.CandidatesFor(user);
    ASSERT_EQ(candidates.size(), 3u);
    EXPECT_EQ(candidates[0], owner);
    EXPECT_NE(candidates[1], candidates[2]);
  }
  // Virtual nodes keep the split roughly even; allow a generous band.
  for (int count : per_shard) {
    EXPECT_GT(count, 3000 / 3 / 2) << "badly skewed ring";
  }
}

TEST(ShardRouterTest, RoutedFoldInAndLookup) {
  TestServer a(4), b(4), c(4);
  ShardRouterOptions options;
  options.enable_health_checks = false;
  options.enable_hedging = false;
  ShardRouterClient router({a.endpoint(), b.endpoint(), c.endpoint()},
                           options);

  constexpr uint64_t kUsers = 60;
  for (uint64_t user = 0; user < kUsers; ++user) {
    Result<std::vector<float>> encoded =
        router.EncodeFoldIn(user, RawUser(user + 7));
    ASSERT_TRUE(encoded.ok()) << user << ": " << encoded.status().ToString();
    EXPECT_EQ(*encoded, a.Reference(RawUser(user + 7)));
  }
  for (uint64_t user = 0; user < kUsers; ++user) {
    Result<std::vector<float>> looked_up = router.Lookup(user);
    ASSERT_TRUE(looked_up.ok()) << user;
    EXPECT_EQ(*looked_up, a.Reference(RawUser(user + 7)));
  }
  // Per-shard accounting saw every request exactly once (no hedges, no
  // failovers).
  uint64_t total = 0;
  for (size_t shard = 0; shard < router.num_shards(); ++shard) {
    total += router.metrics().shard_requests(shard).Value();
  }
  EXPECT_EQ(total, kUsers * 2);
  EXPECT_EQ(router.metrics().hedges.Value(), 0u);
  EXPECT_EQ(router.metrics().failovers.Value(), 0u);
  EXPECT_EQ(router.metrics().failures.Value(), 0u);
  EXPECT_EQ(router.metrics().call_latency_us().Count(), kUsers * 2);
}

TEST(ShardRouterTest, FailoverKeepsSurvivingShardKeysAt100Percent) {
  auto a = std::make_unique<TestServer>(4);
  auto b = std::make_unique<TestServer>(4);
  ShardRouterOptions options;
  options.enable_health_checks = false;
  options.enable_hedging = false;
  options.connect_timeout_ms = 200;
  options.breaker_failure_threshold = 2;
  options.breaker_open_micros = 60'000'000;  // hold open for the whole test
  ShardRouterClient router({a->endpoint(), b->endpoint()}, options);

  // Fold users into their owning shards.
  const std::unique_ptr<core::FieldVae> model = MakeFoldInModel(4);
  const FvaeFoldInEncoder reference(model.get());
  std::vector<uint64_t> on_a, on_b;
  for (uint64_t user = 0; user < 40; ++user) {
    (router.OwnerOf(user) == 0 ? on_a : on_b).push_back(user);
    ASSERT_TRUE(router.EncodeFoldIn(user, RawUser(user + 1)).ok()) << user;
  }
  ASSERT_FALSE(on_a.empty());
  ASSERT_FALSE(on_b.empty());

  // Kill shard 0: connections die and the port stops answering.
  a.reset();

  // Every key owned by the surviving shard keeps succeeding — 100%.
  for (uint64_t user : on_b) {
    Result<std::vector<float>> looked_up = router.Lookup(user);
    ASSERT_TRUE(looked_up.ok())
        << "lost key " << user << " on surviving shard: "
        << looked_up.status().ToString();
    EXPECT_EQ(*looked_up, reference.Encode(RawUser(user + 1)));
  }
  // Keys owned by the dead shard fail over to the survivor, which answers
  // NotFound (alive, but the embedding lived on the dead shard) — that is
  // successful transport, not a routing failure.
  for (uint64_t user : on_a) {
    Result<std::vector<float>> looked_up = router.Lookup(user);
    ASSERT_FALSE(looked_up.ok()) << user;
    EXPECT_EQ(looked_up.status().code(), StatusCode::kNotFound) << user;
  }
  EXPECT_GE(router.metrics().failovers.Value(), 1u);
  EXPECT_GE(router.metrics().breaker_trips.Value(), 1u);
  EXPECT_TRUE(router.BreakerOpen(0));
  EXPECT_FALSE(router.BreakerOpen(1));
}

TEST(ShardRouterTest, HedgedRetryFiresOnSlowShard) {
  // Shard 0 accepts connections (the kernel completes the handshake into
  // the listen backlog) but never answers; the router hedges after ~2 ms
  // to shard 1, whose reply must win.
  Result<Fd> silent = TcpListen(0);
  ASSERT_TRUE(silent.ok());
  Result<uint16_t> silent_port = LocalPort(silent->get());
  ASSERT_TRUE(silent_port.ok());
  TestServer live(4);

  ShardRouterOptions options;
  options.enable_health_checks = false;
  options.enable_hedging = true;
  options.hedge_min_samples = 0;  // trust the (empty) histogram right away
  options.hedge_min_delay_micros = 2'000;
  options.hedge_max_delay_micros = 2'000;
  options.call_deadline_micros = 5'000'000;
  ShardRouterClient router({Endpoint(*silent_port), live.endpoint()},
                           options);
  uint64_t user = 0;
  while (router.OwnerOf(user) != 0) ++user;

  Result<std::vector<float>> encoded = router.EncodeFoldIn(user, RawUser(9));
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  EXPECT_EQ(*encoded, live.Reference(RawUser(9)));
  EXPECT_GE(router.metrics().hedges.Value(), 1u);
  EXPECT_GE(router.metrics().hedge_wins.Value(), 1u);
}

TEST(ShardRouterTest, HealthProbesCloseBreaker) {
  TestServer a(4);
  ShardRouterOptions options;
  options.enable_health_checks = true;
  options.health_period_micros = 20'000;
  options.enable_hedging = false;
  ShardRouterClient router({a.endpoint()}, options);
  for (int i = 0; i < 2000 && router.metrics().health_probes.Value() < 3;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(router.metrics().health_probes.Value(), 3u);
  EXPECT_EQ(router.metrics().health_failures.Value(), 0u);
  EXPECT_FALSE(router.BreakerOpen(0));
}

// ---------- channel ----------

TEST(RpcChannelTest, FirstRequestOnAFreshChannelIsTraced) {
  Result<Fd> listener = TcpListen(0);
  ASSERT_TRUE(listener.ok());
  Result<uint16_t> port = LocalPort(listener->get());
  ASSERT_TRUE(port.ok());
  const obs::TraceContext trace{0x1234abcdull, 0x99ull};
  const int64_t deadline = MonotonicMicros() + 5'000'000;

  Status lookup = Status::Ok();
  std::thread client([&] {
    Result<std::unique_ptr<RpcChannel>> channel =
        RpcChannel::Connect(Endpoint(*port));
    if (!channel.ok()) {
      lookup = channel.status();
      return;
    }
    obs::ScopedTraceContext scope(trace);
    lookup = (*channel)->Lookup(7, deadline).status();
  });

  // A raw listener plays the server: read the very first frame off the
  // wire, answer it, and only then inspect it (after the client is done).
  const auto first_frame = [&]() -> Result<Frame> {
    FVAE_RETURN_IF_ERROR(WaitReadable(listener->get(), deadline));
    FVAE_ASSIGN_OR_RETURN(Fd conn, Accept(*listener));
    FrameParser parser;
    Result<Frame> frame = parser.Next();
    while (!frame.ok() && frame.status().code() == StatusCode::kUnavailable) {
      uint8_t byte = 0;
      FVAE_RETURN_IF_ERROR(RecvAll(conn.get(), &byte, 1, deadline));
      parser.Feed(&byte, 1);
      frame = parser.Next();
    }
    FVAE_RETURN_IF_ERROR(frame.status());
    std::vector<uint8_t> embedding;
    EncodeEmbeddingResponse(embedding, {1.0f, 2.0f});
    std::vector<uint8_t> reply;
    AppendFrame(reply, Verb::kLookup, WireStatus::kOk, kFlagResponse,
                frame->header.tag, embedding.data(), embedding.size());
    FVAE_RETURN_IF_ERROR(SendAll(conn.get(), reply.data(), reply.size()));
    return frame;
  };
  Result<Frame> frame = first_frame();
  client.join();

  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_TRUE(lookup.ok()) << lookup.ToString();
  EXPECT_EQ(int(frame->header.version), 2);
  EXPECT_EQ(frame->header.flags & kFlagTraceContext, kFlagTraceContext);
  Result<obs::TraceContext> extracted = ExtractTraceContext(&*frame);
  ASSERT_TRUE(extracted.ok());
  EXPECT_EQ(extracted->trace_id, trace.trace_id);
  EXPECT_EQ(extracted->span_id, trace.span_id);
  Result<uint64_t> user =
      DecodeLookupRequest(frame->payload.data(), frame->payload.size());
  ASSERT_TRUE(user.ok());
  EXPECT_EQ(*user, 7u);
}

// ---------- channel pool ----------

TEST(ChannelPoolTest, ReusesReleasedChannels) {
  TestServer ts;
  ChannelPool pool(ts.endpoint());
  Result<std::unique_ptr<RpcChannel>> first = pool.Acquire();
  ASSERT_TRUE(first.ok());
  RpcChannel* raw = first->get();
  ASSERT_TRUE((*first)->Health().ok());
  pool.Release(std::move(*first));
  EXPECT_EQ(pool.idle(), 1u);
  Result<std::unique_ptr<RpcChannel>> second = pool.Acquire();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->get(), raw);  // the same channel came back
  EXPECT_EQ(pool.idle(), 0u);
}

}  // namespace
}  // namespace fvae::net
