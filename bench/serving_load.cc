// Serving-load benchmark: closed-loop multi-threaded load against the
// online EmbeddingService, whose cold users fold in inline on the calling
// thread.
//
// Two in-process phases:
//   cold  — every request asks for a never-seen user (features drawn from
//           a cold-user pool), so each one is a fold-in, isolating encoder
//           throughput;
//   mixed — 85% hot store lookups / 15% fold-ins, measuring the
//           reader-concurrent sharded store under realistic traffic.
//
// With --net, a third phase measures the same service behind the epoll RPC
// front-end over loopback sockets: direct (one server, one channel per
// client thread) and routed (three replicas behind a ShardRouterClient).
// The routed topology then drives traced fold-in requests and joins client
// and server spans on trace_id into a per-hop latency breakdown —
// encode vs server envelope vs wire — reported under "net_loopback"."hops".
//
// Regenerate the committed results from the repo root with
//   FVAE_BENCH_SCALE=small ./build/bench/serving_load --net
// which writes bench_results/serving_load.txt (human-readable) and
// BENCH_serving.json + bench_results/BENCH_serving.json (machine-readable).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "core/fvae_model.h"
#include "math/kernels/kernel_table.h"
#include "core/trainer.h"
#include "net/rpc_client.h"
#include "net/rpc_server.h"
#include "net/shard_router.h"
#include "obs/trace.h"
#include "serving/embedding_service.h"
#include "serving/fold_in.h"
#include "serving/load_gen.h"

namespace fvae::bench {
namespace {

struct PhaseResult {
  serving::LoadGenReport cold;
  serving::LoadGenReport mixed;
  std::string telemetry_json;
};

PhaseResult RunInProcess(const core::FieldVae& model,
                         const MultiFieldDataset& dataset,
                         std::span<const uint32_t> hot_ids,
                         std::span<const uint32_t> cold_ids,
                         size_t num_threads, size_t cold_requests_per_thread,
                         size_t mixed_requests_per_thread) {
  serving::FvaeFoldInEncoder encoder(&model);
  serving::EmbeddingServiceOptions options;
  options.num_shards = 16;
  serving::EmbeddingService service(
      serving::MaterializeEmbeddings(model, dataset, hot_ids,
                                     options.num_shards),
      &encoder, options);

  // Cold phase: every request is a fold-in.
  serving::LoadGenOptions cold_load;
  cold_load.num_threads = num_threads;
  cold_load.requests_per_thread = cold_requests_per_thread;
  cold_load.hot_fraction = 0.0;
  cold_load.seed = 11;
  serving::LoadGenReport cold = serving::RunClosedLoopLoad(
      service, dataset, hot_ids, cold_ids, cold_load);

  // Mixed phase: mostly hot lookups, the rest fold-ins.
  service.telemetry().ResetClock();
  serving::LoadGenOptions mixed_load;
  mixed_load.num_threads = num_threads;
  mixed_load.requests_per_thread = mixed_requests_per_thread;
  mixed_load.hot_fraction = 0.85;
  mixed_load.seed = 33;
  serving::LoadGenReport mixed = serving::RunClosedLoopLoad(
      service, dataset, hot_ids, cold_ids, mixed_load);
  return PhaseResult{std::move(cold), std::move(mixed),
                     service.TelemetryJson()};
}

struct NetPhaseResult {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Single-threaded cold fold-in encode rate (users/s) with whatever ISA
/// the dispatch table currently holds: batches of 8 over `users`' raw
/// features with persistent scratch. Used for the SIMD before/after delta
/// — callers pin the table with ForceIsa around this.
double FoldInEncodeRate(const core::FieldVae& model,
                        const MultiFieldDataset& dataset,
                        std::span<const uint32_t> users, double budget_s) {
  const size_t pool = std::min<size_t>(users.size(), 512);
  std::vector<core::RawUserFeatures> storage;
  storage.reserve(pool);
  std::vector<const core::RawUserFeatures*> raw;
  raw.reserve(pool);
  for (size_t i = 0; i < pool; ++i) {
    storage.push_back(serving::RawFeaturesOf(dataset, users[i]));
    raw.push_back(&storage.back());
  }
  core::FieldVae::FoldInScratch scratch;
  Matrix mu;
  const size_t batch = 8;
  std::span<const core::RawUserFeatures* const> span(raw);
  model.EncodeFoldInInto(span.subspan(0, batch), &scratch, &mu);  // warm
  size_t encoded = 0, cursor = 0;
  Stopwatch watch;
  do {
    if (cursor + batch > pool) cursor = 0;
    model.EncodeFoldInInto(span.subspan(cursor, batch), &scratch, &mu);
    cursor += batch;
    encoded += batch;
  } while (watch.ElapsedSeconds() < budget_s);
  return static_cast<double>(encoded) / watch.ElapsedSeconds();
}

/// Closed-loop lookups of `num_users` keys from `num_threads` clients;
/// `call(thread, user)` performs one RPC. Returns throughput + client-side
/// latency percentiles.
NetPhaseResult DriveLookups(
    size_t num_threads, size_t requests, size_t num_users,
    const std::function<Result<std::vector<float>>(size_t, uint64_t)>& call) {
  LatencyHistogram latency;
  std::atomic<uint64_t> ok{0};
  Stopwatch watch;
  std::vector<std::thread> clients;
  clients.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = t; i < requests; i += num_threads) {
        const int64_t start = MonotonicMicros();
        const Result<std::vector<float>> embedding =
            call(t, uint64_t(i % num_users));
        latency.Record(double(MonotonicMicros() - start));
        if (embedding.ok()) ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const double elapsed = watch.ElapsedSeconds();
  if (ok.load() != requests) {
    std::printf("WARNING: net loopback: %llu/%zu lookups succeeded\n",
                (unsigned long long)ok.load(), requests);
  }
  return {elapsed > 0.0 ? double(requests) / elapsed : 0.0,
          latency.Percentile(50.0), latency.Percentile(99.0)};
}

/// Per-hop latency breakdown assembled from stitched traces: one entry per
/// fully-stitched request (client send span + server reply span sharing a
/// trace_id; the encode span when the request folded in).
struct HopStats {
  size_t traces = 0;
  LatencyHistogram client_send_us;
  LatencyHistogram server_reply_us;
  LatencyHistogram encode_us;
  /// Client-observed send minus server-side envelope: framing + syscalls +
  /// loopback transit + the client's poll wakeup.
  LatencyHistogram wire_us;

  std::string Json() const {
    return "{\"traces\":" + std::to_string(traces) +
           ",\"client_send_us\":" + client_send_us.SummaryJson() +
           ",\"server_reply_us\":" + server_reply_us.SummaryJson() +
           ",\"encode_us\":" + encode_us.SummaryJson() +
           ",\"wire_us\":" + wire_us.SummaryJson() + "}";
  }
};

/// Drives traced fold-in requests through the router (cold users, so the
/// owning replica encodes each one), then joins client and server
/// spans on trace_id. Everything is in-process over loopback, so the one
/// global recorder sees both halves of every trace. Out-param because the
/// histograms are atomic-backed and neither copyable nor movable.
void RunTracedHops(net::ShardRouterClient& router,
                   const MultiFieldDataset& dataset,
                   std::span<const uint32_t> cold_ids, size_t requests,
                   HopStats* stats) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Reset();
  recorder.Enable();
  for (size_t i = 0; i < requests && i < cold_ids.size(); ++i) {
    const uint32_t user = cold_ids[i];
    // Only the recorded spans matter here; per-request errors surface as
    // missing hops in the stitched-trace count.
    (void)router.EncodeFoldIn(user, serving::RawFeaturesOf(dataset, user));
  }
  recorder.Disable();

  std::map<uint64_t, std::vector<obs::TraceEvent>> by_trace;
  for (const obs::TraceEvent& event : recorder.Events()) {
    if (event.trace_id != 0) by_trace[event.trace_id].push_back(event);
  }
  for (const auto& [trace_id, events] : by_trace) {
    double send = 0.0, reply = 0.0, encode = 0.0;
    for (const obs::TraceEvent& event : events) {
      const std::string_view name = event.name;
      const double d = double(event.duration_us);
      // max(): a hedged request has two send arms; the winner dominates.
      if (name == "net.client.send") send = std::max(send, d);
      if (name == "net.server.reply") reply = std::max(reply, d);
      if (name == "serving.fold_in.encode") encode = std::max(encode, d);
    }
    if (send <= 0.0 || reply <= 0.0) continue;  // not fully stitched
    ++stats->traces;
    stats->client_send_us.Record(send);
    stats->server_reply_us.Record(reply);
    if (encode > 0.0) stats->encode_us.Record(encode);
    stats->wire_us.Record(std::max(0.0, send - reply));
  }
  recorder.Reset();
}

struct NetLoopbackResult {
  NetPhaseResult direct_1shard;
  NetPhaseResult routed_3shard;
  HopStats hops;
};

/// Loopback-socket serving: the full wire path (framing, CRC, epoll loops,
/// backpressure) minus real network distance. Direct = each client thread
/// owns one RpcChannel to a single server; routed = all threads share a
/// ShardRouterClient consistent-hashing over three replicas.
void RunNetLoopback(const core::FieldVae& model,
                    const MultiFieldDataset& dataset,
                    std::span<const uint32_t> hot_ids,
                    std::span<const uint32_t> cold_ids, size_t num_threads,
                    size_t requests, NetLoopbackResult* out) {
  serving::EmbeddingServiceOptions options;
  options.num_shards = 16;

  {
    serving::FvaeFoldInEncoder encoder(&model);
    serving::EmbeddingService service(
        serving::MaterializeEmbeddings(model, dataset, hot_ids,
                                       options.num_shards),
        &encoder, options);
    net::RpcServer server(&service, net::RpcServerOptions{});
    FVAE_CHECK(server.Start().ok()) << "loopback server failed to start";
    const std::string endpoint =
        "127.0.0.1:" + std::to_string(server.port());
    std::vector<std::unique_ptr<net::RpcChannel>> channels;
    for (size_t t = 0; t < num_threads; ++t) {
      auto channel = net::RpcChannel::Connect(endpoint);
      FVAE_CHECK(channel.ok()) << channel.status().ToString();
      channels.push_back(std::move(*channel));
    }
    out->direct_1shard = DriveLookups(
        num_threads, requests, hot_ids.size(),
        [&](size_t t, uint64_t user) { return channels[t]->Lookup(user); });
    server.Stop();
  }
  {
    std::vector<std::unique_ptr<serving::FvaeFoldInEncoder>> encoders;
    std::vector<std::unique_ptr<serving::EmbeddingService>> services;
    std::vector<std::unique_ptr<net::RpcServer>> servers;
    std::vector<std::string> endpoints;
    for (size_t shard = 0; shard < 3; ++shard) {
      encoders.push_back(
          std::make_unique<serving::FvaeFoldInEncoder>(&model));
      services.push_back(std::make_unique<serving::EmbeddingService>(
          serving::MaterializeEmbeddings(model, dataset, hot_ids,
                                         options.num_shards),
          encoders.back().get(), options));
      servers.push_back(std::make_unique<net::RpcServer>(
          services.back().get(), net::RpcServerOptions{}));
      FVAE_CHECK(servers.back()->Start().ok())
          << "loopback shard failed to start";
      endpoints.push_back("127.0.0.1:" +
                          std::to_string(servers.back()->port()));
    }
    net::ShardRouterClient router(endpoints);
    out->routed_3shard = DriveLookups(
        num_threads, requests, hot_ids.size(),
        [&](size_t, uint64_t user) { return router.Lookup(user); });
    RunTracedHops(router, dataset, cold_ids,
                  std::min<size_t>(cold_ids.size(), 256), &out->hops);
    for (auto& server : servers) server->Stop();
  }
}

int Main(bool net_loopback) {
  const Scale scale = GetScale();
  PrintBanner("Serving load: inline fold-in under closed-loop load",
              "online module (Fig. 2) under closed-loop concurrent load");

  // Dataset + a briefly trained model (weights need not be converged for a
  // throughput benchmark, but the feature tables must be populated).
  GeneratedProfiles gen = MakeShortContent(scale, /*seed=*/17);
  // Serving-sized encoder: the online module runs a production-width model,
  // so the bench uses wider hidden layers than the sweep defaults.
  core::FvaeConfig config = SweepFvaeConfig(scale, /*seed=*/17);
  config.latent_dim = ByScale<size_t>(scale, 32, 64, 96);
  config.encoder_hidden = {ByScale<size_t>(scale, 256, 512, 768),
                           ByScale<size_t>(scale, 128, 256, 384)};
  config.decoder_hidden = config.encoder_hidden;
  core::FieldVae model(config, gen.dataset.fields());
  core::TrainOptions train_options;
  train_options.batch_size = 256;
  train_options.epochs = 1;
  train_options.time_budget_seconds = ByScale<double>(scale, 1.0, 3.0, 6.0);
  core::TrainFvae(model, gen.dataset, train_options);

  const size_t num_users = gen.dataset.num_users();
  const size_t num_hot = num_users / 2;
  std::vector<uint32_t> hot_ids(num_hot);
  std::iota(hot_ids.begin(), hot_ids.end(), 0u);
  std::vector<uint32_t> cold_ids(num_users - num_hot);
  std::iota(cold_ids.begin(), cold_ids.end(), uint32_t(num_hot));

  // Client threads are an offered-concurrency knob, not a core count.
  const size_t num_threads = 8;
  const size_t cold_requests = ByScale<size_t>(scale, 500, 2000, 5000);
  const size_t mixed_requests = ByScale<size_t>(scale, 1000, 4000, 10000);

  std::printf("dataset: %s\n", gen.dataset.Summary().c_str());
  std::printf("threads: %zu  hot users: %zu  cold feature pool: %zu\n\n",
              num_threads, num_hot, cold_ids.size());

  // SIMD dispatch delta: the identical cold fold-in encode with the kernel
  // table pinned to scalar vs the detected-best ISA — the serving-side
  // before/after of the SIMD kernel layer (BENCH_kernels.json has the
  // per-kernel breakdown).
  const Isa native_isa = ActiveIsa();
  const double simd_budget_s = ByScale<double>(scale, 0.2, 0.5, 1.0);
  FVAE_CHECK(ForceIsa(Isa::kScalar));
  const double simd_scalar_rate =
      FoldInEncodeRate(model, gen.dataset, cold_ids, simd_budget_s);
  FVAE_CHECK(ForceIsa(native_isa));
  const double simd_native_rate =
      FoldInEncodeRate(model, gen.dataset, cold_ids, simd_budget_s);
  const double simd_cold_speedup =
      simd_scalar_rate > 0.0 ? simd_native_rate / simd_scalar_rate : 0.0;
  std::printf("cold fold-in encode: scalar %.0f users/s, %s %.0f users/s "
              "-> %.2fx SIMD speedup\n\n",
              simd_scalar_rate, IsaName(native_isa), simd_native_rate,
              simd_cold_speedup);

  const PhaseResult local =
      RunInProcess(model, gen.dataset, hot_ids, cold_ids, num_threads,
                   cold_requests, mixed_requests);

  NetLoopbackResult net;
  if (net_loopback) {
    std::printf("\nnet loopback: %zu clients x %zu lookups per topology\n",
                num_threads, mixed_requests);
    // The net phase builds fresh replicas that materialize only hot_ids,
    // so cold users are first-touch fold-ins there.
    RunNetLoopback(model, gen.dataset, hot_ids, cold_ids, num_threads,
                   mixed_requests, &net);
  }

  std::string table;
  char line[256];
  std::snprintf(line, sizeof(line), "%-14s %-6s %12s %10s %10s %10s\n",
                "config", "phase", "qps", "p50_us", "p95_us", "p99_us");
  table += line;
  const auto add_row = [&](const char* phase,
                           const serving::LoadGenReport& report) {
    std::snprintf(line, sizeof(line),
                  "%-14s %-6s %12.1f %10.1f %10.1f %10.1f\n", "in-process",
                  phase, report.Qps(), report.latency_us.Percentile(50.0),
                  report.latency_us.Percentile(95.0),
                  report.latency_us.Percentile(99.0));
    table += line;
  };
  add_row("cold", local.cold);
  add_row("mixed", local.mixed);
  if (net_loopback) {
    const auto add_net_row = [&](const char* name,
                                 const NetPhaseResult& result) {
      std::snprintf(line, sizeof(line),
                    "%-14s %-6s %12.1f %10.1f %10s %10.1f\n", name, "net",
                    result.qps, result.p50_us, "-", result.p99_us);
      table += line;
    };
    add_net_row("net-direct-1", net.direct_1shard);
    add_net_row("net-routed-3", net.routed_3shard);
    std::snprintf(line, sizeof(line),
                  "\nrouted fold-in hop breakdown (%zu stitched traces, "
                  "p50 us): encode %.1f  server %.1f  wire %.1f  "
                  "client %.1f\n",
                  net.hops.traces, net.hops.encode_us.Percentile(50.0),
                  net.hops.server_reply_us.Percentile(50.0),
                  net.hops.wire_us.Percentile(50.0),
                  net.hops.client_send_us.Percentile(50.0));
    table += line;
  }
  std::snprintf(line, sizeof(line),
                "\ncold fold-in encode speedup from SIMD dispatch (%s vs "
                "scalar): %.2fx\n",
                IsaName(native_isa), simd_cold_speedup);
  table += line;
  std::printf("%s", table.c_str());
  std::printf("\ntelemetry: %s\n", local.telemetry_json.c_str());

  // Machine-readable dump. The headline qps/p50/p99 is the cold (fold-in)
  // phase; mixed-phase numbers ride along under "mixed".
  std::string json = "{\n";
  json += "  \"scale\": \"" + std::string(ScaleName(scale)) + "\",\n";
  json += "  \"threads\": " + std::to_string(num_threads) + ",\n";
  char head[160];
  std::snprintf(head, sizeof(head),
                "  \"in_process\": {\"qps\":%.1f,\"p50_us\":%.1f,"
                "\"p99_us\":%.1f,\n",
                local.cold.Qps(), local.cold.latency_us.Percentile(50.0),
                local.cold.latency_us.Percentile(99.0));
  json += head;
  json += "     \"cold\":" + local.cold.Json() +
          ",\n     \"mixed\":" + local.mixed.Json() + "},\n";
  if (net_loopback) {
    const auto net_json = [](const NetPhaseResult& result) {
      char piece[128];
      std::snprintf(piece, sizeof(piece),
                    "{\"qps\":%.1f,\"p50_us\":%.1f,\"p99_us\":%.1f}",
                    result.qps, result.p50_us, result.p99_us);
      return std::string(piece);
    };
    json += "  \"net_loopback\": {\n";
    json += "     \"direct_1shard\": " + net_json(net.direct_1shard) + ",\n";
    json += "     \"routed_3shard\": " + net_json(net.routed_3shard) + ",\n";
    json += "     \"hops\": " + net.hops.Json() + "},\n";
  }
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "  \"simd\": {\"native_isa\": \"%s\", "
                "\"scalar_foldin_users_s\": %.1f, "
                "\"native_foldin_users_s\": %.1f, "
                "\"simd_cold_speedup\": %.3f}\n",
                IsaName(native_isa), simd_scalar_rate, simd_native_rate,
                simd_cold_speedup);
  json += buf;
  json += "}\n";

  std::filesystem::create_directories("bench_results");
  for (const char* path :
       {"BENCH_serving.json", "bench_results/BENCH_serving.json"}) {
    if (std::FILE* f = std::fopen(path, "w")) {
      std::fputs(json.c_str(), f);
      std::fclose(f);
    }
  }
  if (std::FILE* f = std::fopen("bench_results/serving_load.txt", "w")) {
    std::fputs(table.c_str(), f);
    std::fprintf(f, "\ntelemetry: %s\n", local.telemetry_json.c_str());
    std::fclose(f);
  }
  std::printf("\nwrote BENCH_serving.json and bench_results/serving_load.txt\n");

  if (local.cold.errors + local.mixed.errors > 0) {
    std::printf("WARNING: %llu in-process requests failed\n",
                (unsigned long long)(local.cold.errors + local.mixed.errors));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fvae::bench

int main(int argc, char** argv) {
  bool net_loopback = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--net") net_loopback = true;
  }
  return fvae::bench::Main(net_loopback);
}
