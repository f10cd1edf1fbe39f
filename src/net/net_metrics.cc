#include "net/net_metrics.h"

#include "common/string_util.h"

namespace fvae::net {

ServerMetrics::ServerMetrics(obs::MetricsRegistry* registry)
    : owned_registry_(registry != nullptr
                          ? nullptr
                          : std::make_unique<obs::MetricsRegistry>()),
      registry_(registry != nullptr ? registry : owned_registry_.get()),
      connections_accepted(
          registry_->Counter("net.server.connections_accepted")),
      connections_closed(registry_->Counter("net.server.connections_closed")),
      protocol_errors(registry_->Counter("net.server.protocol_errors")),
      idle_timeouts(registry_->Counter("net.server.idle_timeouts")),
      frames_rx(registry_->Counter("net.server.frames_rx")),
      frames_tx(registry_->Counter("net.server.frames_tx")),
      bytes_rx(registry_->Counter("net.server.bytes_rx")),
      bytes_tx(registry_->Counter("net.server.bytes_tx")),
      backpressure_pauses(
          registry_->Counter("net.server.backpressure_pauses")),
      open_connections_(registry_->Gauge("net.server.open_connections")),
      request_latency_us_(
          registry_->Histo("net.server.request_latency_us")),
      request_exemplars_(
          registry_->Exemplars("net.server.request_latency_us")),
      slow_traces_(/*capacity=*/64) {
  // Verb names are part of the introspection contract — keep in sync with
  // the Verb enum (and VerbName below).
  verb_latency_us_ = {
      &registry_->Histo("net.server.health.latency_us"),
      &registry_->Histo("net.server.lookup.latency_us"),
      &registry_->Histo("net.server.encode_fold_in.latency_us"),
      &registry_->Histo("net.server.stats.latency_us"),
      &registry_->Histo("net.server.introspect.latency_us"),
  };
}

namespace {
const char* VerbName(size_t verb) {
  switch (static_cast<Verb>(verb)) {
    case Verb::kHealth:
      return "health";
    case Verb::kLookup:
      return "lookup";
    case Verb::kEncodeFoldIn:
      return "encode_fold_in";
    case Verb::kStats:
      return "stats";
    case Verb::kIntrospect:
      return "introspect";
  }
  return "unknown";
}
}  // namespace

std::string ServerMetrics::ToJson() const {
  std::string out = StrFormat(
      "{\"connections_accepted\":%llu,\"connections_closed\":%llu,"
      "\"open_connections\":%.0f,\"protocol_errors\":%llu,"
      "\"idle_timeouts\":%llu,\"frames_rx\":%llu,\"frames_tx\":%llu,"
      "\"bytes_rx\":%llu,\"bytes_tx\":%llu,\"backpressure_pauses\":%llu",
      static_cast<unsigned long long>(connections_accepted.Value()),
      static_cast<unsigned long long>(connections_closed.Value()),
      open_connections_.Value(),
      static_cast<unsigned long long>(protocol_errors.Value()),
      static_cast<unsigned long long>(idle_timeouts.Value()),
      static_cast<unsigned long long>(frames_rx.Value()),
      static_cast<unsigned long long>(frames_tx.Value()),
      static_cast<unsigned long long>(bytes_rx.Value()),
      static_cast<unsigned long long>(bytes_tx.Value()),
      static_cast<unsigned long long>(backpressure_pauses.Value()));
  out += ",\"request_latency_us\":" + request_latency_us_.SummaryJson();
  out += ",\"verb_latency_us\":{";
  for (size_t v = 0; v < kNumVerbs; ++v) {
    out += StrFormat("%s\"%s\":", v == 0 ? "" : ",", VerbName(v));
    out += verb_latency_us_[v]->SummaryJson();
  }
  out += "}}";
  return out;
}

RouterMetrics::RouterMetrics(size_t num_shards,
                             obs::MetricsRegistry* registry)
    : owned_registry_(registry != nullptr
                          ? nullptr
                          : std::make_unique<obs::MetricsRegistry>()),
      registry_(registry != nullptr ? registry : owned_registry_.get()),
      requests(registry_->Counter("net.client.requests")),
      failures(registry_->Counter("net.client.failures")),
      hedges(registry_->Counter("net.client.hedges")),
      hedge_wins(registry_->Counter("net.client.hedge_wins")),
      failovers(registry_->Counter("net.client.failovers")),
      breaker_trips(registry_->Counter("net.client.breaker_trips")),
      health_probes(registry_->Counter("net.client.health_probes")),
      health_failures(registry_->Counter("net.client.health_failures")),
      call_latency_us_(registry_->Histo("net.client.call_latency_us")) {
  shard_requests_.reserve(num_shards);
  shard_errors_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    // Names built once here, never on the request path.
    shard_requests_.push_back(&registry_->Counter(
        StrFormat("net.client.shard%zu.requests", i)));
    shard_errors_.push_back(
        &registry_->Counter(StrFormat("net.client.shard%zu.errors", i)));
  }
}

}  // namespace fvae::net
