#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/stopwatch.h"
#include "obs/exemplars.h"
#include "obs/metrics_registry.h"
#include "obs/periodic_dumper.h"
#include "obs/prometheus.h"
#include "obs/slow_trace_ring.h"
#include "obs/trace.h"

namespace fvae::obs {
namespace {

// ---------- metric names ----------

TEST(MetricNameTest, ValidatesDottedSnakeCasePaths) {
  EXPECT_TRUE(IsValidMetricName("training.epoch_loss"));
  EXPECT_TRUE(IsValidMetricName("serving.lookup_latency_us"));
  EXPECT_TRUE(IsValidMetricName("a.b"));
  EXPECT_TRUE(IsValidMetricName("a.b2.c_d"));

  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("flat"));           // no dot
  EXPECT_FALSE(IsValidMetricName("Training.loss"));  // upper case
  EXPECT_FALSE(IsValidMetricName("training."));      // trailing dot
  EXPECT_FALSE(IsValidMetricName(".loss"));          // leading dot
  EXPECT_FALSE(IsValidMetricName("a..b"));           // empty segment
  EXPECT_FALSE(IsValidMetricName("a.9b"));           // digit-led segment
  EXPECT_FALSE(IsValidMetricName("a._b"));           // underscore-led
  EXPECT_FALSE(IsValidMetricName("a b.c"));          // space
}

// ---------- registry ----------

TEST(MetricsRegistryTest, InstrumentsAreNamedSingletons) {
  MetricsRegistry registry;
  Counter& c1 = registry.Counter("test.hits");
  Counter& c2 = registry.Counter("test.hits");
  EXPECT_EQ(&c1, &c2);
  c1.Increment();
  c2.Add(4);
  EXPECT_EQ(c1.Value(), 5u);

  Gauge& g = registry.Gauge("test.depth");
  g.Set(2.0);
  g.Add(0.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.SetMax(1.0);  // below the watermark: no effect
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.SetMax(7.0);
  EXPECT_DOUBLE_EQ(g.Value(), 7.0);

  LatencyHistogram& h = registry.Histo("test.latency_us");
  h.Record(10.0);
  EXPECT_EQ(&h, &registry.Histo("test.latency_us"));
  EXPECT_EQ(h.Count(), 1u);

  EXPECT_EQ(registry.MetricCount(), 3u);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndUpdatesAreExact) {
  MetricsRegistry registry;
  constexpr size_t kThreads = 8;
  constexpr size_t kIncrements = 10000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Every thread races the registration of the shared instruments and
      // additionally registers one of its own.
      Counter& shared = registry.Counter("test.shared_hits");
      Gauge& peak = registry.Gauge("test.peak");
      LatencyHistogram& histo = registry.Histo("test.latency_us");
      Counter& own =
          registry.Counter("test.thread_" + std::to_string(t));
      for (size_t i = 0; i < kIncrements; ++i) {
        shared.Increment();
        own.Increment();
        peak.SetMax(double(i));
        histo.Record(double(i % 100));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(registry.Counter("test.shared_hits").Value(),
            kThreads * kIncrements);
  EXPECT_DOUBLE_EQ(registry.Gauge("test.peak").Value(),
                   double(kIncrements - 1));
  EXPECT_EQ(registry.Histo("test.latency_us").Count(),
            kThreads * kIncrements);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(
        registry.Counter("test.thread_" + std::to_string(t)).Value(),
        kIncrements);
  }
  // shared counter + gauge + histogram + one counter per thread.
  EXPECT_EQ(registry.MetricCount(), 3u + kThreads);
}

// ---------- exporters ----------

TEST(MetricsRegistryTest, TextSnapshotGolden) {
  MetricsRegistry registry;
  registry.Counter("test.requests").Add(3);
  registry.Gauge("test.depth").Set(1.5);
  EXPECT_EQ(registry.TextSnapshot(),
            "test.depth                           gauge      1.5\n"
            "test.requests                        counter    3\n");
}

TEST(MetricsRegistryTest, JsonlSnapshotGolden) {
  MetricsRegistry registry;
  registry.Counter("test.requests").Add(3);
  registry.Gauge("test.depth").Set(1.5);
  EXPECT_EQ(registry.JsonlSnapshot(),
            "{\"name\":\"test.depth\",\"type\":\"gauge\",\"value\":1.5}\n"
            "{\"name\":\"test.requests\",\"type\":\"counter\","
            "\"value\":3}\n");
}

TEST(MetricsRegistryTest, JsonlSnapshotHistogramLine) {
  MetricsRegistry registry;
  LatencyHistogram& h = registry.Histo("test.latency_us");
  h.Record(10.0);
  h.Record(20.0);
  const std::string snapshot = registry.JsonlSnapshot();
  EXPECT_EQ(snapshot.rfind("{\"name\":\"test.latency_us\","
                           "\"type\":\"histogram\",\"count\":2,"
                           "\"mean\":15.0,",
                           0),
            0u)
      << snapshot;
  EXPECT_NE(snapshot.find("\"p50\":"), std::string::npos);
  EXPECT_NE(snapshot.find("\"p99\":"), std::string::npos);
}

// ---------- trace spans ----------

/// Minimal field extractor for one Chrome trace event object.
std::string JsonField(const std::string& object, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = object.find(needle);
  if (at == std::string::npos) return "";
  size_t begin = at + needle.size();
  if (begin < object.size() && object[begin] == '"') {
    const size_t end = object.find('"', begin + 1);
    return object.substr(begin + 1, end - begin - 1);
  }
  size_t end = begin;
  while (end < object.size() && object[end] != ',' && object[end] != '}') {
    ++end;
  }
  return object.substr(begin, end - begin);
}

struct ParsedEvent {
  std::string name;
  int64_t ts = 0;
  int64_t dur = 0;
  uint32_t tid = 0;
};

/// Parses the {...} objects out of a "traceEvents" array.
std::vector<ParsedEvent> ParseChromeTrace(const std::string& json) {
  std::vector<ParsedEvent> events;
  const size_t array = json.find("\"traceEvents\":[");
  EXPECT_NE(array, std::string::npos) << json;
  size_t pos = array;
  while ((pos = json.find('{', pos)) != std::string::npos) {
    const size_t end = json.find('}', pos);
    const std::string object = json.substr(pos, end - pos + 1);
    ParsedEvent event;
    event.name = JsonField(object, "name");
    event.ts = std::stoll(JsonField(object, "ts"));
    event.dur = std::stoll(JsonField(object, "dur"));
    event.tid = uint32_t(std::stoul(JsonField(object, "tid")));
    EXPECT_EQ(JsonField(object, "ph"), "X") << object;
    events.push_back(event);
    pos = end + 1;
  }
  return events;
}

TEST(TraceTest, DisabledRecorderRecordsNothing) {
  TraceRecorder recorder;
  { TraceSpan span("test.span", &recorder); }
  EXPECT_EQ(recorder.EventCount(), 0u);
}

TEST(TraceTest, SpansNestWithinEachThread) {
  TraceRecorder recorder;
  recorder.Enable();

  constexpr size_t kThreads = 2;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      TraceSpan outer("test.outer", &recorder);
      // Make the inner span strictly containable: busy-wait ~200us so the
      // microsecond clock ticks between the start/end stamps.
      const int64_t begin = MonotonicMicros();
      while (MonotonicMicros() - begin < 100) {
      }
      {
        TraceSpan inner("test.inner", &recorder);
        const int64_t inner_begin = MonotonicMicros();
        while (MonotonicMicros() - inner_begin < 100) {
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(recorder.EventCount(), 2 * kThreads);
  const std::vector<ParsedEvent> events =
      ParseChromeTrace(recorder.ChromeTraceJson());
  ASSERT_EQ(events.size(), 2 * kThreads);

  // Per thread: exactly one outer and one inner, and the inner's
  // [ts, ts+dur) interval is contained in the outer's.
  std::vector<uint32_t> tids;
  for (const ParsedEvent& event : events) tids.push_back(event.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  ASSERT_EQ(tids.size(), kThreads) << "one buffer (tid) per thread";

  for (uint32_t tid : tids) {
    const ParsedEvent* outer = nullptr;
    const ParsedEvent* inner = nullptr;
    for (const ParsedEvent& event : events) {
      if (event.tid != tid) continue;
      if (event.name == "test.outer") outer = &event;
      if (event.name == "test.inner") inner = &event;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_LE(outer->ts, inner->ts);
    EXPECT_LE(inner->ts + inner->dur, outer->ts + outer->dur);
    EXPECT_LT(inner->dur, outer->dur);
  }
}

TEST(TraceTest, EarlyEndIsIdempotent) {
  TraceRecorder recorder;
  recorder.Enable();
  TraceSpan span("test.span", &recorder);
  span.End();
  span.End();  // no double record
  EXPECT_EQ(recorder.EventCount(), 1u);
}

TEST(TraceTest, ProfileAggregatesAcrossThreads) {
  TraceRecorder recorder;
  recorder.Enable();
  std::thread other([&recorder] {
    recorder.RecordSpan("test.step", 0, 100);
    recorder.RecordSpan("test.step", 200, 300);
  });
  other.join();
  recorder.RecordSpan("test.step", 500, 200);
  recorder.RecordSpan("test.misc", 0, 10);

  const std::vector<SpanProfile> profile = recorder.Profile();
  ASSERT_EQ(profile.size(), 2u);
  // Sorted by total time descending: step (600us) before misc (10us).
  EXPECT_EQ(profile[0].name, "test.step");
  EXPECT_EQ(profile[0].count, 3u);
  EXPECT_DOUBLE_EQ(profile[0].total_us, 600.0);
  EXPECT_GT(profile[0].p99_us, 0.0);
  EXPECT_EQ(profile[1].name, "test.misc");
  EXPECT_EQ(profile[1].count, 1u);
  EXPECT_NE(recorder.ProfileText().find("test.step"), std::string::npos);
}

TEST(TraceTest, FullBufferCountsDrops) {
  TraceRecorder recorder;
  recorder.Enable();
  const size_t over = TraceRecorder::kMaxEventsPerThread + 5;
  for (size_t i = 0; i < over; ++i) {
    recorder.RecordSpan("test.spin", int64_t(i), 1);
  }
  EXPECT_EQ(recorder.EventCount(), TraceRecorder::kMaxEventsPerThread);
  EXPECT_EQ(recorder.DroppedCount(), 5u);

  recorder.Reset();
  EXPECT_EQ(recorder.EventCount(), 0u);
  EXPECT_EQ(recorder.DroppedCount(), 0u);
  recorder.RecordSpan("test.spin", 0, 1);
  EXPECT_EQ(recorder.EventCount(), 1u);
}

TEST(TraceTest, TraceScopeMacroRecordsIntoGlobal) {
  TraceRecorder& global = TraceRecorder::Global();
  global.Reset();
  global.Enable();
  { FVAE_TRACE_SCOPE("test.macro_span"); }
  global.Disable();
  EXPECT_EQ(global.EventCount(), 1u);
  EXPECT_NE(global.ChromeTraceJson().find("test.macro_span"),
            std::string::npos);
  global.Reset();
}

// ---------- distributed trace context ----------

TEST(TraceContextTest, MintedIdsAreUniqueAndNonZero) {
  std::vector<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) ids.push_back(MintSpanId());
  std::sort(ids.begin(), ids.end());
  EXPECT_NE(ids.front(), 0u);
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());

  const TraceContext root = MintTraceContext();
  EXPECT_TRUE(root.valid());
  EXPECT_NE(root.span_id, 0u);
}

TEST(TraceContextTest, ScopedContextInstallsAndRestores) {
  EXPECT_FALSE(CurrentTraceContext().valid());
  {
    ScopedTraceContext outer(TraceContext{10, 20});
    EXPECT_EQ(CurrentTraceContext().trace_id, 10u);
    {
      ScopedTraceContext inner(TraceContext{30, 40});
      EXPECT_EQ(CurrentTraceContext().trace_id, 30u);
      EXPECT_EQ(CurrentTraceContext().span_id, 40u);
    }
    EXPECT_EQ(CurrentTraceContext().trace_id, 10u);
    EXPECT_EQ(CurrentTraceContext().span_id, 20u);
  }
  EXPECT_FALSE(CurrentTraceContext().valid());
}

TEST(TraceContextTest, NestedSpansInheritTraceAndChainParents) {
  // TraceSpan installs itself as the ambient context, so a nested span
  // parents on it and an outbound RPC issued inside it would carry its id.
  TraceRecorder recorder;
  recorder.Enable();
  const TraceContext root = MintTraceContext();
  {
    ScopedTraceContext scope(root);
    TraceSpan outer("test.outer", &recorder);
    { TraceSpan inner("test.inner", &recorder); }
  }
  std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 2u);
  // Both spans open in the same microsecond, so the start-sorted order is
  // not deterministic — pick them out by name.
  if (std::string(events[0].name) != "test.outer") {
    std::swap(events[0], events[1]);
  }
  const TraceEvent& outer = events[0];
  const TraceEvent& inner = events[1];
  EXPECT_STREQ(outer.name, "test.outer");
  EXPECT_STREQ(inner.name, "test.inner");
  EXPECT_EQ(outer.trace_id, root.trace_id);
  EXPECT_EQ(inner.trace_id, root.trace_id);
  EXPECT_EQ(outer.parent_span_id, root.span_id);
  EXPECT_EQ(inner.parent_span_id, outer.span_id);
  EXPECT_NE(outer.span_id, inner.span_id);
}

TEST(TraceContextTest, ContextFreeSpansKeepTheOldSerialization) {
  TraceRecorder recorder;
  recorder.Enable();
  { TraceSpan span("test.plain", &recorder); }
  // Without an ambient context the Chrome export carries no "args" block —
  // byte-compatible with pre-tracing golden files.
  EXPECT_EQ(recorder.ChromeTraceJson().find("\"args\""), std::string::npos);

  {
    ScopedTraceContext scope(TraceContext{0xabc, 0xdef});
    TraceSpan span("test.traced", &recorder);
  }
  const std::string json = recorder.ChromeTraceJson();
  EXPECT_NE(json.find("\"args\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":\"0000000000000abc\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"parent_span_id\":\"0000000000000def\""),
            std::string::npos)
      << json;
}

TEST(TraceContextTest, ExplicitContextRecordBypassesAmbient) {
  // The 5-arg RecordSpan is the API for spans whose identity was captured
  // elsewhere (hedge arms): it must not read the
  // calling thread's ambient context.
  TraceRecorder recorder;
  recorder.Enable();
  ScopedTraceContext scope(TraceContext{1, 2});
  recorder.RecordSpan("test.explicit", 100, 5, TraceContext{7, 8}, 9);
  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, 7u);
  EXPECT_EQ(events[0].span_id, 8u);
  EXPECT_EQ(events[0].parent_span_id, 9u);
}

// ---------- slow-trace ring ----------

TEST(SlowTraceRingTest, CapturesAndSortsByDuration) {
  SlowTraceRing ring(4);
  for (uint64_t i = 1; i <= 3; ++i) {
    SlowTraceRing::Entry entry;
    entry.trace_id = i;
    entry.tag = i * 10;
    entry.start_us = int64_t(i) * 100;
    entry.duration_us = int64_t(i) * 1000;
    entry.verb = 2;
    entry.status = 0;
    ring.Record(entry);
  }
  const std::vector<SlowTraceRing::Entry> snapshot = ring.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].trace_id, 3u);  // longest first
  EXPECT_EQ(snapshot[0].duration_us, 3000);
  EXPECT_EQ(snapshot[2].trace_id, 1u);
  EXPECT_EQ(ring.recorded(), 3u);
  EXPECT_NE(ring.ToJson().find("\"trace_id\":\"0000000000000003\""),
            std::string::npos)
      << ring.ToJson();
}

TEST(SlowTraceRingTest, WrapKeepsOnlyTheLastCapacity) {
  SlowTraceRing ring(4);
  for (uint64_t i = 1; i <= 10; ++i) {
    SlowTraceRing::Entry entry;
    entry.trace_id = i;
    entry.duration_us = 1;
    ring.Record(entry);
  }
  const std::vector<SlowTraceRing::Entry> snapshot = ring.Snapshot();
  EXPECT_LE(snapshot.size(), 4u);
  for (const SlowTraceRing::Entry& entry : snapshot) {
    EXPECT_GE(entry.trace_id, 7u);  // only the newest survive the wrap
  }
  EXPECT_EQ(ring.recorded(), 10u);
}

TEST(SlowTraceRingTest, ConcurrentWritersNeverTearSnapshots) {
  SlowTraceRing ring(8);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&ring, &stop, t] {
      uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        SlowTraceRing::Entry entry;
        // trace_id and duration_us are locked together; a torn slot would
        // break the invariant checked below.
        entry.trace_id = uint64_t(t + 1);
        entry.duration_us = int64_t(t + 1) * 1000;
        entry.tag = ++n;
        ring.Record(entry);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    for (const SlowTraceRing::Entry& entry : ring.Snapshot()) {
      ASSERT_EQ(entry.duration_us, int64_t(entry.trace_id) * 1000);
    }
  }
  stop.store(true);
  for (std::thread& writer : writers) writer.join();
}

// ---------- exemplars ----------

TEST(ExemplarStoreTest, KeepsTopKByValueWithTraceIds) {
  ExemplarStore store(2);
  store.Offer(10.0, 1);
  store.Offer(30.0, 3);
  store.Offer(20.0, 2);
  store.Offer(5.0, 5);    // below the floor once full
  store.Offer(99.0, 0);   // no trace context: never stored
  const std::vector<ExemplarStore::Exemplar> snapshot = store.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].value, 30.0);
  EXPECT_EQ(snapshot[0].trace_id, 3u);
  EXPECT_EQ(snapshot[1].value, 20.0);
  EXPECT_EQ(snapshot[1].trace_id, 2u);
  EXPECT_NE(store.ToJson().find("\"trace_id\":\"0000000000000003\""),
            std::string::npos)
      << store.ToJson();
}

TEST(MetricsRegistryTest, ExemplarStoresAttachToHistogramsAndExport) {
  MetricsRegistry registry;
  registry.Histo("test.latency_us").Record(123.0);
  ExemplarStore& store = registry.Exemplars("test.latency_us");
  store.Offer(123.0, 0x77);
  // Cached-reference contract: the same name returns the same store.
  EXPECT_EQ(&registry.Exemplars("test.latency_us"), &store);
  const std::string json = registry.ExemplarsJson();
  EXPECT_NE(json.find("\"test.latency_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_id\":\"0000000000000077\""),
            std::string::npos)
      << json;
}

// ---------- visitor + Prometheus exposition ----------

TEST(MetricsRegistryTest, VisitWalksInstrumentsInNameOrder) {
  MetricsRegistry registry;
  registry.Counter("test.b_counter").Add(2);
  registry.Gauge("test.a_gauge").Set(1.5);
  registry.Histo("test.c_histo").Record(10.0);

  class Collector : public MetricVisitor {
   public:
    std::vector<std::string> names;
    void OnCounter(const std::string& name, uint64_t value) override {
      names.push_back(name);
      EXPECT_EQ(value, 2u);
    }
    void OnGauge(const std::string& name, double value) override {
      names.push_back(name);
      EXPECT_EQ(value, 1.5);
    }
    void OnHistogram(const std::string& name,
                     const LatencyHistogram& histogram) override {
      names.push_back(name);
      EXPECT_EQ(histogram.Count(), 1u);
    }
  };
  Collector collector;
  registry.Visit(collector);
  const std::vector<std::string> expected = {
      "test.a_gauge", "test.b_counter", "test.c_histo"};
  EXPECT_EQ(collector.names, expected);
}

TEST(PrometheusTest, NameManglingPrefixesAndSubstitutes) {
  EXPECT_EQ(PrometheusName("net.server.frames_rx"),
            "fvae_net_server_frames_rx");
}

TEST(PrometheusTest, ExpositionCoversAllInstrumentKinds) {
  MetricsRegistry registry;
  registry.Counter("test.requests").Add(41);
  registry.Gauge("test.queue_depth").Set(3.0);
  registry.Histo("test.latency_us", 1.0, 2.0, 4).Record(2.5);

  const std::string text = PrometheusText(registry);
  EXPECT_NE(text.find("# TYPE fvae_test_requests_total counter\n"
                      "fvae_test_requests_total 41\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE fvae_test_queue_depth gauge\n"
                      "fvae_test_queue_depth 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE fvae_test_latency_us histogram"),
            std::string::npos)
      << text;
  // Cumulative buckets end in the +Inf series, which equals _count.
  EXPECT_NE(text.find("fvae_test_latency_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos)
      << text;
  // Sum is bucket-approximated (the histogram stores counts, not raw
  // values), so only assert the series exists.
  EXPECT_NE(text.find("fvae_test_latency_us_sum "), std::string::npos)
      << text;
  EXPECT_NE(text.find("fvae_test_latency_us_count 1"), std::string::npos)
      << text;
}

// ---------- periodic dumper ----------

TEST(PeriodicDumperTest, DumpsPeriodicallyAndStopsCleanly) {
  MetricsRegistry registry;
  registry.Counter("test.ticks").Add(7);

  Mutex mutex;
  std::vector<std::string> snapshots;
  PeriodicDumperOptions options;
  options.interval_seconds = 0.01;
  PeriodicDumper dumper(&registry, options,
                        [&mutex, &snapshots](const std::string& snapshot) {
                          MutexLock lock(mutex);
                          snapshots.push_back(snapshot);
                        });
  EXPECT_FALSE(dumper.running());
  dumper.Start();
  EXPECT_TRUE(dumper.running());
  // Wait for at least one periodic emission (generous bound, not a sleep
  // calibrated to the interval).
  const int64_t begin = MonotonicMicros();
  while (dumper.dumps() == 0 && MonotonicMicros() - begin < 5'000'000) {
    std::this_thread::yield();
  }
  dumper.Stop();
  EXPECT_FALSE(dumper.running());

  const uint64_t dumps_after_stop = dumper.dumps();
  EXPECT_GE(dumps_after_stop, 1u);
  {
    MutexLock lock(mutex);
    ASSERT_EQ(snapshots.size(), dumps_after_stop);
    for (const std::string& snapshot : snapshots) {
      EXPECT_NE(snapshot.find("\"name\":\"test.ticks\""),
                std::string::npos);
    }
  }

  // No emission after Stop; Start/Stop cycles are repeatable.
  dumper.Start();
  dumper.Stop();
  EXPECT_GE(dumper.dumps(), dumps_after_stop + 1);  // final emit per Stop
  const uint64_t final_dumps = dumper.dumps();
  {
    MutexLock lock(mutex);
    EXPECT_EQ(snapshots.size(), final_dumps);
  }
}

TEST(PeriodicDumperTest, StopFlushesAFinalSnapshotExactlyOnce) {
  // Lifecycle contract for crash-free shutdown telemetry: with an interval
  // far beyond the test's lifetime, the only emission is the final flush
  // Stop() performs — and it must see every update made before Stop().
  MetricsRegistry registry;
  fvae::obs::Counter& served = registry.Counter("test.requests_served");

  Mutex mutex;
  std::vector<std::string> snapshots;
  PeriodicDumperOptions options;
  options.interval_seconds = 3600.0;  // never fires on its own
  PeriodicDumper dumper(&registry, options,
                        [&mutex, &snapshots](const std::string& snapshot) {
                          MutexLock lock(mutex);
                          snapshots.push_back(snapshot);
                        });
  dumper.Start();
  served.Add(42);  // lands after Start, must still reach the final flush
  dumper.Stop();

  EXPECT_EQ(dumper.dumps(), 1u);
  {
    MutexLock lock(mutex);
    ASSERT_EQ(snapshots.size(), 1u);
    EXPECT_NE(snapshots[0].find("\"name\":\"test.requests_served\""),
              std::string::npos)
        << snapshots[0];
    EXPECT_NE(snapshots[0].find("\"value\":42"), std::string::npos)
        << snapshots[0];
  }

  // A second Start/Stop cycle flushes again; dumps() counts both.
  dumper.Start();
  dumper.Stop();
  EXPECT_EQ(dumper.dumps(), 2u);
  {
    MutexLock lock(mutex);
    EXPECT_EQ(snapshots.size(), 2u);
  }
}

TEST(PeriodicDumperTest, StopWithoutStartIsANoop) {
  MetricsRegistry registry;
  PeriodicDumper dumper(&registry, PeriodicDumperOptions{},
                        [](const std::string&) {});
  dumper.Stop();
  EXPECT_EQ(dumper.dumps(), 0u);
}

}  // namespace
}  // namespace fvae::obs
