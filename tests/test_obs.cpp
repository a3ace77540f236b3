// Self-observability layer: histogram bucket math at the edges, sharded
// counter exactness under contention, snapshot consistency under concurrent
// writers, trace JSON well-formedness (parsed back by a minimal validating
// JSON reader), self-overhead accounting, and the obs wiring through a
// kManual PowerMeter and a threaded FleetMonitor (the latter doubles as the
// TSan workout for the whole instrumentation path).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "actors/event_bus.h"
#include "obs/observability.h"
#include "os/system.h"
#include "powerapi/fleet_monitor.h"
#include "powerapi/power_meter.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

#include "json_reader.h"

namespace powerapi::obs {
namespace {

// --- Histogram bucket math ---

TEST(Histogram, SmallValuesMapToIdentityBuckets) {
  // Below 2^kSubBucketBits the bucketing is exact: one value per bucket.
  for (std::int64_t v = 0; v < Histogram::kSubBucketCount; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), static_cast<std::size_t>(v)) << v;
    EXPECT_EQ(Histogram::bucket_lower_bound(static_cast<std::size_t>(v)), v) << v;
  }
}

TEST(Histogram, BucketBoundsAreMonotoneAndConsistent) {
  std::int64_t previous = -1;
  for (std::size_t i = 0; i < 512; ++i) {
    const std::int64_t bound = Histogram::bucket_lower_bound(i);
    EXPECT_GT(bound, previous) << "bucket " << i;
    // The lower bound of a bucket maps back to that bucket...
    EXPECT_EQ(Histogram::bucket_index(bound), i);
    // ...and the value just below it maps to the previous one.
    if (bound > 0) {
      EXPECT_EQ(Histogram::bucket_index(bound - 1), i - 1);
    }
    previous = bound;
  }
}

TEST(Histogram, ZeroRecordsInBucketZero) {
  Histogram hist;
  hist.record(0);
  const HistogramData data = hist.data();
  EXPECT_EQ(data.count, 1u);
  ASSERT_EQ(data.buckets.size(), 1u);
  EXPECT_EQ(data.buckets[0].first, 0);
  EXPECT_EQ(data.buckets[0].second, 1u);
}

TEST(Histogram, NegativeValuesClampToZero) {
  Histogram hist;
  hist.record(-5);
  hist.record(std::numeric_limits<std::int64_t>::min());
  const HistogramData data = hist.data();
  EXPECT_EQ(data.count, 2u);
  EXPECT_EQ(data.overflow, 0u);
  ASSERT_EQ(data.buckets.size(), 1u);
  EXPECT_EQ(data.buckets[0].first, 0);
  EXPECT_EQ(data.buckets[0].second, 2u);
}

TEST(Histogram, ValuesAboveMaxClampIntoLastBucketAndCountOverflow) {
  Histogram hist(/*max_value=*/1000);
  hist.record(1000);     // At max: not overflow.
  hist.record(1001);     // Above: clamped + counted.
  hist.record(std::numeric_limits<std::int64_t>::max());
  const HistogramData data = hist.data();
  EXPECT_EQ(data.count, 3u);
  EXPECT_EQ(data.overflow, 2u);
  // All three landed in the same (clamp) bucket.
  ASSERT_EQ(data.buckets.size(), 1u);
  EXPECT_EQ(data.buckets[0].second, 3u);
  EXPECT_EQ(Histogram::bucket_index(1000), Histogram::bucket_index(data.buckets[0].first));
}

TEST(Histogram, MeanAndPercentilesResolveToBucketBounds) {
  Histogram hist;
  for (int i = 0; i < 100; ++i) hist.record(10);
  hist.record(100000);
  const HistogramData data = hist.data();
  EXPECT_EQ(data.count, 101u);
  EXPECT_NEAR(data.mean(), (100 * 10.0 + 100000.0) / 101.0, 1e-9);
  EXPECT_EQ(data.percentile(0.5), 10.0);
  // p999 falls in the bucket holding 100000: resolved to its lower bound,
  // within the ~6 % bucket resolution.
  EXPECT_NEAR(data.percentile(0.999), 100000.0, 100000.0 * 0.07);
  EXPECT_EQ(data.percentile(0.0), 10.0);
  EXPECT_GE(data.percentile(1.0), data.percentile(0.5));
}

TEST(Histogram, EmptyHistogramIsWellBehaved) {
  Histogram hist;
  const HistogramData data = hist.data();
  EXPECT_EQ(data.count, 0u);
  EXPECT_EQ(data.mean(), 0.0);
  EXPECT_EQ(data.percentile(0.5), 0.0);
  EXPECT_TRUE(data.buckets.empty());
}

// --- Counter ---

TEST(Counter, ConcurrentAddsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

// --- Registry ---

TEST(MetricsRegistry, InterningReturnsTheSameInstance) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x.count");
  Counter& b = registry.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("metric");
  EXPECT_THROW(registry.gauge("metric"), std::logic_error);
  EXPECT_THROW(registry.histogram("metric"), std::logic_error);
}

TEST(MetricsRegistry, SnapshotIsSortedAndQueryable) {
  MetricsRegistry registry;
  registry.counter("b.count").add(2);
  registry.gauge("a.value").set(1.5);
  registry.histogram("c.latency_ns").record(42);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "a.value");
  EXPECT_EQ(snap.metrics[1].name, "b.count");
  EXPECT_EQ(snap.metrics[2].name, "c.latency_ns");
  EXPECT_EQ(snap.value_of("b.count"), 2.0);
  EXPECT_EQ(snap.value_of("a.value"), 1.5);
  EXPECT_EQ(snap.value_of("missing", -1.0), -1.0);
  ASSERT_NE(snap.find("c.latency_ns"), nullptr);
  EXPECT_EQ(snap.find("c.latency_ns")->hist.count, 1u);
}

TEST(MetricsRegistry, CollectorsContributeGaugesUntilRemoved) {
  MetricsRegistry registry;
  const auto id = registry.add_collector(
      [](SnapshotBuilder& builder) { builder.gauge("pulled.value", 7.0); });
  EXPECT_EQ(registry.snapshot().value_of("pulled.value"), 7.0);
  registry.remove_collector(id);
  EXPECT_EQ(registry.snapshot().find("pulled.value"), nullptr);
}

TEST(MetricsRegistry, SnapshotUnderConcurrentUpdatesNeverGoesBackwards) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("spin.count");
  Histogram& hist = registry.histogram("spin.latency_ns");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      std::int64_t v = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter.add();
        hist.record(v++ & 0xFFFF);
      }
    });
  }
  double last_count = 0.0;
  std::uint64_t last_hist = 0;
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snap = registry.snapshot();
    const double count = snap.value_of("spin.count");
    EXPECT_GE(count, last_count);  // Counters are monotone across snapshots.
    last_count = count;
    const MetricValue* h = snap.find("spin.latency_ns");
    ASSERT_NE(h, nullptr);
    EXPECT_GE(h->hist.count, last_hist);
    last_hist = h->hist.count;
    // Bucket counts can lag count_ slightly (relaxed copies), never exceed
    // it by the time the fold finishes plus concurrent increments.
    std::uint64_t bucket_sum = 0;
    for (const auto& [bound, n] : h->hist.buckets) bucket_sum += n;
    EXPECT_LE(h->hist.overflow, h->hist.count);
    if (h->hist.count > 0) {
      EXPECT_GT(bucket_sum, 0u);
    }
  }
  stop.store(true);
  for (auto& writer : writers) writer.join();
}

// --- JSON validation (tests/json_reader.h, shared with test_obs_net) ---

using powerapi::testing::JsonReader;

TEST(JsonReaderSelfCheck, AcceptsValidRejectsBroken) {
  EXPECT_TRUE(JsonReader(R"({"a":[1,2.5,-3e4],"b":"x\"y","c":null})").valid());
  EXPECT_FALSE(JsonReader(R"({"a":1)").valid());
  EXPECT_FALSE(JsonReader(R"({"a" 1})").valid());
  EXPECT_FALSE(JsonReader("{}{}").valid());
}

// --- Trace collector ---

TEST(TraceCollector, RecordsFromManyThreadsAndEmitsValidJson) {
  TraceCollector trace;
  const auto name = trace.intern("stage");
  const auto tick = trace.intern("tick");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        trace.complete(name, 1000 * t + i, 10, static_cast<std::uint64_t>(i));
        trace.instant(tick, 1000 * t + i, static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(trace.size(), 800u);
  EXPECT_EQ(trace.dropped(), 0u);

  std::ostringstream out;
  trace.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonReader(json).valid()) << json.substr(0, 200);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\""), std::string::npos);
}

TEST(TraceCollector, EscapesHostileNamesInJson) {
  TraceCollector trace;
  const auto name = trace.intern("evil \"name\"\\with\nnewline");
  trace.instant(name, 1);
  std::ostringstream out;
  trace.write_chrome_trace(out);
  EXPECT_TRUE(JsonReader(out.str()).valid()) << out.str();
}

TEST(TraceCollector, CapacityOverflowDropsAndCounts) {
  TraceCollector trace(/*capacity=*/32);  // 2 events per shard.
  const auto name = trace.intern("spam");
  for (int i = 0; i < 1000; ++i) trace.complete(name, i, 1);
  EXPECT_LE(trace.size(), 32u);
  EXPECT_EQ(trace.size() + trace.dropped(), 1000u);
  std::ostringstream out;
  trace.write_chrome_trace(out);
  EXPECT_TRUE(JsonReader(out.str()).valid());
}

TEST(TraceCollector, DropsFeedTheCounterAndTraceMetadata) {
  MetricsRegistry registry;
  TraceCollector trace(/*capacity=*/32);
  trace.set_drop_counter(&registry.counter("obs.trace.spans_dropped"));
  const auto name = trace.intern("spam");
  for (int i = 0; i < 200; ++i) trace.complete(name, i, 1);
  ASSERT_GT(trace.dropped(), 0u);
  // The registry counter mirrors the collector's own tally, so drops stay
  // visible in metric snapshots (and over the wire) after the trace is gone.
  EXPECT_EQ(registry.snapshot().value_of("obs.trace.spans_dropped"),
            static_cast<double>(trace.dropped()));
  // And the Chrome trace itself carries the count as metadata.
  std::ostringstream out;
  trace.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonReader(json).valid()) << json.substr(0, 200);
  EXPECT_NE(json.find("spans_dropped"), std::string::npos) << json.substr(0, 200);
}

TEST(TraceCollector, DisabledRecordsNothing) {
  TraceCollector trace;
  const auto name = trace.intern("quiet");
  trace.set_enabled(false);
  trace.complete(name, 0, 5);
  trace.instant(name, 0);
  { ScopedSpan span(&trace, name); }
  EXPECT_EQ(trace.size(), 0u);
}

TEST(ScopedSpan, NullCollectorIsSafeAndLiveOneRecords) {
  { ScopedSpan span(nullptr, 1); }  // Must not crash.
  TraceCollector trace;
  const auto name = trace.intern("span");
  { ScopedSpan span(&trace, name, 42); }
  EXPECT_EQ(trace.size(), 1u);
}

// --- Self-overhead accounting ---

TEST(SelfMonitor, MeasuresCpuAndConvertsToWatts) {
  SelfMonitor self;
  self.set_watts_per_core(25.0);
  // Burn a little CPU so the window has something to see.
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + 1e-9;
  const SelfMonitor::Usage usage = self.sample();
  EXPECT_GT(usage.wall_seconds, 0.0);
  EXPECT_GE(usage.cpu_seconds, 0.0);
  EXPECT_GE(usage.cpu_share_cores, 0.0);
  EXPECT_NEAR(usage.estimated_watts, usage.cpu_share_cores * 25.0, 1e-9);
  EXPECT_GE(usage.total_cpu_seconds, usage.cpu_seconds);
  // Cumulative fields are monotone across windows.
  const SelfMonitor::Usage next = self.sample();
  EXPECT_GE(next.total_cpu_seconds, usage.total_cpu_seconds);
  EXPECT_GE(next.total_joules, usage.total_joules);
}

TEST(SelfMonitor, ProcessCpuSecondsIsMonotone) {
  const double first = process_cpu_seconds();
  EXPECT_GE(first, 0.0);
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + 1e-9;
  EXPECT_GE(process_cpu_seconds(), first);
}

// --- Observability bundle ---

TEST(Observability, SelfGaugesAppearInSnapshots) {
  Observability obs;
  const MetricsSnapshot snap = obs.metrics.snapshot();
  EXPECT_NE(snap.find("self.cpu_share_cores"), nullptr);
  EXPECT_NE(snap.find("self.watts"), nullptr);
  EXPECT_NE(snap.find("trace.events"), nullptr);
}

TEST(Observability, DisableStopsTraceRecording) {
  Observability obs;
  obs.set_enabled(false);
  EXPECT_FALSE(obs.enabled());
  EXPECT_FALSE(obs.trace.enabled());
  obs.set_enabled(true);
  EXPECT_TRUE(obs.trace.enabled());
}

}  // namespace
}  // namespace powerapi::obs

namespace powerapi::api {
namespace {

using powerapi::testing::JsonReader;

model::CpuPowerModel obs_test_model() {
  std::vector<model::FrequencyFormula> formulas;
  for (const double hz : simcpu::i3_2120().frequencies_hz) {
    model::FrequencyFormula f;
    f.frequency_hz = hz;
    f.events = {hpc::EventId::kInstructions, hpc::EventId::kCacheMisses};
    const double scale = hz / 3.3e9;
    f.coefficients = {2.2e-9 * scale, 1.6e-7};
    formulas.push_back(std::move(f));
  }
  return model::CpuPowerModel(31.0, std::move(formulas));
}

std::unique_ptr<os::System> obs_test_host() {
  auto host = std::make_unique<os::System>(simcpu::i3_2120());
  host->spawn("app", std::make_unique<workloads::SteadyBehavior>(
                         workloads::cpu_stress(0.7), 0));
  return host;
}

// --- Event bus dead letters ---

TEST(EventBusObs, DeadLettersAreCountedAndExposed) {
  // The bundle must outlive the bus (the bus unregisters its collector on
  // destruction), so it is declared first.
  obs::Observability obs;
  actors::ActorSystem system;
  actors::EventBus bus(system);
  bus.set_observability(&obs);
  const auto topic = bus.intern("nobody:listens");
  bus.publish(topic, 123);
  bus.publish(topic, 456);
  EXPECT_EQ(bus.dead_letter_count(), 2u);
  const obs::MetricsSnapshot snap = obs.metrics.snapshot();
  EXPECT_EQ(snap.value_of("bus.dead_letters"), 2.0);
  EXPECT_EQ(snap.value_of("bus.topic.nobody:listens.drops"), 2.0);
}

TEST(EventBusObs, DeadLettersCountWithoutObservabilityToo) {
  actors::ActorSystem system;
  actors::EventBus bus(system);
  bus.publish(bus.intern("void"), 1);
  EXPECT_EQ(bus.dead_letter_count(), 1u);
}

// --- Actor runtime self-instrumentation ---

TEST(ActorSystemObs, CountsMessagesAndRecordsMailboxLatency) {
  // Declared first: the system unregisters its collector on destruction.
  obs::Observability obs;
  actors::ActorSystem system(&obs);
  class Sink final : public actors::Actor {
   public:
    void receive(actors::Envelope&) override {}
  };
  const auto sink = system.spawn_as<Sink>("sink");
  for (int i = 0; i < 5; ++i) sink.tell(i);
  EXPECT_EQ(system.drain(), 5u);

  const obs::MetricsSnapshot snap = obs.metrics.snapshot();
  EXPECT_EQ(snap.value_of("actors.messages_processed"), 5.0);
  EXPECT_EQ(snap.value_of("actors.count"), 1.0);
  const auto* mailbox = snap.find("actors.mailbox.latency_ns");
  ASSERT_NE(mailbox, nullptr);
  EXPECT_EQ(mailbox->hist.count, 5u);
}

// --- End-to-end: kManual PowerMeter with observability ---

TEST(PowerMeterObs, StampsSequencesAndRecordsPipelineMetrics) {
  auto host = obs_test_host();
  obs::Observability obs;
  // Declared before the meter: the reporter's final flush at actor stop
  // (inside ~PowerMeter) still writes here.
  std::ostringstream csv;
  std::vector<std::uint64_t> seqs;
  PowerMeter::Config config;
  config.period = util::ms_to_ns(100);
  config.with_powerspy = false;
  config.observability = &obs;
  PowerMeter meter(*host, obs_test_model(), config);

  meter.add_callback_reporter(
      [&seqs](const AggregatedPower& row) { seqs.push_back(row.seq); });
  meter.pipeline().add_metrics_reporter(csv, MetricsReporter::Format::kCsv,
                                        /*every_n_ticks=*/5);
  meter.monitor_all();
  meter.run_for(util::seconds_to_ns(2));
  meter.finish();

  // Every aggregated row carries the seq of the tick it came from.
  ASSERT_FALSE(seqs.empty());
  for (const std::uint64_t seq : seqs) EXPECT_GT(seq, 0u);
  // Seqs are non-decreasing (rows flush in tick order under kManual).
  for (std::size_t i = 1; i < seqs.size(); ++i) EXPECT_GE(seqs[i], seqs[i - 1]);

  const obs::MetricsSnapshot snap = obs.metrics.snapshot();
  EXPECT_EQ(snap.value_of("pipeline.ticks"), 20.0);
  EXPECT_GT(snap.value_of("pipeline.sensor_reports"), 0.0);
  EXPECT_GT(snap.value_of("pipeline.estimates"), 0.0);
  EXPECT_GT(snap.value_of("pipeline.aggregated_rows"), 0.0);
  const auto* latency = snap.find("pipeline.tick_to_aggregate_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->hist.count, 0u);
  // The meter's actor system and bus report into the same bundle: one
  // actor (the metrics reporter), and no publish reached zero subscribers.
  EXPECT_EQ(snap.value_of("actors.count"), 1.0);
  ASSERT_NE(snap.find("bus.dead_letters"), nullptr);
  EXPECT_EQ(snap.value_of("bus.dead_letters"), 0.0);

  // The CSV reporter emitted a header plus rows.
  const std::string csv_text = csv.str();
  EXPECT_EQ(csv_text.rfind("seq,metric,stat,value\n", 0), 0u) << csv_text.substr(0, 80);
  EXPECT_NE(csv_text.find("pipeline.ticks"), std::string::npos);
  // Exactly one header even across multiple snapshots.
  EXPECT_EQ(csv_text.find("seq,metric,stat,value", 1), std::string::npos);

  // The trace captured spans for every stage, and the JSON parses.
  EXPECT_GT(obs.trace.size(), 0u);
  std::ostringstream trace_json;
  obs.trace.write_chrome_trace(trace_json);
  EXPECT_TRUE(JsonReader(trace_json.str()).valid());
  for (const char* stage : {"sensor-hpc", "formula-hpc", "aggregator"}) {
    EXPECT_NE(trace_json.str().find(stage), std::string::npos) << stage;
  }
}

TEST(PowerMeterObs, JsonReporterEmitsOneValidObjectPerLine) {
  auto host = obs_test_host();
  obs::Observability obs;
  std::ostringstream out;  // Outlives the meter (final flush at stop).
  PowerMeter::Config config;
  config.period = util::ms_to_ns(100);
  config.observability = &obs;
  PowerMeter meter(*host, obs_test_model(), config);
  meter.pipeline().add_metrics_reporter(out, MetricsReporter::Format::kJson,
                                        /*every_n_ticks=*/5);
  meter.monitor_all();
  meter.run_for(util::seconds_to_ns(1));
  meter.finish();
  std::istringstream lines(out.str());
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(JsonReader(line).valid()) << line.substr(0, 120);
    EXPECT_EQ(line.rfind("{\"seq\":", 0), 0u);
    ++parsed;
  }
  EXPECT_GT(parsed, 0);
}

TEST(PowerMeterObs, WithoutObservabilityNothingIsStamped) {
  auto host = obs_test_host();
  PowerMeter::Config config;
  config.period = util::ms_to_ns(100);
  PowerMeter meter(*host, obs_test_model(), config);
  std::vector<std::uint64_t> seqs;
  meter.add_callback_reporter(
      [&seqs](const AggregatedPower& row) { seqs.push_back(row.seq); });
  EXPECT_THROW(meter.pipeline().add_metrics_reporter(std::cout), std::logic_error);
  meter.monitor_all();
  meter.run_for(util::seconds_to_ns(1));
  meter.finish();
  ASSERT_FALSE(seqs.empty());
  for (const std::uint64_t seq : seqs) EXPECT_EQ(seq, 0u);
}

// --- End-to-end: threaded fleet with observability (TSan workout) ---

TEST(FleetMonitorObs, ThreadedFleetRecordsAndExports) {
  std::vector<std::unique_ptr<os::System>> hosts;
  for (int i = 0; i < 4; ++i) hosts.push_back(obs_test_host());

  std::ostringstream metrics_out;  // Outlives the fleet (final flush at stop).
  obs::Observability obs;         // Outlives the fleet.
  FleetMonitor::Options options;
  options.mode = actors::ActorSystem::Mode::kThreaded;
  options.workers = 4;
  options.observability = &obs;
  FleetMonitor fleet(options);
  ASSERT_NE(fleet.observability(), nullptr);

  for (auto& host : hosts) {
    PipelineSpec spec;
    spec.model = obs_test_model();
    spec.period = util::ms_to_ns(100);
    fleet.add_host(*host, spec);
  }
  fleet.add_metrics_reporter(metrics_out, MetricsReporter::Format::kText,
                             /*every_n_ticks=*/10);

  // Snapshot concurrently with the run: the registry must stay coherent
  // while every stage records (this is the TSan-sensitive path).
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::MetricsSnapshot snap = fleet.observability()->metrics.snapshot();
      (void)snap.value_of("pipeline.ticks");
      std::this_thread::yield();
    }
  });
  fleet.run_for(util::seconds_to_ns(2));
  fleet.finish();
  stop.store(true);
  snapshotter.join();

  const obs::MetricsSnapshot snap = fleet.observability()->metrics.snapshot();
  // 4 hosts x 20 ticks each.
  EXPECT_EQ(snap.value_of("pipeline.ticks"), 80.0);
  EXPECT_GT(snap.value_of("pipeline.aggregated_rows"), 0.0);
  EXPECT_GT(snap.value_of("actors.messages_processed"), 0.0);
  EXPECT_GE(snap.value_of("self.cpu_seconds"), 0.0);

  EXPECT_NE(metrics_out.str().find("# metrics snapshot"), std::string::npos);

  std::ostringstream trace_json;
  fleet.write_chrome_trace(trace_json);
  EXPECT_TRUE(JsonReader(trace_json.str()).valid());
  // Namespaced stage spans from different hosts are present.
  EXPECT_NE(trace_json.str().find("h0/"), std::string::npos);
  EXPECT_NE(trace_json.str().find("h3/"), std::string::npos);
}

}  // namespace
}  // namespace powerapi::api
