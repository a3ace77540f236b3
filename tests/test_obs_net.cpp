// Distributed observability plane: obs frame round trips and the PR 5
// byte-identity guarantee, TraceMerger clock-offset recovery against
// injected fake offsets, the CollectorStatus ledger + TCP status listener,
// WatchdogActor alert rules (all four, plus rate limiting and counter-reset
// re-baselining), the BusBridge remote-gauge lifecycle (stale expiry,
// reconnect reset, label collisions) and the whole plane end-to-end over a
// real loopback socket.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "actors/actor_system.h"
#include "actors/event_bus.h"
#include "net/bus_bridge.h"
#include "net/collector_server.h"
#include "net/collector_status.h"
#include "net/socket.h"
#include "net/telemetry_client.h"
#include "net/watchdog.h"
#include "net/wire.h"
#include "obs/observability.h"
#include "obs/trace_merge.h"
#include "util/units.h"

#include "json_reader.h"

namespace powerapi::net {
namespace {

using powerapi::testing::JsonReader;
using util::seconds_to_ns;

api::PowerEstimate make_estimate(std::int64_t ts_ns, double watts) {
  api::PowerEstimate e;
  e.timestamp = ts_ns;
  e.pid = api::kMachinePid;
  e.formula = "powerapi-hpc";
  e.watts = watts;
  e.model_version = 1;
  return e;
}

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 0xF];
  }
  return out;
}

/// WireSink recording obs frames (and everything else) for assertions.
struct ObsRecordingSink : WireSink {
  void on_hello(std::string_view agent_id, std::uint8_t) override {
    hellos.emplace_back(agent_id);
  }
  void on_estimate(const api::PowerEstimate& estimate) override {
    estimates.push_back(estimate);
  }
  void on_aggregated(const api::AggregatedPower& row) override {
    aggregated.push_back(row);
  }
  void on_metric(std::string_view name, obs::MetricKind, double value) override {
    metrics.emplace_back(std::string(name), value);
  }
  void on_metrics_snapshot(std::int64_t send_wall_ns,
                           const obs::MetricsSnapshot& snapshot) override {
    snapshot_stamps.push_back(send_wall_ns);
    snapshots.push_back(snapshot);
  }
  void on_spans(std::int64_t send_wall_ns,
                const std::vector<RemoteSpan>& remote) override {
    span_stamps.push_back(send_wall_ns);
    spans.emplace_back();
    for (const RemoteSpan& span : remote) {
      spans.back().push_back({std::string(span.name), span.tid, span.ts_ns,
                              span.dur_ns, span.seq});
    }
  }
  void on_bye() override { ++byes; }

  struct OwnedSpan {
    std::string name;
    std::uint32_t tid;
    std::int64_t ts_ns;
    std::int64_t dur_ns;
    std::uint64_t seq;
  };
  std::vector<std::string> hellos;
  std::vector<api::PowerEstimate> estimates;
  std::vector<api::AggregatedPower> aggregated;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::int64_t> snapshot_stamps;
  std::vector<obs::MetricsSnapshot> snapshots;
  std::vector<std::int64_t> span_stamps;
  std::vector<std::vector<OwnedSpan>> spans;
  int byes = 0;
};

// --- PR 5 byte identity ---

// The exact bytes PR 5's encoder produced for this hello/batch/bye
// sequence. The obs frame kinds extend the wire; with no obs cadence the
// stream must stay bit-identical so old collectors keep working.
constexpr const char* kGoldenPr5Hex =
    "505741500101040000000f6ea52e010268305057415001027000000009aac1770100"
    "0c706f7765726170692d6870630280cab5ee0101007b14ae47e17a3f40010280cab5"
    "ee010100000000000020404001010107"
    "28666c6565742903000100013d0ad7a370dd4f4001021a6e65742e636c69656e742e"
    "7265636f7264735f64726f70706564040002000000000000000050574150010300000"
    "00089671d22";

std::vector<std::uint8_t> golden_pr5_stream() {
  WireEncoder encoder;
  std::vector<std::uint8_t> stream;
  auto append = [&stream](const std::vector<std::uint8_t>& frame) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  };
  append(WireEncoder::hello_frame("h0"));
  encoder.add(make_estimate(250'000'000, 31.48));
  encoder.add(make_estimate(500'000'000, 32.25));
  api::AggregatedPower row;
  row.timestamp = 500'000'000;
  row.pid = api::kMachinePid;
  row.group = "(fleet)";
  row.formula = "powerapi-hpc";
  row.watts = 63.73;
  encoder.add(row);
  encoder.add_metric("net.client.records_dropped", obs::MetricKind::kCounter, 0.0);
  append(encoder.take_batch_frame());
  append(WireEncoder::bye_frame());
  return stream;
}

TEST(WireCompat, NoObsCadenceIsByteIdenticalToPr5) {
  EXPECT_EQ(to_hex(golden_pr5_stream()), kGoldenPr5Hex);
}

TEST(WireCompat, DecoderAcceptsPr5Stream) {
  const std::vector<std::uint8_t> stream = golden_pr5_stream();
  FrameDecoder decoder;
  ObsRecordingSink sink;
  ASSERT_TRUE(decoder.consume(stream.data(), stream.size(), sink))
      << decoder.error();
  ASSERT_EQ(sink.hellos.size(), 1u);
  EXPECT_EQ(sink.hellos[0], "h0");
  ASSERT_EQ(sink.estimates.size(), 2u);
  EXPECT_DOUBLE_EQ(sink.estimates[0].watts, 31.48);
  EXPECT_DOUBLE_EQ(sink.estimates[1].watts, 32.25);
  ASSERT_EQ(sink.aggregated.size(), 1u);
  ASSERT_EQ(sink.metrics.size(), 1u);
  EXPECT_EQ(sink.byes, 1);
  // A PR 5 stream carries no obs frames, and decoding it must not count any.
  EXPECT_EQ(decoder.snapshots_decoded(), 0u);
  EXPECT_EQ(decoder.spans_decoded(), 0u);
  EXPECT_EQ(decoder.records_decoded(), 4u);
}

// --- Obs frame round trips ---

TEST(WireObs, MetricsSnapshotRoundTripsValuesAndHistograms) {
  obs::MetricsRegistry registry;
  registry.counter("work.count").add(42);
  registry.gauge("self.watts").set(0.125);
  obs::Histogram& hist = registry.histogram("tick.latency_ns");
  for (int i = 0; i < 100; ++i) hist.record(1000 + i);
  hist.record(50'000'000);
  const obs::MetricsSnapshot sent = registry.snapshot();

  WireEncoder encoder;
  const auto frame = encoder.take_metrics_frame(sent, /*send_wall_ns=*/123456789);
  FrameDecoder decoder;
  ObsRecordingSink sink;
  ASSERT_TRUE(decoder.consume(frame.data(), frame.size(), sink)) << decoder.error();
  EXPECT_EQ(decoder.snapshots_decoded(), 1u);
  EXPECT_EQ(decoder.records_decoded(), 0u);  // Obs records are not batch records.

  ASSERT_EQ(sink.snapshots.size(), 1u);
  EXPECT_EQ(sink.snapshot_stamps[0], 123456789);
  const obs::MetricsSnapshot& got = sink.snapshots[0];
  ASSERT_EQ(got.metrics.size(), sent.metrics.size());
  EXPECT_EQ(got.value_of("work.count"), 42.0);
  EXPECT_DOUBLE_EQ(got.value_of("self.watts"), 0.125);

  const obs::MetricValue* want = sent.find("tick.latency_ns");
  const obs::MetricValue* have = got.find("tick.latency_ns");
  ASSERT_NE(want, nullptr);
  ASSERT_NE(have, nullptr);
  EXPECT_EQ(have->kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(have->hist.count, want->hist.count);
  EXPECT_EQ(have->hist.overflow, want->hist.overflow);
  EXPECT_DOUBLE_EQ(have->hist.sum, want->hist.sum);
  ASSERT_EQ(have->hist.buckets.size(), want->hist.buckets.size());
  for (std::size_t i = 0; i < want->hist.buckets.size(); ++i) {
    EXPECT_EQ(have->hist.buckets[i], want->hist.buckets[i]) << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(have->hist.percentile(0.5), want->hist.percentile(0.5));
}

TEST(WireObs, SpansRoundTripThroughTheSharedDictionary) {
  obs::TraceCollector trace;
  const auto step = trace.intern("agent/step");
  const auto tick = trace.intern("agent/tick");
  trace.complete(step, 1'000'000, 250'000, /*seq=*/7);
  trace.instant(tick, 1'500'000, /*seq=*/8);
  trace.complete(step, 2'000'000, 125'000, /*seq=*/9);
  std::vector<obs::TraceCollector::Span> drained;
  ASSERT_EQ(trace.drain(drained), 3u);

  WireEncoder encoder;
  const auto first = encoder.take_spans_frame(drained, trace, /*send_wall_ns=*/555);
  FrameDecoder decoder;
  ObsRecordingSink sink;
  ASSERT_TRUE(decoder.consume(first.data(), first.size(), sink)) << decoder.error();
  EXPECT_EQ(decoder.spans_decoded(), 3u);

  ASSERT_EQ(sink.spans.size(), 1u);
  EXPECT_EQ(sink.span_stamps[0], 555);
  const auto& got = sink.spans[0];
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].name, "agent/step");
  EXPECT_EQ(got[0].ts_ns, 1'000'000);
  EXPECT_EQ(got[0].dur_ns, 250'000);
  EXPECT_EQ(got[0].seq, 7u);
  EXPECT_EQ(got[1].name, "agent/tick");
  EXPECT_EQ(got[1].ts_ns, 1'500'000);
  EXPECT_LT(got[1].dur_ns, 0);  // Instant event.
  EXPECT_EQ(got[2].ts_ns, 2'000'000);

  // A second frame with the same names reuses the dictionary: smaller.
  trace.complete(step, 3'000'000, 100'000, 10);
  drained.clear();
  trace.drain(drained);
  const auto second = encoder.take_spans_frame(drained, trace, 556);
  EXPECT_LT(second.size(), first.size());
  ASSERT_TRUE(decoder.consume(second.data(), second.size(), sink));
  ASSERT_EQ(sink.spans.size(), 2u);
  EXPECT_EQ(sink.spans[1][0].name, "agent/step");
}

TEST(WireObs, BatchAndObsFramesShareOneDictionaryStream) {
  obs::MetricsRegistry registry;
  registry.counter("net.client.records_dropped").add(3);
  WireEncoder encoder;
  encoder.add(make_estimate(250'000'000, 30.0));
  const auto batch1 = encoder.take_batch_frame();
  const auto obs_frame = encoder.take_metrics_frame(registry.snapshot(), 1);
  encoder.add_metric("net.client.records_dropped", obs::MetricKind::kCounter, 3.0);
  const auto batch2 = encoder.take_batch_frame();

  FrameDecoder decoder;
  ObsRecordingSink sink;
  ASSERT_TRUE(decoder.consume(batch1.data(), batch1.size(), sink));
  ASSERT_TRUE(decoder.consume(obs_frame.data(), obs_frame.size(), sink))
      << decoder.error();
  ASSERT_TRUE(decoder.consume(batch2.data(), batch2.size(), sink))
      << decoder.error();
  ASSERT_EQ(sink.snapshots.size(), 1u);
  EXPECT_EQ(sink.snapshots[0].value_of("net.client.records_dropped"), 3.0);
  // The batch metric record resolves against the id the obs frame interned.
  ASSERT_EQ(sink.metrics.size(), 1u);
  EXPECT_EQ(sink.metrics[0].first, "net.client.records_dropped");
}

TEST(WireObs, UnknownObsPayloadVersionPoisonsTheDecoder) {
  std::vector<std::uint8_t> payload;
  payload.push_back(kObsPayloadVersion + 1);  // Future payload version.
  payload.push_back(0);                       // (would be send_wall_ns)
  const auto frame = WireEncoder::make_frame(FrameType::kMetricsSnapshot, payload);
  FrameDecoder decoder;
  ObsRecordingSink sink;
  EXPECT_FALSE(decoder.consume(frame.data(), frame.size(), sink));
  EXPECT_TRUE(decoder.failed());
  EXPECT_NE(decoder.error().find("version"), std::string::npos) << decoder.error();
}

// --- TraceMerger ---

TEST(TraceMerger, RecoversInjectedClockOffsetsUnderOneMillisecond) {
  obs::TraceMerger merger;
  const auto collector = merger.add_source("collector");
  merger.set_offset(collector, 0);
  const auto a0 = merger.add_source("agent0");
  const auto a1 = merger.add_source("agent1");

  // agent0's clock is 5 s behind collector time, agent1's is 2 s ahead.
  const std::int64_t off0 = 5'000'000'000;
  const std::int64_t off1 = -2'000'000'000;
  // Transit delays between 100 µs and 800 µs: the min-delay estimator must
  // land within the smallest transit (100 µs) of the injected offset.
  for (int i = 0; i < 8; ++i) {
    const std::int64_t send = 1'000'000'000 + i * 50'000'000;
    const std::int64_t transit = 100'000 + (7 - i) * 100'000;
    merger.observe_offset(a0, send, send + off0 + transit);
    merger.observe_offset(a1, send, send + off1 + transit);
  }
  ASSERT_TRUE(merger.has_offset(a0));
  ASSERT_TRUE(merger.has_offset(a1));
  EXPECT_NEAR(static_cast<double>(merger.offset_ns(a0)), static_cast<double>(off0),
              1e6);
  EXPECT_NEAR(static_cast<double>(merger.offset_ns(a1)), static_cast<double>(off1),
              1e6);

  merger.add_span(a0, "agent/run", 1, /*ts_ns=*/0, /*dur_ns=*/2'000'000, 1);
  merger.add_span(a1, "agent/run", 1, 7'000'000'000, 1'000'000, 2);
  merger.add_span(collector, "collector/drain", 0, 4'999'000'000, 500'000, 3);
  merger.set_dropped(a0, 4);
  EXPECT_EQ(merger.size(), 3u);

  std::ostringstream out;
  merger.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonReader(json).valid()) << json.substr(0, 200);
  EXPECT_NE(json.find("\"agent0\""), std::string::npos);
  EXPECT_NE(json.find("\"agent1\""), std::string::npos);
  EXPECT_NE(json.find("\"collector\""), std::string::npos);
  EXPECT_NE(json.find("clock_offset_ns"), std::string::npos);
  EXPECT_NE(json.find("spans_dropped"), std::string::npos);
  // agent0's span at local ts 0 rebases to offset + min-transit error:
  // (5'000'000'000 + 100'000) ns = 5000100 µs, exactly.
  EXPECT_NE(json.find("\"ts\":5000100.000"), std::string::npos) << json;
  // Spans are ordered by rebased collector time: the collector's span at
  // 4.9995 s precedes agent0's (5.0001 s) which precedes agent1's (5.0001+).
  const auto collector_pos = json.find("collector/drain");
  const auto a0_pos = json.find("\"ts\":5000100.000");
  ASSERT_NE(collector_pos, std::string::npos);
  ASSERT_NE(a0_pos, std::string::npos);
  EXPECT_LT(collector_pos, a0_pos);
}

// --- WatchdogActor ---

/// Collects raw payloads of one type from a topic.
template <typename T>
class PayloadCollector final : public actors::Actor {
 public:
  void receive(actors::Envelope& envelope) override {
    if (const T* value = envelope.payload.get<T>()) items.push_back(*value);
  }
  std::vector<T> items;
};

struct WatchdogHarness {
  explicit WatchdogHarness(WatchdogOptions options = {})
      : bus(actors) {
    auto collector = std::make_unique<PayloadCollector<Alert>>();
    alerts = &collector->items;
    bus.subscribe("obs/alert", actors.spawn("alerts", std::move(collector)));
    auto actor = std::make_unique<WatchdogActor>(
        bus, [this] { return sample; }, options);
    watchdog = actor.get();
    ref = actors.spawn("watchdog", std::move(actor));
  }
  ~WatchdogHarness() { actors.shutdown(); }

  void tick(std::int64_t now_ns) {
    actors.tell(ref, actors::Payload(WatchdogTick{now_ns}));
    actors.drain();
  }

  WatchdogSample::Agent& agent(std::size_t index = 0) {
    while (sample.agents.size() <= index) {
      WatchdogSample::Agent fresh;
      fresh.label = "h" + std::to_string(sample.agents.size());
      fresh.connected = true;
      sample.agents.push_back(std::move(fresh));
    }
    return sample.agents[index];
  }

  actors::ActorSystem actors;
  actors::EventBus bus;
  WatchdogSample sample;
  std::vector<Alert>* alerts = nullptr;
  WatchdogActor* watchdog = nullptr;
  actors::ActorRef ref;
};

TEST(Watchdog, DropSpikeAlertsOnPerTickDelta) {
  WatchdogHarness h;
  h.agent().records_dropped = 0;
  h.tick(0);  // Baseline tick: no delta yet.
  EXPECT_TRUE(h.alerts->empty());

  h.agent().records_dropped = 500;  // Delta 500 > default threshold 100.
  h.tick(seconds_to_ns(2));
  ASSERT_EQ(h.alerts->size(), 1u);
  EXPECT_EQ((*h.alerts)[0].kind, Alert::Kind::kDropSpike);
  EXPECT_EQ((*h.alerts)[0].agent, "h0");
  EXPECT_DOUBLE_EQ((*h.alerts)[0].value, 500.0);
  EXPECT_DOUBLE_EQ((*h.alerts)[0].threshold, 100.0);
  EXPECT_EQ((*h.alerts)[0].wall_ns, seconds_to_ns(2));

  // A steady counter produces no further alerts.
  h.tick(seconds_to_ns(4));
  EXPECT_EQ(h.alerts->size(), 1u);
  EXPECT_EQ(h.watchdog->alerts_raised(), 1u);
}

TEST(Watchdog, CounterResetRebaselinesWithoutAlerting) {
  WatchdogHarness h;
  h.agent().records_dropped = 500;
  h.tick(0);  // Baseline at 500.
  // Reconnect reset the agent's counters: smaller value, no alert.
  h.agent().records_dropped = 0;
  h.tick(seconds_to_ns(2));
  EXPECT_TRUE(h.alerts->empty());
  // Deltas accumulate against the new baseline.
  h.agent().records_dropped = 200;
  h.tick(seconds_to_ns(4));
  ASSERT_EQ(h.alerts->size(), 1u);
  EXPECT_EQ((*h.alerts)[0].kind, Alert::Kind::kDropSpike);
  EXPECT_DOUBLE_EQ((*h.alerts)[0].value, 200.0);
}

TEST(Watchdog, ReconnectStormAlerts) {
  WatchdogHarness h;
  h.agent().reconnects = 1;
  h.tick(0);
  h.agent().reconnects = 6;  // Delta 5 > default threshold 3.
  h.tick(seconds_to_ns(2));
  ASSERT_EQ(h.alerts->size(), 1u);
  EXPECT_EQ((*h.alerts)[0].kind, Alert::Kind::kReconnectStorm);
  EXPECT_DOUBLE_EQ((*h.alerts)[0].value, 5.0);
}

TEST(Watchdog, StaleConnectedAgentAlerts) {
  WatchdogHarness h;
  h.agent().last_activity_wall_ns = seconds_to_ns(1);
  h.tick(seconds_to_ns(2));  // 1 s silent: under the 5 s default.
  EXPECT_TRUE(h.alerts->empty());
  h.tick(seconds_to_ns(8));  // 7 s silent: stale.
  ASSERT_EQ(h.alerts->size(), 1u);
  EXPECT_EQ((*h.alerts)[0].kind, Alert::Kind::kStale);
  EXPECT_EQ((*h.alerts)[0].agent, "h0");

  // A disconnected agent is never stale (it is already accounted dead).
  h.alerts->clear();
  h.agent().connected = false;
  h.tick(seconds_to_ns(20));
  EXPECT_TRUE(h.alerts->empty());
}

TEST(Watchdog, SelfWattsBudgetAlerts) {
  WatchdogOptions options;
  options.self_watts_budget = 2.0;
  WatchdogHarness h(options);
  h.sample.fleet_self_watts = 1.5;
  h.tick(0);
  EXPECT_TRUE(h.alerts->empty());
  h.sample.fleet_self_watts = 3.25;
  h.tick(seconds_to_ns(2));
  ASSERT_EQ(h.alerts->size(), 1u);
  EXPECT_EQ((*h.alerts)[0].kind, Alert::Kind::kSelfWattsBudget);
  EXPECT_TRUE((*h.alerts)[0].agent.empty());  // Fleet-wide alert.
  EXPECT_DOUBLE_EQ((*h.alerts)[0].value, 3.25);
}

TEST(Watchdog, RepeatsAreRateLimitedAndCounted) {
  obs::Observability obs;
  WatchdogOptions options;
  options.self_watts_budget = 1.0;
  options.min_alert_interval_ns = seconds_to_ns(1);
  options.obs = &obs;
  WatchdogHarness h(options);
  h.sample.fleet_self_watts = 5.0;  // Breaches on every tick.

  h.tick(0);  // Raised (even at now_ns == 0).
  h.tick(200'000'000);
  h.tick(400'000'000);  // Both inside the interval: suppressed.
  EXPECT_EQ(h.alerts->size(), 1u);
  EXPECT_EQ(h.watchdog->alerts_raised(), 1u);
  EXPECT_EQ(h.watchdog->alerts_suppressed(), 2u);

  h.tick(seconds_to_ns(2));  // Past the interval: raised again.
  EXPECT_EQ(h.alerts->size(), 2u);
  EXPECT_EQ(h.watchdog->alerts_raised(), 2u);

  const auto snapshot = obs.metrics.snapshot();
  EXPECT_EQ(snapshot.value_of("obs.watchdog.alerts"), 2.0);
  EXPECT_EQ(snapshot.value_of("obs.watchdog.suppressed"), 2.0);
}

// --- BusBridge remote-metric gauges ---

struct BridgeHarness {
  BridgeHarness() : bus(actors) {}
  ~BridgeHarness() { actors.shutdown(); }
  actors::ActorSystem actors;
  actors::EventBus bus;
};

obs::MetricsSnapshot snapshot_with_counter(std::string_view name, double value) {
  obs::MetricsRegistry registry;
  registry.counter(std::string(name)).add(static_cast<std::uint64_t>(value));
  return registry.snapshot();
}

TEST(BusBridge, StaleAgentGaugesAreWithheldFromSnapshots) {
  BridgeHarness h;
  obs::Observability obs;
  BusBridgeOptions options;
  options.obs = &obs;
  options.metrics_stale_after_ns = seconds_to_ns(5);
  BusBridge bridge(h.bus, options);
  auto now = std::make_shared<std::int64_t>(seconds_to_ns(1));
  bridge.set_clock([now] { return *now; });

  bridge.on_connect(1);
  bridge.on_hello(1, "h0", kWireVersion);
  bridge.on_metric(1, "queue.depth", obs::MetricKind::kGauge, 9.0);
  EXPECT_EQ(obs.metrics.snapshot().value_of("remote.h0.queue.depth", -1.0), 9.0);

  // 4 s of silence: still fresh.
  *now = seconds_to_ns(5);
  EXPECT_EQ(obs.metrics.snapshot().value_of("remote.h0.queue.depth", -1.0), 9.0);

  // 7 s of silence: withheld, not served stale.
  *now = seconds_to_ns(8);
  EXPECT_EQ(obs.metrics.snapshot().find("remote.h0.queue.depth"), nullptr);

  // The agent speaking again revives its gauges.
  bridge.on_metric(1, "queue.depth", obs::MetricKind::kGauge, 11.0);
  EXPECT_EQ(obs.metrics.snapshot().value_of("remote.h0.queue.depth", -1.0), 11.0);
}

TEST(BusBridge, ReconnectStartsFromACleanMetricSlate) {
  BridgeHarness h;
  obs::Observability obs;
  BusBridgeOptions options;
  options.obs = &obs;
  BusBridge bridge(h.bus, options);

  bridge.on_connect(1);
  bridge.on_hello(1, "h0", kWireVersion);
  bridge.on_metric(1, "only.first.life", obs::MetricKind::kCounter, 5.0);
  bridge.on_metric(1, "queue.depth", obs::MetricKind::kGauge, 5.0);
  EXPECT_EQ(obs.metrics.snapshot().value_of("remote.h0.queue.depth", -1.0), 5.0);

  // Disconnect: every gauge of that agent vanishes with it.
  bridge.on_disconnect(1, "io");
  EXPECT_EQ(obs.metrics.snapshot().find("remote.h0.queue.depth"), nullptr);
  EXPECT_EQ(obs.metrics.snapshot().find("remote.h0.only.first.life"), nullptr);

  // Reconnect under a new conn id, same hello id: clean slate.
  bridge.on_connect(2);
  bridge.on_hello(2, "h0", kWireVersion);
  bridge.on_metric(2, "queue.depth", obs::MetricKind::kGauge, 1.0);
  const auto snapshot = obs.metrics.snapshot();
  EXPECT_EQ(snapshot.value_of("remote.h0.queue.depth", -1.0), 1.0);
  EXPECT_EQ(snapshot.find("remote.h0.only.first.life"), nullptr);
}

TEST(BusBridge, DuplicateHelloIdsKeepDistinctMetricNamespaces) {
  BridgeHarness h;
  obs::Observability obs;
  BusBridgeOptions options;
  options.obs = &obs;
  BusBridge bridge(h.bus, options);

  bridge.on_connect(1);
  bridge.on_hello(1, "h0", kWireVersion);
  bridge.on_connect(2);
  bridge.on_hello(2, "h0", kWireVersion);  // Same id while conn 1 is live.
  bridge.on_metric(1, "queue.depth", obs::MetricKind::kGauge, 1.0);
  bridge.on_metric(2, "queue.depth", obs::MetricKind::kGauge, 2.0);

  const auto snapshot = obs.metrics.snapshot();
  EXPECT_EQ(snapshot.value_of("remote.h0.queue.depth", -1.0), 1.0);
  EXPECT_EQ(snapshot.value_of("remote.h0#2.queue.depth", -1.0), 2.0);
  EXPECT_EQ(bridge.live_agents(), 2u);
}

TEST(BusBridge, SnapshotFramesFlattenHistogramsIntoGauges) {
  BridgeHarness h;
  obs::Observability obs;
  BusBridgeOptions options;
  options.obs = &obs;
  BusBridge bridge(h.bus, options);
  bridge.on_connect(1);
  bridge.on_hello(1, "h0", kWireVersion);

  obs::MetricsRegistry remote;
  remote.counter("work.count").add(7);
  obs::Histogram& hist = remote.histogram("tick.latency_ns");
  for (int i = 0; i < 10; ++i) hist.record(1000);
  bridge.on_metrics_snapshot(1, /*send=*/1, /*recv=*/2, remote.snapshot());

  const auto snapshot = obs.metrics.snapshot();
  EXPECT_EQ(snapshot.value_of("remote.h0.obs.work.count", -1.0), 7.0);
  EXPECT_EQ(snapshot.value_of("remote.h0.obs.tick.latency_ns.count", -1.0), 10.0);
  EXPECT_DOUBLE_EQ(snapshot.value_of("remote.h0.obs.tick.latency_ns.mean"), 1000.0);
  // p99 interpolates within the bucket, so just require it lands near.
  EXPECT_NEAR(snapshot.value_of("remote.h0.obs.tick.latency_ns.p99"), 1000.0, 50.0);
}

// --- CollectorStatus + StatusListener ---

struct NullSink : CollectorSink {};

TEST(CollectorStatus, TracksAgentsOffsetsAndSelfWatts) {
  NullSink next;
  obs::TraceMerger merger;
  auto now = std::make_shared<std::int64_t>(seconds_to_ns(10));
  CollectorStatusOptions options;
  options.merger = &merger;
  options.clock = [now] { return *now; };
  CollectorStatus status(next, options);

  status.on_connect(1);
  status.on_hello(1, "h0", kWireVersion);
  status.on_estimate(1, make_estimate(1, 30.0));

  obs::MetricsRegistry remote;
  remote.gauge("self.watts").set(0.25);
  remote.counter("net.client.records_dropped").add(12);
  remote.counter("net.client.reconnects").add(2);
  remote.counter("obs.trace.spans_dropped").add(3);
  // recv - send = 4 ms: becomes the offset estimate (single observation).
  status.on_metrics_snapshot(1, /*send=*/seconds_to_ns(9),
                             /*recv=*/seconds_to_ns(9) + 4'000'000,
                             remote.snapshot());
  status.on_spans(1, seconds_to_ns(9), seconds_to_ns(9) + 5'000'000,
                  {{"agent/run", 1, 100, 200, 1}});

  const auto agents = status.agents();
  ASSERT_EQ(agents.size(), 1u);
  EXPECT_EQ(agents[0].label, "h0");
  EXPECT_TRUE(agents[0].connected);
  EXPECT_EQ(agents[0].estimates, 1u);
  EXPECT_EQ(agents[0].snapshots, 1u);
  EXPECT_EQ(agents[0].spans, 1u);
  EXPECT_DOUBLE_EQ(agents[0].self_watts, 0.25);
  EXPECT_EQ(agents[0].records_dropped, 12u);
  EXPECT_EQ(agents[0].reconnects, 2u);
  EXPECT_TRUE(agents[0].has_offset);
  EXPECT_LE(agents[0].clock_offset_ns, 5'000'000);
  EXPECT_DOUBLE_EQ(status.fleet_self_watts(), 0.25);
  EXPECT_EQ(merger.size(), 1u);

  const WatchdogSample sample = status.watchdog_sample();
  ASSERT_EQ(sample.agents.size(), 1u);
  EXPECT_EQ(sample.agents[0].label, "h0");
  EXPECT_EQ(sample.agents[0].records_dropped, 12u);
  EXPECT_DOUBLE_EQ(sample.fleet_self_watts, 0.25);

  std::ostringstream text;
  status.render_text(text);
  EXPECT_NE(text.str().find("h0"), std::string::npos);
  std::ostringstream json;
  status.render_json(json);
  EXPECT_TRUE(JsonReader(json.str()).valid()) << json.str();
  EXPECT_NE(json.str().find("\"h0\""), std::string::npos);

  // Disconnect moves the agent to post-mortem retention.
  status.on_disconnect(1, "bye");
  const auto after = status.agents();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_FALSE(after[0].connected);
  EXPECT_EQ(after[0].disconnect_reason, "bye");
  EXPECT_DOUBLE_EQ(status.fleet_self_watts(), 0.0);
}

TEST(StatusListener, ServesTextAndJsonOverTcp) {
  NullSink next;
  CollectorStatus status(next, {});
  status.on_connect(1);
  status.on_hello(1, "agent-x", kWireVersion);

  StatusListener listener(0, [&status](std::ostream& out, bool json) {
    json ? status.render_json(out) : status.render_text(out);
  });
  ASSERT_TRUE(listener.listening()) << listener.error();

  auto query = [&listener](const std::string& command) {
    std::string error;
    Socket client = connect_tcp("127.0.0.1", listener.port(), &error);
    EXPECT_TRUE(client.valid()) << error;
    std::string response;
    bool sent = false;
    for (int i = 0; i < 400; ++i) {
      listener.poll_once(1);
      if (!sent) {
        const ssize_t n = ::send(client.fd(), command.data(), command.size(),
                                 MSG_NOSIGNAL);
        if (n == static_cast<ssize_t>(command.size())) sent = true;
        continue;
      }
      char buffer[4096];
      const ssize_t n = ::recv(client.fd(), buffer, sizeof buffer, MSG_DONTWAIT);
      if (n > 0) response.append(buffer, static_cast<std::size_t>(n));
      if (!response.empty() && response.back() == '\n' && n <= 0) break;
    }
    return response;
  };

  const std::string text = query("status\n");
  EXPECT_NE(text.find("agent-x"), std::string::npos) << text;

  const std::string json = query("json\n");
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(JsonReader(json).valid()) << json;
  EXPECT_NE(json.find("\"agent-x\""), std::string::npos);
}

// --- End to end over loopback ---

TelemetryClientOptions fast_client(std::uint16_t port) {
  TelemetryClientOptions options;
  options.port = port;
  options.agent_id = "h7";
  options.flush_interval_ms = 1;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 8;
  return options;
}

TEST(Loopback, ObsPlaneFlowsEndToEnd) {
  actors::ActorSystem system;
  actors::EventBus bus(system);
  obs::Observability collector_obs;
  BusBridgeOptions bridge_options;
  bridge_options.obs = &collector_obs;
  BusBridge bridge(bus, bridge_options);
  obs::TraceMerger merger;
  CollectorStatusOptions status_options;
  status_options.merger = &merger;
  CollectorStatus status(bridge, status_options);
  CollectorServer server({}, status);
  ASSERT_TRUE(server.listening()) << server.error();
  status.attach_server(&server);

  obs::Observability agent_obs;
  TelemetryClientOptions client_options = fast_client(server.port());
  client_options.obs = &agent_obs;
  client_options.obs_interval_ms = 1;
  TelemetryClient client(client_options);

  for (int i = 0; i < 2000 && !client.connected(); ++i) {
    client.poll_once(1);
    server.poll_once(1);
  }
  ASSERT_TRUE(client.connected());

  agent_obs.metrics.counter("agent.work").add(42);
  const auto step = agent_obs.trace.intern("agent/step");
  agent_obs.trace.complete(step, obs::wall_now_ns(), 1'000'000, 1);
  client.report(make_estimate(seconds_to_ns(1), 31.0));

  for (int i = 0; i < 2000; ++i) {
    client.poll_once(1);
    server.poll_once(1);
    system.drain();
    const auto stats = server.stats();
    if (stats.snapshots_decoded >= 2 && stats.spans_decoded >= 1) break;
  }
  const auto server_stats = server.stats();
  ASSERT_GE(server_stats.snapshots_decoded, 2u);
  ASSERT_GE(server_stats.spans_decoded, 1u);
  EXPECT_GE(client.stats().obs_frames_sent, 2u);

  // The status ledger saw the agent's obs plane.
  const auto agents = status.agents();
  ASSERT_EQ(agents.size(), 1u);
  EXPECT_EQ(agents[0].label, "h7");
  EXPECT_GE(agents[0].snapshots, 2u);
  EXPECT_GE(agents[0].spans, 1u);
  ASSERT_TRUE(agents[0].has_offset);
  // Same process, same clock: the offset is pure transit, tiny and >= 0.
  EXPECT_GE(agents[0].clock_offset_ns, 0);
  EXPECT_LT(agents[0].clock_offset_ns, seconds_to_ns(1));

  // Remote metrics re-exported at the collector; spans in the merger.
  EXPECT_EQ(collector_obs.metrics.snapshot().value_of("remote.h7.obs.agent.work",
                                                      -1.0),
            42.0);
  EXPECT_GE(merger.size(), 1u);

  // The estimate still flows through the bridge exactly as in PR 5.
  EXPECT_GE(server_stats.records_decoded, 1u);

  client.stop();
  for (int i = 0; i < 200 && server.connection_count() > 0; ++i) {
    server.poll_once(1);
  }
  // The agent's gauges vanished with it.
  EXPECT_EQ(collector_obs.metrics.snapshot().find("remote.h7.obs.agent.work"),
            nullptr);
  const auto after = status.agents();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_FALSE(after[0].connected);
  EXPECT_EQ(after[0].disconnect_reason, "bye");
}

TEST(Loopback, ObsCadenceOffSendsNoObsFrames) {
  NullSink sink;
  CollectorServer server({}, sink);
  ASSERT_TRUE(server.listening()) << server.error();

  obs::Observability agent_obs;
  TelemetryClientOptions options = fast_client(server.port());
  options.obs = &agent_obs;  // obs wired, but obs_interval_ms stays 0.
  TelemetryClient client(options);
  for (int i = 0; i < 2000 && !client.connected(); ++i) {
    client.poll_once(1);
    server.poll_once(1);
  }
  ASSERT_TRUE(client.connected());

  agent_obs.trace.complete(agent_obs.trace.intern("agent/step"),
                           obs::wall_now_ns(), 1000, 1);
  client.report(make_estimate(seconds_to_ns(1), 31.0));
  ASSERT_TRUE(client.flush(2000));
  for (int i = 0; i < 20; ++i) {
    client.poll_once(1);
    server.poll_once(1);
  }
  client.stop();
  for (int i = 0; i < 200 && server.connection_count() > 0; ++i) {
    server.poll_once(1);
  }

  EXPECT_EQ(client.stats().obs_frames_sent, 0u);
  const auto stats = server.stats();
  EXPECT_EQ(stats.snapshots_decoded, 0u);
  EXPECT_EQ(stats.spans_decoded, 0u);
  EXPECT_GE(stats.records_decoded, 1u);
  EXPECT_EQ(stats.decode_errors, 0u);
  // Every byte the client sent was a plain PR 5 frame.
  EXPECT_EQ(client.stats().bytes_sent, stats.bytes_received);
}

}  // namespace
}  // namespace powerapi::net
