// Tests for the telemetry wire: frame encode/decode (including torn and
// malformed input), the TelemetryClient/CollectorServer loopback pair in
// deterministic manual-poll mode, fault injection (garbage connections,
// server restarts, mid-stream disconnects, slow readers), and the BusBridge
// republishing decoded telemetry onto a local event bus.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "actors/actor_system.h"
#include "actors/event_bus.h"
#include "net/bus_bridge.h"
#include "net/collector_server.h"
#include "net/socket.h"
#include "net/telemetry_client.h"
#include "net/wire.h"
#include "obs/observability.h"

namespace powerapi::net {
namespace {

using util::seconds_to_ns;

api::PowerEstimate make_estimate(std::int64_t second, double watts,
                                 std::string formula = "powerapi-hpc",
                                 std::int64_t pid = api::kMachinePid) {
  api::PowerEstimate e;
  e.timestamp = seconds_to_ns(second);
  e.pid = pid;
  e.formula = std::move(formula);
  e.watts = watts;
  e.model_version = 3;
  return e;
}

api::AggregatedPower make_aggregated(std::int64_t second, double watts,
                                     std::string group = "(fleet)") {
  api::AggregatedPower row;
  row.timestamp = seconds_to_ns(second);
  row.pid = api::kMachinePid;
  row.group = std::move(group);
  row.formula = "powerapi-hpc";
  row.watts = watts;
  return row;
}

/// WireSink recording everything it decodes.
struct RecordingSink : WireSink {
  void on_hello(std::string_view agent_id, std::uint8_t version) override {
    hellos.emplace_back(agent_id, version);
  }
  void on_estimate(const api::PowerEstimate& estimate) override {
    estimates.push_back(estimate);
  }
  void on_aggregated(const api::AggregatedPower& row) override {
    aggregated.push_back(row);
  }
  void on_metric(std::string_view name, obs::MetricKind kind, double value) override {
    metrics.push_back({std::string(name), kind, value});
  }
  void on_bye() override { ++byes; }

  struct Metric {
    std::string name;
    obs::MetricKind kind;
    double value;
  };
  std::vector<std::pair<std::string, std::uint8_t>> hellos;
  std::vector<api::PowerEstimate> estimates;
  std::vector<api::AggregatedPower> aggregated;
  std::vector<Metric> metrics;
  int byes = 0;
};

// --- Wire format ---

TEST(Wire, BatchRoundTripsAllRecordTypes) {
  WireEncoder encoder;
  const auto e1 = make_estimate(1, 31.48);
  const auto e2 = make_estimate(2, 0.1 + 0.2, "cpu-load", 42);  // Inexact sum:
  // only a bit-exact f64 encoding round-trips it to EXPECT_DOUBLE_EQ.
  const auto agg = make_aggregated(2, 123.456);
  encoder.add(e1);
  encoder.add(e2);
  encoder.add(agg);
  encoder.add_metric("actors.messages", obs::MetricKind::kCounter, 9001.0);
  EXPECT_EQ(encoder.pending_records(), 4u);

  FrameDecoder decoder;
  RecordingSink sink;
  const auto frame = encoder.take_batch_frame();
  EXPECT_EQ(encoder.pending_records(), 0u);
  ASSERT_TRUE(decoder.consume(frame.data(), frame.size(), sink));
  EXPECT_EQ(decoder.frames_decoded(), 1u);
  EXPECT_EQ(decoder.records_decoded(), 4u);

  ASSERT_EQ(sink.estimates.size(), 2u);
  EXPECT_EQ(sink.estimates[0].timestamp, e1.timestamp);
  EXPECT_EQ(sink.estimates[0].pid, api::kMachinePid);
  EXPECT_EQ(sink.estimates[0].formula, "powerapi-hpc");
  EXPECT_DOUBLE_EQ(sink.estimates[0].watts, 31.48);
  EXPECT_EQ(sink.estimates[0].model_version, 3u);
  EXPECT_EQ(sink.estimates[1].timestamp, e2.timestamp);
  EXPECT_EQ(sink.estimates[1].pid, 42);
  EXPECT_EQ(sink.estimates[1].formula, "cpu-load");
  EXPECT_DOUBLE_EQ(sink.estimates[1].watts, 0.1 + 0.2);

  ASSERT_EQ(sink.aggregated.size(), 1u);
  EXPECT_EQ(sink.aggregated[0].timestamp, agg.timestamp);
  EXPECT_EQ(sink.aggregated[0].group, "(fleet)");
  EXPECT_EQ(sink.aggregated[0].formula, "powerapi-hpc");
  EXPECT_DOUBLE_EQ(sink.aggregated[0].watts, 123.456);

  ASSERT_EQ(sink.metrics.size(), 1u);
  EXPECT_EQ(sink.metrics[0].name, "actors.messages");
  EXPECT_EQ(sink.metrics[0].kind, obs::MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(sink.metrics[0].value, 9001.0);
}

TEST(Wire, DictionaryInterningShrinksRepeatBatches) {
  WireEncoder encoder;
  encoder.add(make_estimate(1, 30.0));
  const auto first = encoder.take_batch_frame();
  encoder.add(make_estimate(2, 31.0));  // Same formula: id only, no dict entry.
  const auto second = encoder.take_batch_frame();
  EXPECT_LT(second.size(), first.size());

  // Both decode against one connection's stream state.
  FrameDecoder decoder;
  RecordingSink sink;
  ASSERT_TRUE(decoder.consume(first.data(), first.size(), sink));
  ASSERT_TRUE(decoder.consume(second.data(), second.size(), sink));
  ASSERT_EQ(sink.estimates.size(), 2u);
  EXPECT_EQ(sink.estimates[1].formula, "powerapi-hpc");
  EXPECT_EQ(sink.estimates[1].timestamp, seconds_to_ns(2));
}

TEST(Wire, TimestampDeltasSurviveNonMonotonicStreams) {
  // Aggregators can emit slightly out-of-order timestamps across formulas;
  // zigzag deltas must round-trip a regression, not corrupt the base.
  WireEncoder encoder;
  encoder.add(make_estimate(5, 1.0));
  encoder.add(make_estimate(3, 2.0));  // Negative delta.
  encoder.add(make_estimate(8, 3.0));
  const auto frame = encoder.take_batch_frame();
  FrameDecoder decoder;
  RecordingSink sink;
  ASSERT_TRUE(decoder.consume(frame.data(), frame.size(), sink));
  ASSERT_EQ(sink.estimates.size(), 3u);
  EXPECT_EQ(sink.estimates[0].timestamp, seconds_to_ns(5));
  EXPECT_EQ(sink.estimates[1].timestamp, seconds_to_ns(3));
  EXPECT_EQ(sink.estimates[2].timestamp, seconds_to_ns(8));
}

TEST(Wire, HelloAndByeFrames) {
  const auto hello = WireEncoder::hello_frame("agent-7");
  const auto bye = WireEncoder::bye_frame();
  FrameDecoder decoder;
  RecordingSink sink;
  ASSERT_TRUE(decoder.consume(hello.data(), hello.size(), sink));
  ASSERT_TRUE(decoder.consume(bye.data(), bye.size(), sink));
  ASSERT_EQ(sink.hellos.size(), 1u);
  EXPECT_EQ(sink.hellos[0].first, "agent-7");
  EXPECT_EQ(sink.hellos[0].second, kWireVersion);
  EXPECT_EQ(sink.byes, 1);
}

TEST(Wire, TornFramesDecodeByteByByte) {
  WireEncoder encoder;
  std::vector<std::uint8_t> stream = WireEncoder::hello_frame("torn");
  encoder.add(make_estimate(1, 31.48));
  encoder.add(make_aggregated(1, 99.0));
  const auto batch = encoder.take_batch_frame();
  stream.insert(stream.end(), batch.begin(), batch.end());

  FrameDecoder decoder;
  RecordingSink sink;
  for (const std::uint8_t byte : stream) {
    ASSERT_TRUE(decoder.consume(&byte, 1, sink));
  }
  EXPECT_EQ(decoder.frames_decoded(), 2u);
  ASSERT_EQ(sink.hellos.size(), 1u);
  ASSERT_EQ(sink.estimates.size(), 1u);
  ASSERT_EQ(sink.aggregated.size(), 1u);
  EXPECT_DOUBLE_EQ(sink.estimates[0].watts, 31.48);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(Wire, MalformedFramesPoisonTheDecoder) {
  WireEncoder encoder;
  encoder.add(make_estimate(1, 10.0));
  const auto good = encoder.take_batch_frame();

  struct Case {
    const char* name;
    std::function<std::vector<std::uint8_t>(std::vector<std::uint8_t>)> corrupt;
    const char* expect_error;
  };
  const Case cases[] = {
      {"bad magic",
       [](auto f) { f[0] ^= 0xFF; return f; }, "bad frame magic"},
      {"bad version",
       [](auto f) { f[4] = 99; return f; }, "unsupported wire version"},
      {"corrupt crc",
       [](auto f) { f[10] ^= 0x01; return f; }, "crc32c mismatch"},
      {"flipped payload byte",
       [](auto f) { f.back() ^= 0x80; return f; }, "crc32c mismatch"},
      {"hostile length",
       [](auto f) {
         f[6] = 0xFF; f[7] = 0xFF; f[8] = 0xFF; f[9] = 0x7F;
         return f;
       },
       "exceeds limit"},
  };
  for (const Case& c : cases) {
    FrameDecoder decoder;
    RecordingSink sink;
    const auto bad = c.corrupt(good);
    EXPECT_FALSE(decoder.consume(bad.data(), bad.size(), sink)) << c.name;
    EXPECT_TRUE(decoder.failed()) << c.name;
    EXPECT_NE(decoder.error().find(c.expect_error), std::string::npos)
        << c.name << ": " << decoder.error();
    EXPECT_TRUE(sink.estimates.empty()) << c.name;
    // Poisoned: even good input is rejected until reset().
    EXPECT_FALSE(decoder.consume(good.data(), good.size(), sink)) << c.name;
    decoder.reset();
    EXPECT_TRUE(decoder.consume(good.data(), good.size(), sink)) << c.name;
    EXPECT_EQ(sink.estimates.size(), 1u) << c.name;
  }
}

TEST(Wire, TruncatedAndOutOfSequenceRecordsRejected) {
  // A batch whose payload ends mid-record: CRC valid (recomputed), record
  // truncated.
  WireEncoder encoder;
  encoder.add(make_estimate(1, 10.0));
  const auto frame = encoder.take_batch_frame();
  const std::size_t payload_len = frame.size() - kFrameHeaderBytes;
  std::vector<std::uint8_t> payload(frame.begin() + kFrameHeaderBytes, frame.end());
  payload.resize(payload_len - 4);  // Chop the record's tail.
  const auto truncated = WireEncoder::make_frame(FrameType::kBatch, payload);
  {
    FrameDecoder decoder;
    RecordingSink sink;
    EXPECT_FALSE(decoder.consume(truncated.data(), truncated.size(), sink));
    EXPECT_NE(decoder.error().find("truncated"), std::string::npos)
        << decoder.error();
  }
  {
    // A dict record whose id skips ahead: ids must be dense in stream order.
    std::vector<std::uint8_t> rogue;
    rogue.push_back(1);  // kDict
    rogue.push_back(5);  // id 5 on a fresh connection (expects 0).
    rogue.push_back(1);  // strlen
    rogue.push_back('x');
    const auto bad = WireEncoder::make_frame(FrameType::kBatch, rogue);
    FrameDecoder decoder;
    RecordingSink sink;
    EXPECT_FALSE(decoder.consume(bad.data(), bad.size(), sink));
    EXPECT_NE(decoder.error().find("out of sequence"), std::string::npos)
        << decoder.error();
  }
  {
    // An estimate referencing an undefined dictionary id.
    std::vector<std::uint8_t> rogue;
    rogue.push_back(2);  // kEstimate
    rogue.push_back(0);  // ts delta 0
    rogue.push_back(0);  // pid 0
    rogue.push_back(9);  // formula id 9: never defined.
    for (int i = 0; i < 8; ++i) rogue.push_back(0);  // watts
    rogue.push_back(0);  // model version
    const auto bad = WireEncoder::make_frame(FrameType::kBatch, rogue);
    FrameDecoder decoder;
    RecordingSink sink;
    EXPECT_FALSE(decoder.consume(bad.data(), bad.size(), sink));
    EXPECT_NE(decoder.error().find("undefined"), std::string::npos)
        << decoder.error();
  }
}

// --- Client/server loopback (deterministic manual polling) ---

/// A CollectorSink recording per-connection events.
struct RecordingCollector : CollectorSink {
  void on_connect(ConnId conn) override { connects.push_back(conn); }
  void on_hello(ConnId conn, std::string_view agent_id, std::uint8_t) override {
    hellos.emplace_back(conn, std::string(agent_id));
  }
  void on_estimate(ConnId, const api::PowerEstimate& estimate) override {
    estimates.push_back(estimate);
  }
  void on_aggregated(ConnId, const api::AggregatedPower& row) override {
    aggregated.push_back(row);
  }
  void on_metric(ConnId, std::string_view name, obs::MetricKind,
                 double value) override {
    metrics.emplace_back(std::string(name), value);
  }
  void on_disconnect(ConnId conn, std::string_view reason) override {
    disconnects.emplace_back(conn, std::string(reason));
  }

  std::vector<ConnId> connects;
  std::vector<std::pair<ConnId, std::string>> hellos;
  std::vector<api::PowerEstimate> estimates;
  std::vector<api::AggregatedPower> aggregated;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<ConnId, std::string>> disconnects;
};

void pump(TelemetryClient& client, CollectorServer& server, int iterations) {
  for (int i = 0; i < iterations; ++i) {
    client.poll_once(1);
    server.poll_once(1);
  }
}

bool pump_until_connected(TelemetryClient& client, CollectorServer& server,
                          int max_iterations = 2000) {
  for (int i = 0; i < max_iterations && !client.connected(); ++i) {
    client.poll_once(1);
    server.poll_once(1);
  }
  return client.connected();
}

TelemetryClientOptions fast_client(std::uint16_t port) {
  TelemetryClientOptions options;
  options.port = port;
  options.agent_id = "test-agent";
  options.flush_interval_ms = 1;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 8;
  return options;
}

TEST(Loopback, RecordsFlowEndToEndBitExact) {
  RecordingCollector sink;
  CollectorServer server({}, sink);
  ASSERT_TRUE(server.listening()) << server.error();

  TelemetryClient client(fast_client(server.port()));
  ASSERT_TRUE(pump_until_connected(client, server));

  for (int i = 1; i <= 5; ++i) {
    client.report(make_estimate(i, 31.48 + 0.001 * i));
  }
  client.report(make_aggregated(3, 260.125));
  client.report_metric("actors.messages", obs::MetricKind::kCounter, 12345.0);
  ASSERT_TRUE(client.flush(2000));
  pump(client, server, 20);

  ASSERT_EQ(sink.hellos.size(), 1u);
  EXPECT_EQ(sink.hellos[0].second, "test-agent");
  ASSERT_EQ(sink.estimates.size(), 5u);
  for (int i = 1; i <= 5; ++i) {
    EXPECT_EQ(sink.estimates[i - 1].timestamp, seconds_to_ns(i));
    EXPECT_DOUBLE_EQ(sink.estimates[i - 1].watts, 31.48 + 0.001 * i);
  }
  ASSERT_EQ(sink.aggregated.size(), 1u);
  EXPECT_DOUBLE_EQ(sink.aggregated[0].watts, 260.125);
  ASSERT_EQ(sink.metrics.size(), 1u);
  EXPECT_EQ(sink.metrics[0].first, "actors.messages");

  const auto client_stats = client.stats();
  const auto server_stats = server.stats();
  EXPECT_EQ(client_stats.records_enqueued, 7u);
  EXPECT_EQ(client_stats.records_sent, 7u);
  EXPECT_EQ(client_stats.records_dropped, 0u);
  EXPECT_EQ(server_stats.records_decoded, 7u);
  EXPECT_EQ(server_stats.decode_errors, 0u);
  EXPECT_EQ(client_stats.bytes_sent, server_stats.bytes_received);

  client.stop();
  for (int i = 0; i < 50 && server.connection_count() > 0; ++i) {
    server.poll_once(1);
  }
  ASSERT_EQ(sink.disconnects.size(), 1u);
  EXPECT_EQ(sink.disconnects[0].second, "bye");  // Orderly shutdown.
  EXPECT_EQ(server.connection_count(), 0u);
}

TEST(Loopback, GarbageConnectionIsIsolated) {
  RecordingCollector sink;
  CollectorServer server({}, sink);
  ASSERT_TRUE(server.listening()) << server.error();

  TelemetryClient client(fast_client(server.port()));
  ASSERT_TRUE(pump_until_connected(client, server));

  // A rogue peer sends garbage on a raw socket.
  std::string error;
  Socket rogue = connect_tcp("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(rogue.valid()) << error;
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  for (int i = 0; i < 100 && server.connection_count() < 2; ++i) {
    server.poll_once(1);
  }
  ASSERT_EQ(::send(rogue.fd(), garbage, sizeof(garbage) - 1, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(garbage) - 1));
  for (int i = 0; i < 100 && server.stats().decode_errors == 0; ++i) {
    server.poll_once(1);
  }

  // The rogue connection died; the well-behaved client still works.
  EXPECT_EQ(server.stats().decode_errors, 1u);
  ASSERT_EQ(sink.disconnects.size(), 1u);
  EXPECT_NE(sink.disconnects[0].second.find("bad frame magic"), std::string::npos);
  EXPECT_EQ(server.connection_count(), 1u);

  client.report(make_estimate(1, 30.0));
  ASSERT_TRUE(client.flush(2000));
  pump(client, server, 20);
  ASSERT_EQ(sink.estimates.size(), 1u);
  EXPECT_DOUBLE_EQ(sink.estimates[0].watts, 30.0);
  client.stop();
}

TEST(Loopback, ReconnectAfterServerRestartReemitsDictionary) {
  RecordingCollector sink;
  auto server = std::make_unique<CollectorServer>(CollectorServerOptions{}, sink);
  ASSERT_TRUE(server->listening()) << server->error();
  const std::uint16_t port = server->port();

  obs::Observability obs;
  TelemetryClientOptions options = fast_client(port);
  options.obs = &obs;
  TelemetryClient client(options);
  ASSERT_TRUE(pump_until_connected(client, *server));
  client.report(make_estimate(1, 10.0));
  ASSERT_TRUE(client.flush(2000));
  server->poll_once(1);
  ASSERT_EQ(sink.estimates.size(), 1u);
  EXPECT_EQ(client.stats().connects, 1u);

  // The collector goes away: the client must notice and enter backoff.
  server.reset();
  for (int i = 0; i < 200 && client.connected(); ++i) client.poll_once(1);
  EXPECT_FALSE(client.connected());

  // It comes back on the same port; the client reconnects and the SAME
  // formula string decodes on the fresh connection — the dictionary was
  // re-emitted, not assumed.
  CollectorServerOptions restart;
  restart.port = port;
  CollectorServer revived(restart, sink);
  ASSERT_TRUE(revived.listening()) << revived.error();
  ASSERT_TRUE(pump_until_connected(client, revived, 5000));
  client.report(make_estimate(2, 20.0));
  ASSERT_TRUE(client.flush(2000));
  pump(client, revived, 20);

  ASSERT_EQ(sink.estimates.size(), 2u);
  EXPECT_EQ(sink.estimates[1].formula, "powerapi-hpc");
  EXPECT_DOUBLE_EQ(sink.estimates[1].watts, 20.0);
  EXPECT_EQ(sink.hellos.size(), 2u);  // One hello per connection.
  const auto stats = client.stats();
  EXPECT_EQ(stats.connects, 2u);
  EXPECT_GE(stats.reconnects, 1u);
  // The obs registry carries the same story.
  const auto snap = obs.metrics.snapshot();
  const auto* reconnects = snap.find("net.client.reconnects");
  ASSERT_NE(reconnects, nullptr);
  EXPECT_GE(reconnects->value, 1.0);
  client.stop();
}

TEST(Loopback, QueueOverflowDropsOldestAndAccountsIt) {
  RecordingCollector sink;
  CollectorServer server({}, sink);
  ASSERT_TRUE(server.listening()) << server.error();

  obs::Observability obs;
  TelemetryClientOptions options = fast_client(server.port());
  options.queue_max_records = 4;
  options.obs = &obs;
  TelemetryClient client(options);

  // No pumping yet: the queue must absorb — and bound — the backlog.
  for (int i = 1; i <= 10; ++i) client.report(make_estimate(i, 1.0 * i));
  EXPECT_EQ(client.stats().records_enqueued, 10u);
  EXPECT_EQ(client.stats().records_dropped, 6u);

  ASSERT_TRUE(pump_until_connected(client, server));
  ASSERT_TRUE(client.flush(2000));
  pump(client, server, 20);

  // Drop-oldest: the four NEWEST records survived.
  ASSERT_EQ(sink.estimates.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sink.estimates[i].timestamp, seconds_to_ns(7 + i));
  }
  const auto stats = client.stats();
  EXPECT_EQ(stats.records_sent, 4u);
  EXPECT_EQ(stats.records_enqueued, stats.records_sent + stats.records_dropped);
  const auto snapshot = obs.metrics.snapshot();
  const auto* dropped = snapshot.find("net.client.records_dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_DOUBLE_EQ(dropped->value, 6.0);
  client.stop();
}

TEST(Loopback, SlowReaderEngagesBackpressureWithoutLosingAccounting) {
  RecordingCollector sink;
  CollectorServerOptions server_options;
  server_options.max_read_bytes_per_poll = 64;  // Drip-feed reader.
  CollectorServer server(server_options, sink);
  ASSERT_TRUE(server.listening()) << server.error();

  TelemetryClientOptions options = fast_client(server.port());
  options.queue_max_records = 32;
  options.max_unsent_bytes = 512;  // Encoding cap engages quickly.
  options.batch_max_records = 4;
  TelemetryClient client(options);
  ASSERT_TRUE(pump_until_connected(client, server));

  for (int i = 1; i <= 500; ++i) {
    client.report(make_estimate(i, 0.5 * i));
    client.poll_once(0);
    server.poll_once(0);
  }
  // Let both sides fully drain.
  ASSERT_TRUE(client.flush(10000));
  for (int i = 0; i < 2000 && server.stats().records_decoded <
                                  client.stats().records_sent; ++i) {
    server.poll_once(1);
  }

  const auto stats = client.stats();
  const auto server_stats = server.stats();
  // Every record is accounted: sent or dropped, nothing vanished.
  EXPECT_EQ(stats.records_enqueued, 500u);
  EXPECT_EQ(stats.records_sent + stats.records_dropped, 500u);
  EXPECT_EQ(server_stats.records_decoded, stats.records_sent);
  EXPECT_EQ(server_stats.decode_errors, 0u);
  // The slow reader actually bit: some records were dropped.
  EXPECT_GT(stats.records_sent, 0u);
  EXPECT_EQ(sink.estimates.size(), stats.records_sent);
  client.stop();
}

TEST(Loopback, MidStreamDisconnectCountsInflightAsDropped) {
  RecordingCollector sink;
  auto server = std::make_unique<CollectorServer>(CollectorServerOptions{}, sink);
  ASSERT_TRUE(server->listening()) << server->error();

  TelemetryClient client(fast_client(server->port()));
  ASSERT_TRUE(pump_until_connected(client, *server));
  client.report(make_estimate(1, 1.0));
  ASSERT_TRUE(client.flush(2000));

  // The collector dies with records still being produced.
  server.reset();
  for (int i = 2; i <= 20; ++i) {
    client.report(make_estimate(i, 1.0 * i));
    client.poll_once(1);
  }
  for (int i = 0; i < 500 && client.connected(); ++i) client.poll_once(1);
  client.stop(/*flush_timeout_ms=*/50);

  const auto stats = client.stats();
  EXPECT_EQ(stats.records_enqueued, 20u);
  // Conservation law: everything enqueued either reached the socket or was
  // counted as dropped — a lost collector never silently eats records.
  EXPECT_EQ(stats.records_sent + stats.records_dropped, 20u);
  EXPECT_GE(stats.records_dropped, 1u);
}

TEST(Loopback, RefusesConnectionsBeyondTheLimit) {
  RecordingCollector sink;
  CollectorServerOptions server_options;
  server_options.max_connections = 1;
  CollectorServer server(server_options, sink);
  ASSERT_TRUE(server.listening()) << server.error();

  TelemetryClient first(fast_client(server.port()));
  ASSERT_TRUE(pump_until_connected(first, server));
  EXPECT_EQ(server.connection_count(), 1u);

  // A second client connects at TCP level but is refused by the server; it
  // must never displace the first.
  TelemetryClient second(fast_client(server.port()));
  for (int i = 0; i < 100; ++i) {
    second.poll_once(1);
    server.poll_once(1);
  }
  EXPECT_EQ(server.connection_count(), 1u);
  EXPECT_EQ(server.stats().connections_accepted, 1u);

  // The first client still delivers.
  first.report(make_estimate(1, 5.0));
  ASSERT_TRUE(first.flush(2000));
  pump(first, server, 20);
  ASSERT_EQ(sink.estimates.size(), 1u);
  first.stop();
  second.stop();
}

// --- Threaded event loops (the start() paths) ---

TEST(Loopback, ThreadedLoopsSurviveConcurrentProducers) {
  RecordingCollector sink;
  CollectorServer server({}, sink);
  ASSERT_TRUE(server.listening()) << server.error();
  server.start();

  TelemetryClient client(fast_client(server.port()));
  client.start();

  // Four producer threads hammer report() while both background loops run:
  // the report path must stay lock-cheap and the accounting invariant
  // (enqueued == sent + dropped) must survive real concurrency.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&client, t] {
      for (int i = 0; i < kPerThread; ++i) {
        client.report(make_estimate(t * kPerThread + i, 1.0 + t));
      }
    });
  }
  for (auto& thread : producers) thread.join();

  EXPECT_TRUE(client.flush(5000));
  client.stop();

  const auto stats = client.stats();
  EXPECT_EQ(stats.records_enqueued, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.records_enqueued, stats.records_sent + stats.records_dropped);

  // Let the server thread drain the socket, then join it before touching
  // the sink (its callbacks run on the server thread).
  for (int spin = 0; spin < 1000; ++spin) {
    if (server.stats().records_decoded >= stats.records_sent) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server.stop();
  EXPECT_EQ(server.stats().records_decoded, stats.records_sent);
  EXPECT_EQ(sink.estimates.size(), stats.records_sent);
  EXPECT_EQ(server.stats().decode_errors, 0u);
}

// --- BusBridge ---

/// Collects raw payloads of one type from a topic.
template <typename T>
class Collector final : public actors::Actor {
 public:
  void receive(actors::Envelope& envelope) override {
    if (const T* value = envelope.payload.get<T>()) items.push_back(*value);
  }
  std::vector<T> items;
};

struct BridgeHarness {
  BridgeHarness() : bus(actors) {}
  ~BridgeHarness() { actors.shutdown(); }

  template <typename T>
  Collector<T>& collect(const std::string& topic) {
    auto owned = std::make_unique<Collector<T>>();
    Collector<T>& ref = *owned;
    bus.subscribe(topic, actors.spawn("collector", std::move(owned)));
    return ref;
  }

  actors::ActorSystem actors;
  actors::EventBus bus;
};

TEST(BusBridge, RepublishesUnderPerAgentAndMergedTopics) {
  BridgeHarness h;
  obs::Observability obs;
  BusBridgeOptions options;
  options.obs = &obs;
  BusBridge bridge(h.bus, options);
  auto& merged = h.collect<api::PowerEstimate>("remote/power:estimation");
  auto& per_agent = h.collect<api::PowerEstimate>("remote/h0/power:estimation");
  auto& merged_agg = h.collect<api::AggregatedPower>("remote/power:aggregated");

  bridge.on_connect(1);
  bridge.on_hello(1, "h0", kWireVersion);
  EXPECT_EQ(bridge.live_agents(), 1u);
  bridge.on_estimate(1, make_estimate(1, 33.0));
  bridge.on_aggregated(1, make_aggregated(1, 66.0));
  bridge.on_metric(1, "actors.messages", obs::MetricKind::kCounter, 17.0);
  h.actors.drain();

  ASSERT_EQ(merged.items.size(), 1u);
  EXPECT_DOUBLE_EQ(merged.items[0].watts, 33.0);
  ASSERT_EQ(per_agent.items.size(), 1u);
  EXPECT_DOUBLE_EQ(per_agent.items[0].watts, 33.0);
  ASSERT_EQ(merged_agg.items.size(), 1u);
  EXPECT_DOUBLE_EQ(merged_agg.items[0].watts, 66.0);

  // Remote metrics land as re-exported gauges under the agent's name.
  const auto snapshot = obs.metrics.snapshot();
  const auto* gauge = snapshot.find("remote.h0.actors.messages");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value, 17.0);

  bridge.on_disconnect(1, "bye");
  EXPECT_EQ(bridge.live_agents(), 0u);
}

TEST(BusBridge, PreHelloRecordsFallBackToConnLabel) {
  BridgeHarness h;
  BusBridge bridge(h.bus);
  auto& labeled = h.collect<api::PowerEstimate>("remote/conn9/power:estimation");
  bridge.on_connect(9);
  bridge.on_estimate(9, make_estimate(1, 3.0));  // No hello yet.
  h.actors.drain();
  ASSERT_EQ(labeled.items.size(), 1u);
  EXPECT_DOUBLE_EQ(labeled.items[0].watts, 3.0);
}

TEST(BusBridge, MergedOnlyModeSkipsPerAgentTopics) {
  BridgeHarness h;
  BusBridgeOptions options;
  options.per_agent_topics = false;
  BusBridge bridge(h.bus, options);
  auto& merged = h.collect<api::PowerEstimate>("remote/power:estimation");
  bridge.on_connect(1);
  bridge.on_hello(1, "h0", kWireVersion);
  const auto dead_letters_before = h.bus.dead_letter_count();
  bridge.on_estimate(1, make_estimate(1, 3.0));
  h.actors.drain();
  ASSERT_EQ(merged.items.size(), 1u);
  // No publish ever went to an unsubscribed per-agent topic.
  EXPECT_EQ(h.bus.dead_letter_count(), dead_letters_before);
}

}  // namespace
}  // namespace powerapi::net
