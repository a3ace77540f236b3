// Tests for the telemetry wire: frame encode/decode of rows (including torn
// and malformed input, and the retired record kinds 2 and 4), the
// TelemetryClient/CollectorServer loopback pair in deterministic
// manual-poll mode, fault injection (garbage connections, server restarts,
// mid-stream disconnects, slow readers), a FleetMonitor host's rows shipped
// through its remote reporter, and the BusBridge republishing decoded rows
// onto a local event bus.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <memory>
#include <span>
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
#include "os/system.h"
#include "powerapi/fleet_monitor.h"
#include "powerapi/reporters.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

namespace powerapi::net {
namespace {

using util::seconds_to_ns;

/// An ungrouped row, as a per-pid or machine aggregation emits it.
api::AggregatedPower make_row(std::int64_t second, double watts,
                              std::string formula = "powerapi-hpc",
                              std::int64_t pid = api::kMachinePid) {
  api::AggregatedPower row;
  row.timestamp = seconds_to_ns(second);
  row.pid = pid;
  row.formula = std::move(formula);
  row.watts = watts;
  return row;
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
  void on_rows(std::span<const api::AggregatedPower> rows) override {
    aggregated.insert(aggregated.end(), rows.begin(), rows.end());
    frame_sizes.push_back(rows.size());
  }
  void on_metrics_snapshot(std::int64_t, const obs::MetricsSnapshot&) override {}
  void on_spans(std::int64_t, const std::vector<RemoteSpan>&) override {}
  void on_bye() override { ++byes; }

  std::vector<std::pair<std::string, std::uint8_t>> hellos;
  std::vector<api::AggregatedPower> aggregated;
  std::vector<std::size_t> frame_sizes;  ///< Rows per on_rows() call.
  int byes = 0;
};

/// A batch payload defining dict id 0, then one record of retired kind 2
/// (a per-estimate record: Δts, pid, formula-id, watts, model-version).
std::vector<std::uint8_t> retired_estimate_payload() {
  return {1, 0, 1, 'f',              // kDict: id 0 = "f".
          2, 0, 0, 0,                // kind 2: ts delta, pid, formula id 0.
          0, 0, 0, 0, 0, 0, 0, 0,    // watts
          0};                        // model version
}

/// A batch payload defining dict id 0, then one record of retired kind 4
/// (a per-metric record: metric-kind, name-id, value).
std::vector<std::uint8_t> retired_metric_payload() {
  return {1, 0, 1, 'm',              // kDict: id 0 = "m".
          4, 1, 0,                   // kind 4: metric kind, name id 0.
          0, 0, 0, 0, 0, 0, 0, 0};   // value
}

// --- Wire format ---

TEST(Wire, BatchRoundTripsAllRecordTypes) {
  WireEncoder encoder;
  const auto r1 = make_row(1, 31.48);
  const auto r2 = make_row(2, 0.1 + 0.2, "cpu-load", 42);  // Inexact sum:
  // only a bit-exact f64 encoding round-trips it to EXPECT_DOUBLE_EQ.
  const auto agg = make_aggregated(2, 123.456);
  encoder.add(r1);
  encoder.add(r2);
  encoder.add(agg);
  EXPECT_EQ(encoder.pending_records(), 3u);

  FrameDecoder decoder;
  RecordingSink sink;
  const auto frame = encoder.take_batch_frame();
  EXPECT_EQ(encoder.pending_records(), 0u);
  ASSERT_TRUE(decoder.consume(frame.data(), frame.size(), sink));
  EXPECT_EQ(decoder.frames_decoded(), 1u);
  EXPECT_EQ(decoder.records_decoded(), 3u);

  ASSERT_EQ(sink.aggregated.size(), 3u);
  EXPECT_EQ(sink.aggregated[0].timestamp, r1.timestamp);
  EXPECT_EQ(sink.aggregated[0].pid, api::kMachinePid);
  EXPECT_EQ(sink.aggregated[0].group, "");
  EXPECT_EQ(sink.aggregated[0].formula, "powerapi-hpc");
  EXPECT_DOUBLE_EQ(sink.aggregated[0].watts, 31.48);
  EXPECT_EQ(sink.aggregated[1].timestamp, r2.timestamp);
  EXPECT_EQ(sink.aggregated[1].pid, 42);
  EXPECT_EQ(sink.aggregated[1].formula, "cpu-load");
  EXPECT_DOUBLE_EQ(sink.aggregated[1].watts, 0.1 + 0.2);

  EXPECT_EQ(sink.aggregated[2].timestamp, agg.timestamp);
  EXPECT_EQ(sink.aggregated[2].group, "(fleet)");
  EXPECT_EQ(sink.aggregated[2].formula, "powerapi-hpc");
  EXPECT_DOUBLE_EQ(sink.aggregated[2].watts, 123.456);
}

TEST(Wire, DictionaryInterningShrinksRepeatBatches) {
  WireEncoder encoder;
  encoder.add(make_row(1, 30.0));
  const auto first = encoder.take_batch_frame();
  encoder.add(make_row(2, 31.0));  // Same formula: id only, no dict entry.
  const auto second = encoder.take_batch_frame();
  EXPECT_LT(second.size(), first.size());

  // Both decode against one connection's stream state.
  FrameDecoder decoder;
  RecordingSink sink;
  ASSERT_TRUE(decoder.consume(first.data(), first.size(), sink));
  ASSERT_TRUE(decoder.consume(second.data(), second.size(), sink));
  ASSERT_EQ(sink.aggregated.size(), 2u);
  EXPECT_EQ(sink.aggregated[1].formula, "powerapi-hpc");
  EXPECT_EQ(sink.aggregated[1].timestamp, seconds_to_ns(2));
}

TEST(Wire, DecoderHandsEachFrameToTheSinkOnceInOrder) {
  // Dict records land before, between and after rows; every frame still
  // reaches the sink as one span, in wire order, and the spans of frames
  // consumed in one chunk arrive frame by frame.
  WireEncoder encoder;
  encoder.add(make_row(1, 1.0, "powerapi-hpc"));  // Defines "powerapi-hpc", "".
  encoder.add(make_row(1, 2.0, "powerspy"));      // A dict record mid-frame.
  encoder.add(make_row(1, 3.0, "powerapi-hpc", 7));
  std::vector<std::uint8_t> stream = encoder.take_batch_frame();
  encoder.add(make_aggregated(2, 4.0, "web"));  // Opens with a dict record.
  encoder.add(make_row(2, 5.0, "cpu-load", 9));
  const auto second = encoder.take_batch_frame();
  stream.insert(stream.end(), second.begin(), second.end());

  FrameDecoder decoder;
  RecordingSink sink;
  ASSERT_TRUE(decoder.consume(stream.data(), stream.size(), sink)) << decoder.error();
  EXPECT_EQ(sink.frame_sizes, (std::vector<std::size_t>{3, 2}));
  ASSERT_EQ(sink.aggregated.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(sink.aggregated[i].watts, static_cast<double>(i + 1));
  }
  EXPECT_EQ(sink.aggregated[1].formula, "powerspy");
  EXPECT_EQ(sink.aggregated[2].pid, 7);
  EXPECT_EQ(sink.aggregated[3].group, "web");
  EXPECT_EQ(sink.aggregated[4].formula, "cpu-load");
  EXPECT_EQ(sink.aggregated[4].group, "");
  EXPECT_EQ(decoder.records_decoded(), 5u);
}

TEST(Wire, FrameThatFailsMidwayDeliversNoneOfItsRows) {
  // Two good rows, then a record of an unknown kind: the frame poisons the
  // decoder and its two rows never reach the sink.
  WireEncoder encoder;
  encoder.add(make_row(1, 1.0));
  encoder.add(make_row(2, 2.0));
  const auto good = encoder.take_batch_frame();
  std::vector<std::uint8_t> payload(good.begin() + kFrameHeaderBytes, good.end());
  payload.push_back(9);
  const auto bad = WireEncoder::make_frame(FrameType::kBatch, payload);

  FrameDecoder decoder;
  RecordingSink sink;
  EXPECT_FALSE(decoder.consume(bad.data(), bad.size(), sink));
  EXPECT_NE(decoder.error().find("unknown record kind 9"), std::string::npos);
  EXPECT_TRUE(sink.aggregated.empty());
  EXPECT_TRUE(sink.frame_sizes.empty());
  EXPECT_EQ(decoder.records_decoded(), 0u);
}

TEST(Wire, FrameOfDictRecordsOnlyCallsNothing) {
  const std::vector<std::uint8_t> payload = {1, 0, 1, 'f',   // kDict: id 0 = "f".
                                             1, 1, 1, 'g'};  // kDict: id 1 = "g".
  const auto frame = WireEncoder::make_frame(FrameType::kBatch, payload);
  FrameDecoder decoder;
  RecordingSink sink;
  ASSERT_TRUE(decoder.consume(frame.data(), frame.size(), sink)) << decoder.error();
  EXPECT_EQ(decoder.frames_decoded(), 1u);
  EXPECT_TRUE(sink.frame_sizes.empty());
  EXPECT_EQ(decoder.records_decoded(), 0u);
}

TEST(Wire, TimestampDeltasSurviveNonMonotonicStreams) {
  // Aggregators can emit slightly out-of-order timestamps across formulas;
  // zigzag deltas must round-trip a regression, not corrupt the base.
  WireEncoder encoder;
  encoder.add(make_row(5, 1.0));
  encoder.add(make_row(3, 2.0));  // Negative delta.
  encoder.add(make_row(8, 3.0));
  const auto frame = encoder.take_batch_frame();
  FrameDecoder decoder;
  RecordingSink sink;
  ASSERT_TRUE(decoder.consume(frame.data(), frame.size(), sink));
  ASSERT_EQ(sink.aggregated.size(), 3u);
  EXPECT_EQ(sink.aggregated[0].timestamp, seconds_to_ns(5));
  EXPECT_EQ(sink.aggregated[1].timestamp, seconds_to_ns(3));
  EXPECT_EQ(sink.aggregated[2].timestamp, seconds_to_ns(8));
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
  encoder.add(make_row(1, 31.48));
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
  ASSERT_EQ(sink.aggregated.size(), 2u);
  EXPECT_DOUBLE_EQ(sink.aggregated[0].watts, 31.48);
  EXPECT_EQ(sink.aggregated[1].group, "(fleet)");
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(Wire, MalformedFramesPoisonTheDecoder) {
  WireEncoder encoder;
  encoder.add(make_row(1, 10.0));
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
    EXPECT_TRUE(sink.aggregated.empty()) << c.name;
    // Poisoned: even good input is rejected until reset().
    EXPECT_FALSE(decoder.consume(good.data(), good.size(), sink)) << c.name;
    decoder.reset();
    EXPECT_TRUE(decoder.consume(good.data(), good.size(), sink)) << c.name;
    EXPECT_EQ(sink.aggregated.size(), 1u) << c.name;
  }
}

TEST(Wire, TruncatedAndOutOfSequenceRecordsRejected) {
  // A batch whose payload ends mid-record: CRC valid (recomputed), record
  // truncated.
  WireEncoder encoder;
  encoder.add(make_row(1, 10.0));
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
    // A row whose formula is defined but whose group id never was.
    const std::vector<std::uint8_t> rogue = {
        1, 0, 1, 'f',             // kDict: id 0 = "f".
        3, 0, 0,                  // kAggregated: ts delta 0, pid 0,
        0,                        // formula id 0 (defined above),
        9,                        // group id 9 (never defined),
        0, 0, 0, 0, 0, 0, 0, 0};  // watts
    const auto bad = WireEncoder::make_frame(FrameType::kBatch, rogue);
    FrameDecoder decoder;
    RecordingSink sink;
    EXPECT_FALSE(decoder.consume(bad.data(), bad.size(), sink));
    EXPECT_NE(decoder.error().find("undefined"), std::string::npos)
        << decoder.error();
    EXPECT_TRUE(sink.aggregated.empty());
  }
  // The retired record kinds, each well formed in its old layout, and two
  // kinds never assigned.
  for (const std::vector<std::uint8_t>& payload :
       {retired_estimate_payload(), retired_metric_payload(),
        std::vector<std::uint8_t>{0}, std::vector<std::uint8_t>{5}}) {
    const auto bad = WireEncoder::make_frame(FrameType::kBatch, payload);
    FrameDecoder decoder;
    RecordingSink sink;
    EXPECT_FALSE(decoder.consume(bad.data(), bad.size(), sink));
    EXPECT_TRUE(decoder.failed());
    EXPECT_NE(decoder.error().find("unknown record kind"), std::string::npos)
        << decoder.error();
    EXPECT_EQ(decoder.records_decoded(), 0u);
  }
}

// --- Client/server loopback (deterministic manual polling) ---

/// A CollectorSink recording per-connection events.
struct RecordingCollector : CollectorSink {
  void on_connect(ConnId conn) override { connects.push_back(conn); }
  void on_hello(ConnId conn, std::string_view agent_id, std::uint8_t) override {
    hellos.emplace_back(conn, std::string(agent_id));
  }
  void on_rows(ConnId, std::span<const api::AggregatedPower> rows) override {
    aggregated.insert(aggregated.end(), rows.begin(), rows.end());
  }
  void on_disconnect(ConnId conn, std::string_view reason) override {
    disconnects.emplace_back(conn, std::string(reason));
  }

  std::vector<ConnId> connects;
  std::vector<std::pair<ConnId, std::string>> hellos;
  std::vector<api::AggregatedPower> aggregated;
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
    client.report(make_row(i, 31.48 + 0.001 * i));
  }
  client.report(make_aggregated(3, 260.125));
  ASSERT_TRUE(client.flush(2000));
  pump(client, server, 20);

  ASSERT_EQ(sink.hellos.size(), 1u);
  EXPECT_EQ(sink.hellos[0].second, "test-agent");
  ASSERT_EQ(sink.aggregated.size(), 6u);
  for (int i = 1; i <= 5; ++i) {
    EXPECT_EQ(sink.aggregated[i - 1].timestamp, seconds_to_ns(i));
    EXPECT_DOUBLE_EQ(sink.aggregated[i - 1].watts, 31.48 + 0.001 * i);
  }
  EXPECT_EQ(sink.aggregated[5].group, "(fleet)");
  EXPECT_DOUBLE_EQ(sink.aggregated[5].watts, 260.125);

  const auto client_stats = client.stats();
  const auto server_stats = server.stats();
  EXPECT_EQ(client_stats.records_enqueued, 6u);
  EXPECT_EQ(client_stats.records_sent, 6u);
  EXPECT_EQ(client_stats.records_dropped, 0u);
  EXPECT_EQ(server_stats.records_decoded, 6u);
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

/// A hello, then one batch frame holding `payload`.
std::vector<std::uint8_t> hello_then_batch(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> stream = WireEncoder::hello_frame("old-agent");
  const auto batch = WireEncoder::make_frame(FrameType::kBatch, payload);
  stream.insert(stream.end(), batch.begin(), batch.end());
  return stream;
}

TEST(Loopback, GarbageConnectionIsIsolated) {
  RecordingCollector sink;
  CollectorServer server({}, sink);
  ASSERT_TRUE(server.listening()) << server.error();

  TelemetryClient client(fast_client(server.port()));
  ASSERT_TRUE(pump_until_connected(client, server));

  // Rogue peers, one after another, each on a raw socket: plain garbage,
  // then well-framed streams carrying a retired record kind.
  const std::string garbage = "GET / HTTP/1.1\r\n\r\n";
  const struct {
    std::vector<std::uint8_t> bytes;
    const char* expect_error;
  } rogues[] = {
      {{garbage.begin(), garbage.end()}, "bad frame magic"},
      {hello_then_batch(retired_estimate_payload()), "unknown record kind 2"},
      {hello_then_batch(retired_metric_payload()), "unknown record kind 4"},
  };
  std::uint64_t errors = 0;
  for (const auto& rogue_input : rogues) {
    std::string error;
    Socket rogue = connect_tcp("127.0.0.1", server.port(), &error);
    ASSERT_TRUE(rogue.valid()) << error;
    for (int i = 0; i < 100 && server.connection_count() < 2; ++i) {
      server.poll_once(1);
    }
    const auto& bytes = rogue_input.bytes;
    ASSERT_EQ(::send(rogue.fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    ++errors;
    for (int i = 0; i < 100 && server.stats().decode_errors < errors; ++i) {
      server.poll_once(1);
    }

    // The rogue connection died; the well-behaved client's did not.
    EXPECT_EQ(server.stats().decode_errors, errors);
    ASSERT_EQ(sink.disconnects.size(), errors);
    EXPECT_NE(sink.disconnects.back().second.find(rogue_input.expect_error),
              std::string::npos)
        << sink.disconnects.back().second;
    EXPECT_EQ(server.connection_count(), 1u);
  }
  EXPECT_TRUE(sink.aggregated.empty());

  client.report(make_row(1, 30.0));
  ASSERT_TRUE(client.flush(2000));
  pump(client, server, 20);
  ASSERT_EQ(sink.aggregated.size(), 1u);
  EXPECT_DOUBLE_EQ(sink.aggregated[0].watts, 30.0);
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
  client.report(make_row(1, 10.0));
  ASSERT_TRUE(client.flush(2000));
  server->poll_once(1);
  ASSERT_EQ(sink.aggregated.size(), 1u);
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
  client.report(make_row(2, 20.0));
  ASSERT_TRUE(client.flush(2000));
  pump(client, revived, 20);

  ASSERT_EQ(sink.aggregated.size(), 2u);
  EXPECT_EQ(sink.aggregated[1].formula, "powerapi-hpc");
  EXPECT_DOUBLE_EQ(sink.aggregated[1].watts, 20.0);
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
  for (int i = 1; i <= 10; ++i) client.report(make_row(i, 1.0 * i));
  EXPECT_EQ(client.stats().records_enqueued, 10u);
  EXPECT_EQ(client.stats().records_dropped, 6u);

  ASSERT_TRUE(pump_until_connected(client, server));
  ASSERT_TRUE(client.flush(2000));
  pump(client, server, 20);

  // Drop-oldest: the four NEWEST records survived.
  ASSERT_EQ(sink.aggregated.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sink.aggregated[i].timestamp, seconds_to_ns(7 + i));
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
    client.report(make_row(i, 0.5 * i));
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
  EXPECT_EQ(sink.aggregated.size(), stats.records_sent);
  client.stop();
}

TEST(Loopback, MidStreamDisconnectCountsInflightAsDropped) {
  RecordingCollector sink;
  auto server = std::make_unique<CollectorServer>(CollectorServerOptions{}, sink);
  ASSERT_TRUE(server->listening()) << server->error();

  TelemetryClient client(fast_client(server->port()));
  ASSERT_TRUE(pump_until_connected(client, *server));
  client.report(make_row(1, 1.0));
  ASSERT_TRUE(client.flush(2000));

  // The collector dies with records still being produced.
  server.reset();
  for (int i = 2; i <= 20; ++i) {
    client.report(make_row(i, 1.0 * i));
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
  first.report(make_row(1, 5.0));
  ASSERT_TRUE(first.flush(2000));
  pump(first, server, 20);
  ASSERT_EQ(sink.aggregated.size(), 1u);
  first.stop();
  second.stop();
}

// --- FleetMonitor::add_remote_reporter (a host's rows over the wire) ---

TEST(Loopback, RemoteReporterShipsTheHostsRowsRowForRow) {
  RecordingCollector sink;
  CollectorServer server({}, sink);
  ASSERT_TRUE(server.listening()) << server.error();
  TelemetryClient client(fast_client(server.port()));
  ASSERT_TRUE(pump_until_connected(client, server));

  os::System host(simcpu::i3_2120());
  const os::Pid pid = host.spawn(
      "app", std::make_unique<workloads::SteadyBehavior>(workloads::cpu_stress(0.5), 0));
  model::FrequencyFormula formula;
  formula.frequency_hz = 3.3e9;
  formula.events = {hpc::EventId::kInstructions};
  formula.coefficients = {2e-9};
  api::PipelineSpec spec;
  spec.dimension = api::AggregationDimension::kPid;
  spec.model = model::CpuPowerModel(30.0, {formula});

  // The memory reporter and the remote reporter see the same rows of the
  // same host; the collector is polled on this thread after the run.
  api::FleetMonitor fleet;
  const std::size_t index = fleet.add_host(host, std::move(spec));
  fleet.monitor(index, {pid});
  const api::MemoryReporter& memory = fleet.add_memory_reporter(index);
  fleet.add_remote_reporter(index, client);
  fleet.run_for(seconds_to_ns(2));
  fleet.finish();

  const std::vector<api::AggregatedPower>& expected = memory.all();
  ASSERT_FALSE(expected.empty());
  ASSERT_TRUE(client.flush(2000));
  for (int i = 0; i < 2000 && sink.aggregated.size() < expected.size(); ++i) {
    server.poll_once(1);
  }

  ASSERT_EQ(sink.aggregated.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(sink.aggregated[i].timestamp, expected[i].timestamp) << "row " << i;
    EXPECT_EQ(sink.aggregated[i].pid, expected[i].pid) << "row " << i;
    EXPECT_EQ(sink.aggregated[i].group, expected[i].group) << "row " << i;
    EXPECT_EQ(sink.aggregated[i].formula, expected[i].formula) << "row " << i;
    EXPECT_EQ(sink.aggregated[i].watts, expected[i].watts) << "row " << i;
  }
  const auto stats = client.stats();
  EXPECT_EQ(stats.records_enqueued, expected.size());
  EXPECT_EQ(stats.records_enqueued, stats.records_sent + stats.records_dropped);
  EXPECT_EQ(stats.records_dropped, 0u);
  client.stop();
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
        client.report(make_row(t * kPerThread + i, 1.0 + t));
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
  EXPECT_EQ(sink.aggregated.size(), stats.records_sent);
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

/// The watts of each RowBatch received on a bridge topic.
std::vector<std::vector<double>> watts_of(const std::vector<api::RowBatch>& batches) {
  std::vector<std::vector<double>> out;
  for (const api::RowBatch& batch : batches) {
    out.emplace_back();
    for (const api::AggregatedPower& row : batch.rows()) out.back().push_back(row.watts);
  }
  return out;
}

TEST(BusBridge, RepublishesUnderPerAgentAndMergedTopics) {
  BridgeHarness h;
  obs::Observability obs;
  BusBridgeOptions options;
  options.obs = &obs;
  BusBridge bridge(h.bus, options);
  auto& merged = h.collect<api::RowBatch>("remote/power:aggregated");
  auto& per_agent = h.collect<api::RowBatch>("remote/h0/power:aggregated");
  auto& single_rows = h.collect<api::AggregatedPower>("remote/power:aggregated");
  EXPECT_EQ(bridge.aggregated_topic(), h.bus.intern("remote/power:aggregated"));

  bridge.on_connect(1);
  bridge.on_hello(1, "h0", kWireVersion);
  EXPECT_EQ(bridge.live_agents(), 1u);
  const std::vector<api::AggregatedPower> frame = {make_row(1, 33.0),
                                                   make_aggregated(1, 66.0)};
  bridge.on_rows(1, frame);
  bridge.on_rows(1, std::span(frame).first(1));
  obs::MetricsSnapshot remote;
  remote.metrics.push_back({"actors.messages", obs::MetricKind::kCounter, 17.0, {}});
  bridge.on_metrics_snapshot(1, 0, 0, remote);
  h.actors.drain();

  // One batch per topic per frame; both topics share each frame's vector.
  const std::vector<std::vector<double>> frames = {{33.0, 66.0}, {33.0}};
  ASSERT_EQ(merged.items.size(), 2u);
  EXPECT_EQ(watts_of(merged.items), frames);
  EXPECT_EQ(merged.items[0].rows()[1].group, "(fleet)");
  ASSERT_EQ(per_agent.items.size(), 2u);
  EXPECT_EQ(watts_of(per_agent.items), frames);
  EXPECT_EQ(per_agent.items[0].rows().data(), merged.items[0].rows().data());
  EXPECT_TRUE(single_rows.items.empty()) << "remote topics carry only RowBatch";

  // Remote metrics land as re-exported gauges under the agent's name.
  const auto snapshot = obs.metrics.snapshot();
  const auto* gauge = snapshot.find("remote.h0.obs.actors.messages");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value, 17.0);

  bridge.on_disconnect(1, "bye");
  EXPECT_EQ(bridge.live_agents(), 0u);
}

TEST(BusBridge, PreHelloRecordsFallBackToConnLabel) {
  BridgeHarness h;
  BusBridge bridge(h.bus);
  auto& labeled = h.collect<api::RowBatch>("remote/conn9/power:aggregated");
  bridge.on_connect(9);
  const std::vector<api::AggregatedPower> frame = {make_row(1, 3.0)};
  bridge.on_rows(9, frame);  // No hello yet.
  h.actors.drain();
  ASSERT_EQ(labeled.items.size(), 1u);
  ASSERT_EQ(labeled.items[0].rows().size(), 1u);
  EXPECT_DOUBLE_EQ(labeled.items[0].rows()[0].watts, 3.0);
}

TEST(BusBridge, MergedOnlyModeSkipsPerAgentTopics) {
  BridgeHarness h;
  BusBridgeOptions options;
  options.per_agent_topics = false;
  BusBridge bridge(h.bus, options);
  auto& merged = h.collect<api::RowBatch>("remote/power:aggregated");
  bridge.on_connect(1);
  bridge.on_hello(1, "h0", kWireVersion);
  const auto dead_letters_before = h.bus.dead_letter_count();
  const std::vector<api::AggregatedPower> frame = {make_row(1, 3.0), make_row(2, 4.0)};
  bridge.on_rows(1, frame);
  bridge.on_rows(1, frame);
  h.actors.drain();
  // One batch per frame, on the merged topic only.
  EXPECT_EQ(watts_of(merged.items), (std::vector<std::vector<double>>{{3.0, 4.0}, {3.0, 4.0}}));
  // No publish ever went to an unsubscribed per-agent topic.
  EXPECT_EQ(h.bus.dead_letter_count(), dead_letters_before);
}

TEST(BusBridge, CallbackReporterReportsEachRowOfABatchInOrder) {
  BridgeHarness h;
  BusBridge bridge(h.bus);
  std::vector<double> watts;
  h.bus.subscribe(bridge.aggregated_topic(),
                  h.actors.spawn_as<api::CallbackReporter>(
                      "sink", [&watts](const api::AggregatedPower& row) {
                        watts.push_back(row.watts);
                      }));
  bridge.on_connect(1);
  const std::vector<api::AggregatedPower> first = {make_row(1, 1.0), make_row(1, 2.0),
                                                   make_row(1, 3.0)};
  const std::vector<api::AggregatedPower> second = {make_row(2, 4.0)};
  bridge.on_rows(1, first);
  bridge.on_rows(1, second);
  // A single-row payload, as pipeline and fleet topics carry, still reports.
  h.bus.publish(bridge.aggregated_topic(), make_row(3, 5.0));
  h.actors.drain();
  EXPECT_EQ(watts, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
}

}  // namespace
}  // namespace powerapi::net
