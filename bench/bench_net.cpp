// Experiment O4 — telemetry wire throughput. The distributed collector
// claims remote monitoring adds negligible overhead on top of the local
// pipeline: this google-benchmark binary measures (a) the pure wire cost —
// records through WireEncoder framing + FrameDecoder parsing, no sockets —
// and (b) loopback end-to-end throughput with 1, 8 and 32 agents streaming
// into one CollectorServer, manual-polled so the numbers are scheduling
// noise, not thread wakeups. Emits BENCH_net.json for the results pipeline.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "gbench_json.h"
#include "net/collector_server.h"
#include "net/telemetry_client.h"
#include "net/wire.h"

using namespace powerapi;

namespace {

constexpr int kBatchRecords = 128;

/// A steady-state machine row, the record shape the wire carries.
api::AggregatedPower sample_row(std::int64_t tick) {
  api::AggregatedPower row;
  row.timestamp = tick * 250'000'000;
  row.pid = api::kMachinePid;
  row.formula = "powerapi-hpc";
  row.watts = 31.48 + 0.001 * static_cast<double>(tick % 97);
  return row;
}

/// Discards decoded frames; the codec is what's measured.
struct DiscardSink final : net::WireSink {
  void on_hello(std::string_view, std::uint8_t) override {}
  void on_rows(std::span<const api::AggregatedPower>) override {}
  void on_metrics_snapshot(std::int64_t, const obs::MetricsSnapshot&) override {}
  void on_spans(std::int64_t, const std::vector<net::RemoteSpan>&) override {}
  void on_bye() override {}
};

/// Pure wire cost: one batch of records encoded, framed, CRC'd, decoded.
void wire_roundtrip(benchmark::State& state) {
  net::WireEncoder encoder;
  net::FrameDecoder decoder;
  DiscardSink sink;
  std::int64_t tick = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatchRecords; ++i) encoder.add(sample_row(tick++));
    const auto frame = encoder.take_batch_frame();
    if (!decoder.consume(frame.data(), frame.size(), sink)) {
      state.SkipWithError("decode failed");
      break;
    }
    benchmark::DoNotOptimize(decoder.records_decoded());
  }
  state.SetItemsProcessed(state.iterations() * kBatchRecords);
}

/// Loopback end-to-end: N agents -> TCP -> one collector, manual polling.
void loopback_throughput(benchmark::State& state) {
  const auto agents = static_cast<std::size_t>(state.range(0));

  net::CollectorSink discard;  // Counts in server stats; drops payloads.
  net::CollectorServer server({}, discard);
  if (!server.listening()) {
    state.SkipWithError("cannot bind loopback listener");
    return;
  }

  std::vector<std::unique_ptr<net::TelemetryClient>> clients;
  for (std::size_t i = 0; i < agents; ++i) {
    net::TelemetryClientOptions options;
    options.port = server.port();
    options.agent_id = "bench-agent-" + std::to_string(i);
    options.batch_max_records = kBatchRecords;
    options.flush_interval_ms = 1000;  // Size-driven flushes only.
    clients.push_back(std::make_unique<net::TelemetryClient>(options));
  }
  // Connect outside the timed region.
  for (int spin = 0; spin < 2000; ++spin) {
    bool all = true;
    for (auto& client : clients) {
      client->poll_once(0);
      all = all && client->connected();
    }
    server.poll_once(0);
    if (all) break;
  }

  std::int64_t tick = 0;
  std::uint64_t expected = server.stats().records_decoded;
  for (auto _ : state) {
    ++tick;
    for (auto& client : clients) {
      for (int i = 0; i < kBatchRecords; ++i) {
        client->report(sample_row(tick));
      }
    }
    expected += agents * kBatchRecords;
    // Pump until the collector has decoded this round completely: the
    // measured quantity is delivered records, not enqueued ones.
    int spins = 0;
    while (server.stats().records_decoded < expected) {
      for (auto& client : clients) client->poll_once(0);
      server.poll_once(0);
      if (++spins > 1'000'000) {
        state.SkipWithError("loopback stalled — records never delivered");
        return;
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(agents * kBatchRecords));

  for (auto& client : clients) client->stop(/*flush_timeout_ms=*/50);
}

}  // namespace

BENCHMARK(wire_roundtrip)->Unit(benchmark::kMicrosecond);
BENCHMARK(loopback_throughput)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  return powerapi::benchx::run_benchmarks_with_json(argc, argv, "net");
}
