// Experiment O5 — observability-plane wire overhead. PR "distributed
// observability" claims shipping metrics snapshots and trace spans over the
// PWAP wire stays non-invasive: this binary measures (a) the pure obs codec
// cost (metrics-snapshot and span frames encoded + decoded, no sockets) and
// (b) loopback record throughput with the obs plane off / at 1 s cadence /
// at 100 ms cadence, so the delta against the obs-off row IS the overhead.
// Emits BENCH_obs_net.json for the results pipeline (bench_diff.py gates it
// against bench/baselines/BENCH_obs_net.json).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "gbench_json.h"
#include "net/collector_server.h"
#include "net/telemetry_client.h"
#include "net/wire.h"
#include "obs/observability.h"

using namespace powerapi;

namespace {

constexpr int kBatchRecords = 128;
constexpr int kSpansPerFrame = 128;

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

/// A registry shaped like a real agent's: counters, gauges, histograms.
obs::MetricsRegistry& agent_registry() {
  static obs::MetricsRegistry registry;
  static const bool initialized = [] {
    for (int i = 0; i < 12; ++i) {
      registry.counter("bench.counter." + std::to_string(i)).add(1000 + i);
      registry.gauge("bench.gauge." + std::to_string(i)).set(0.5 * i);
    }
    for (int i = 0; i < 4; ++i) {
      obs::Histogram& hist = registry.histogram("bench.hist." + std::to_string(i));
      for (int v = 0; v < 256; ++v) hist.record(1000 + v * 37);
    }
    return true;
  }();
  (void)initialized;
  return registry;
}

/// Pure codec cost of a metrics-snapshot frame: encode + frame + CRC + decode.
void metrics_frame_roundtrip(benchmark::State& state) {
  const obs::MetricsSnapshot snapshot = agent_registry().snapshot();
  net::WireEncoder encoder;
  net::FrameDecoder decoder;
  DiscardSink sink;
  std::int64_t stamp = 0;
  for (auto _ : state) {
    const auto frame = encoder.take_metrics_frame(snapshot, ++stamp);
    if (!decoder.consume(frame.data(), frame.size(), sink)) {
      state.SkipWithError("decode failed");
      break;
    }
    benchmark::DoNotOptimize(decoder.snapshots_decoded());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(snapshot.metrics.size()));
}

/// Pure codec cost of a span frame (dictionary warm after the first batch).
void spans_frame_roundtrip(benchmark::State& state) {
  obs::TraceCollector trace;
  const auto name = trace.intern("bench/span");
  net::WireEncoder encoder;
  net::FrameDecoder decoder;
  DiscardSink sink;
  std::vector<obs::TraceCollector::Span> drained;
  std::int64_t tick = 0;
  for (auto _ : state) {
    for (int i = 0; i < kSpansPerFrame; ++i) {
      // Span k starts at k µs with id k - 1.
      const auto id = static_cast<std::uint64_t>(tick++);
      trace.complete(name, tick * 1000, 500, id);
    }
    drained.clear();
    trace.drain(drained);
    const auto frame = encoder.take_spans_frame(drained, trace, tick);
    if (!decoder.consume(frame.data(), frame.size(), sink)) {
      state.SkipWithError("decode failed");
      break;
    }
    benchmark::DoNotOptimize(decoder.spans_decoded());
  }
  state.SetItemsProcessed(state.iterations() * kSpansPerFrame);
}

/// Loopback record throughput with the obs plane at a given cadence.
/// range(0) is obs_interval_ms (0 = off). Identical record load across
/// rows: the throughput delta against the obs-off row is the obs overhead.
void loopback_obs_cadence(benchmark::State& state) {
  const int cadence_ms = static_cast<int>(state.range(0));

  net::CollectorSink discard;
  net::CollectorServer server({}, discard);
  if (!server.listening()) {
    state.SkipWithError("cannot bind loopback listener");
    return;
  }

  obs::Observability agent_obs;
  const auto span_name = agent_obs.trace.intern("bench/round");
  net::TelemetryClientOptions options;
  options.port = server.port();
  options.agent_id = "bench-agent";
  options.batch_max_records = kBatchRecords;
  options.flush_interval_ms = 1000;  // Size-driven flushes only.
  options.obs = &agent_obs;
  options.obs_interval_ms = cadence_ms;
  net::TelemetryClient client(options);
  for (int spin = 0; spin < 2000 && !client.connected(); ++spin) {
    client.poll_once(0);
    server.poll_once(0);
  }

  std::int64_t tick = 0;
  std::uint64_t expected = server.stats().records_decoded;
  for (auto _ : state) {
    ++tick;
    // The agent does observable work each round so obs frames carry a
    // realistic payload when the cadence fires.
    agent_obs.metrics.counter("bench.rounds").add(1);
    agent_obs.trace.complete(span_name, tick * 1'000'000, 250'000,
                             static_cast<std::uint64_t>(tick));
    for (int i = 0; i < kBatchRecords; ++i) client.report(sample_row(tick));
    expected += kBatchRecords;
    int spins = 0;
    while (server.stats().records_decoded < expected) {
      client.poll_once(0);
      server.poll_once(0);
      if (++spins > 1'000'000) {
        state.SkipWithError("loopback stalled — records never delivered");
        return;
      }
    }
  }
  // No obs-frame counter: frames follow the wall-clock cadence, so their
  // count depends on how long the run took, and bench_diff.py gates
  // counters as exact.
  state.SetItemsProcessed(state.iterations() * kBatchRecords);

  client.stop(/*flush_timeout_ms=*/50);
}

}  // namespace

BENCHMARK(metrics_frame_roundtrip)->Unit(benchmark::kMicrosecond);
BENCHMARK(spans_frame_roundtrip)->Unit(benchmark::kMicrosecond);
BENCHMARK(loopback_obs_cadence)
    ->Arg(0)      // Obs plane off: the rows-only baseline.
    ->Arg(1000)   // Issue-spec cadence: 1 s.
    ->Arg(100)    // Aggressive cadence: 100 ms.
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  return powerapi::benchx::run_benchmarks_with_json(argc, argv, "obs_net");
}
