// Experiment O1 — what does self-observability cost? The obs layer's pitch
// is "cheap enough to leave on": this binary measures the fleet monitoring
// tick (8 hosts in parallel slices — the bench_pipeline configuration)
// in three states: no obs bundle compiled into the run at all, a bundle
// attached but disabled (the single-branch path every hot site pays), and
// fully enabled (counters + latency histograms + spans). Micro-benchmarks
// price the primitives themselves. Emits BENCH_obs.json; bench_diff.py
// gates regressions against the committed baseline.
#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>
#include <vector>

#include "gbench_json.h"
#include "model/power_model.h"
#include "obs/observability.h"
#include "os/system.h"
#include "powerapi/fleet_monitor.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

using namespace powerapi;

namespace {

model::CpuPowerModel tiny_model() {
  std::vector<model::FrequencyFormula> formulas;
  for (const double hz : simcpu::i3_2120().frequencies_hz) {
    model::FrequencyFormula f;
    f.frequency_hz = hz;
    f.events = {hpc::EventId::kInstructions, hpc::EventId::kCacheReferences,
                hpc::EventId::kCacheMisses};
    f.coefficients = {2.2e-9, 2.5e-8, 1.9e-7};
    formulas.push_back(std::move(f));
  }
  return model::CpuPowerModel(31.48, std::move(formulas));
}

std::unique_ptr<os::System> loaded_host() {
  auto host = std::make_unique<os::System>(simcpu::i3_2120());
  for (int i = 0; i < 4; ++i) {
    host->spawn("app", std::make_unique<workloads::SteadyBehavior>(
                           workloads::mixed_stress(0.5, 4.0 * 1024 * 1024, 0.8),
                           /*duration=*/0));
  }
  host->run_for(util::ms_to_ns(10));
  return host;
}

enum class ObsState { kNone, kDisabled, kEnabled };

/// One fleet monitoring tick across 8 hosts in parallel host slices —
/// the same configuration bench_pipeline measures — with the obs bundle in
/// the given state. kNone vs kDisabled prices the dormant branches; kNone
/// vs kEnabled is the headline overhead number.
void fleet_tick_obs_bench(benchmark::State& state, ObsState obs_state) {
  constexpr std::size_t kHostCount = 8;
  std::vector<std::unique_ptr<os::System>> hosts;
  for (std::size_t i = 0; i < kHostCount; ++i) hosts.push_back(loaded_host());

  api::FleetMonitor::Options options;
  options.mode = actors::ActorSystem::Mode::kThreaded;
  options.workers = 4;
  // No fleet reporter is attached, so skip the fleet aggregator: its
  // unconsumed publishes would only add dead-letter noise to the run.
  options.fleet_aggregation = false;
  options.with_observability = obs_state != ObsState::kNone;
  api::FleetMonitor fleet(options);
  if (obs_state == ObsState::kDisabled) fleet.observability()->set_enabled(false);

  const model::CpuPowerModel model = tiny_model();
  for (auto& host : hosts) {
    api::PipelineSpec spec;
    spec.model = model;
    spec.period = util::ms_to_ns(1);
    spec.with_powerspy = false;
    const std::size_t index = fleet.add_host(*host, spec);
    fleet.monitor_all(index);
    // Consume the aggregated rows: a complete graph, no dead letters.
    fleet.add_callback_reporter(index, [](const api::AggregatedPower&) {});
  }

  for (auto _ : state) {
    fleet.run_for(util::ms_to_ns(1));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kHostCount));
  if (obs_state == ObsState::kEnabled) {
    const auto snap = fleet.observability()->metrics.snapshot();
    state.counters["trace_events"] =
        static_cast<double>(fleet.observability()->trace.size());
    state.counters["messages"] = snap.value_of("actors.messages_processed");
  }
}

void BM_FleetTick_NoObs(benchmark::State& state) {
  fleet_tick_obs_bench(state, ObsState::kNone);
}
BENCHMARK(BM_FleetTick_NoObs)->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_FleetTick_ObsDisabled(benchmark::State& state) {
  fleet_tick_obs_bench(state, ObsState::kDisabled);
}
BENCHMARK(BM_FleetTick_ObsDisabled)->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_FleetTick_ObsEnabled(benchmark::State& state) {
  fleet_tick_obs_bench(state, ObsState::kEnabled);
}
BENCHMARK(BM_FleetTick_ObsEnabled)->UseRealTime()->Unit(benchmark::kMicrosecond);

// --- Primitive costs ---

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter counter;
  for (auto _ : state) counter.add();
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram hist;
  std::int64_t v = 1;
  for (auto _ : state) {
    hist.record(v);
    v = (v * 2862933555777941757LL + 3037000493LL) & 0xFFFFF;  // Vary buckets.
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_TraceComplete(benchmark::State& state) {
  obs::TraceCollector trace;
  const auto name = trace.intern("bench.span");
  std::int64_t t = 0;
  for (auto _ : state) trace.complete(name, t++, 10, 1);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceComplete);

void BM_RegistrySnapshot(benchmark::State& state) {
  // A registry populated like a real 8-host run: ~40 metrics.
  obs::MetricsRegistry registry;
  for (int i = 0; i < 24; ++i) {
    registry.counter("bench.counter_" + std::to_string(i)).add(static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < 8; ++i) {
    auto& hist = registry.histogram("bench.hist_" + std::to_string(i));
    for (std::int64_t v = 0; v < 1000; ++v) hist.record(v * 97);
  }
  for (auto _ : state) {
    const obs::MetricsSnapshot snap = registry.snapshot();
    benchmark::DoNotOptimize(snap.metrics.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistrySnapshot);

}  // namespace

int main(int argc, char** argv) {
  return powerapi::benchx::run_benchmarks_with_json(argc, argv, "obs");
}
