// Experiment P1 — multi-host monitoring-tick throughput. The FleetMonitor
// claims the actor middleware scales from one host to a rack on parallel
// host slices: this google-benchmark binary measures the wall time of
// advancing a whole fleet by one monitoring period (every host's sensor
// read → formula → aggregation, slices in parallel) at 1, 8, 32 and 128
// hosts, threaded and kManual, and emits BENCH_pipeline.json for the
// results pipeline.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "gbench_json.h"
#include "model/model_registry.h"
#include "model/power_model.h"
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

/// One fleet monitoring tick: every host advances one period and its whole
/// pipeline drains. Wall power off so the software pipeline dominates.
/// `shared_registry` switches between per-host model copies (one private
/// ModelRegistry each) and one fleet-wide registry every RegressionFormula
/// reads through; the "model_bytes" counter makes the footprint difference
/// measurable at 32 hosts.
void fleet_tick_bench(benchmark::State& state, actors::ActorSystem::Mode mode,
                      bool shared_registry = false) {
  const auto host_count = static_cast<std::size_t>(state.range(0));
  std::vector<std::unique_ptr<os::System>> hosts;
  for (std::size_t i = 0; i < host_count; ++i) hosts.push_back(loaded_host());

  api::FleetMonitor::Options options;
  options.mode = mode;
  options.workers = 4;
  api::FleetMonitor fleet(options);
  const model::CpuPowerModel model = tiny_model();
  const auto registry =
      shared_registry ? std::make_shared<model::ModelRegistry>(model) : nullptr;
  for (auto& host : hosts) {
    api::PipelineSpec spec;
    spec.model = model;
    spec.registry = registry;
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
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(host_count));
  state.counters["hosts"] = static_cast<double>(host_count);
  // Bytes of model snapshot resident across the fleet: N copies without
  // sharing, one with.
  const double per_model = static_cast<double>(model.memory_footprint_bytes());
  state.counters["model_bytes"] =
      shared_registry ? per_model : per_model * static_cast<double>(host_count);
}

void BM_FleetTick_Threaded(benchmark::State& state) {
  fleet_tick_bench(state, actors::ActorSystem::Mode::kThreaded);
}
BENCHMARK(BM_FleetTick_Threaded)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_FleetTick_Manual(benchmark::State& state) {
  fleet_tick_bench(state, actors::ActorSystem::Mode::kManual);
}
BENCHMARK(BM_FleetTick_Manual)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_FleetTick_Threaded_SharedModel(benchmark::State& state) {
  fleet_tick_bench(state, actors::ActorSystem::Mode::kThreaded,
                   /*shared_registry=*/true);
}
BENCHMARK(BM_FleetTick_Threaded_SharedModel)
    ->Arg(8)
    ->Arg(32)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return powerapi::benchx::run_benchmarks_with_json(argc, argv, "pipeline");
}
