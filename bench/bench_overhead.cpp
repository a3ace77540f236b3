// Experiment O1 — monitoring overhead. The paper requires "an efficient,
// scalable and non-invasive tool"; this google-benchmark binary measures the
// cost of one monitoring tick through the full actor pipeline (sensor read →
// formula → aggregator → reporter) as the number of monitored processes
// grows, plus the cost of the building blocks (counter gather, model
// evaluation).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "gbench_json.h"
#include "model/power_model.h"
#include "os/system.h"
#include "powerapi/power_meter.h"
#include "simcpu/counter_lanes.h"
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

std::unique_ptr<os::System> loaded_system(std::size_t processes) {
  auto system = std::make_unique<os::System>(simcpu::i3_2120());
  for (std::size_t i = 0; i < processes; ++i) {
    system->spawn("app", std::make_unique<workloads::SteadyBehavior>(
                             workloads::mixed_stress(0.5, 4.0 * 1024 * 1024, 0.8),
                             /*duration=*/0));
  }
  system->run_for(util::ms_to_ns(10));
  return system;
}

/// The HPC sensor's counter read for one host tick: machine scope plus
/// every monitored pid, gathered into lanes in one call.
void BM_GatherCounterLanes(benchmark::State& state) {
  auto system = loaded_system(4);
  std::vector<os::Pid> targets = {-1};
  for (const os::Pid pid : system->pids()) targets.push_back(pid);
  simcpu::CounterLanes lanes;
  for (auto _ : state) {
    system->gather_counter_lanes(targets, lanes);
    benchmark::DoNotOptimize(lanes.lane(0));
  }
}
BENCHMARK(BM_GatherCounterLanes);

void BM_ModelEvaluate(benchmark::State& state) {
  const model::CpuPowerModel model = tiny_model();
  model::EventRates rates{};
  model::set_rate(rates, hpc::EventId::kInstructions, 3.1e9);
  model::set_rate(rates, hpc::EventId::kCacheReferences, 2.4e8);
  model::set_rate(rates, hpc::EventId::kCacheMisses, 1.7e7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.estimate_machine(3.3e9, rates));
  }
}
BENCHMARK(BM_ModelEvaluate);

/// Full pipeline cost per monitoring tick, varying monitored process count.
/// The simulated OS advances the minimum possible (1 tick) between monitor
/// ticks so the measurement is dominated by the pipeline, not the simulator.
void BM_PipelineTick(benchmark::State& state) {
  const auto processes = static_cast<std::size_t>(state.range(0));
  auto system = loaded_system(processes);
  api::PowerMeter::Config config;
  config.period = util::ms_to_ns(1);
  config.with_powerspy = false;  // Meter off: measure the software pipeline.
  api::PowerMeter meter(*system, tiny_model(), config);
  meter.monitor_all();

  for (auto _ : state) {
    meter.run_for(util::ms_to_ns(1));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["monitored"] = static_cast<double>(processes);
}
BENCHMARK(BM_PipelineTick)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  return powerapi::benchx::run_benchmarks_with_json(argc, argv, "overhead");
}
