// Experiment O2 — online calibration overhead. The model lifecycle claims
// the in-pipeline learn→deploy loop is cheap enough to leave on: this
// google-benchmark binary measures host monitoring throughput (host-ticks/s)
// with calibration off vs on — same host, same workload, same meters — in
// both fleet modes, plus the cost of one registry swap cycle. Emits
// BENCH_calibration.json for the results pipeline.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "gbench_json.h"
#include "model/model_registry.h"
#include "model/power_model.h"
#include "os/system.h"
#include "powerapi/power_meter.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

using namespace powerapi;

namespace {

model::CpuPowerModel seed_model(double distortion) {
  std::vector<model::FrequencyFormula> formulas;
  for (const double hz : simcpu::i3_2120().frequencies_hz) {
    model::FrequencyFormula f;
    f.frequency_hz = hz;
    f.events.assign(hpc::paper_events().begin(), hpc::paper_events().end());
    const double scale = distortion * hz / 3.3e9;
    f.coefficients = {2.2e-9 * scale, 2.5e-8 * scale, 1.9e-7 * scale};
    formulas.push_back(std::move(f));
  }
  return model::CpuPowerModel(31.48, std::move(formulas));
}

std::unique_ptr<os::System> loaded_host() {
  auto host = std::make_unique<os::System>(simcpu::i3_2120());
  for (int i = 0; i < 4; ++i) {
    host->spawn("app", std::make_unique<workloads::SteadyBehavior>(
                           workloads::mixed_stress(0.6, 6.0 * 1024 * 1024, 0.8),
                           /*duration=*/0));
  }
  host->run_for(util::ms_to_ns(10));
  return host;
}

/// One monitoring tick of a single-host pipeline, calibration on or off.
/// The distorted model keeps the drift trigger firing, so the "on" variant
/// pays for pairing, accumulation AND periodic refits — the worst case.
void meter_tick_bench(benchmark::State& state, bool with_calibration) {
  auto host = loaded_host();
  api::PowerMeter::Config config;
  config.period = util::ms_to_ns(1);
  config.with_powerspy = true;
  config.with_calibration = with_calibration;
  config.calibration.drift_window = 8;
  config.calibration.drift_threshold_watts = 1.0;
  config.calibration.min_samples_per_fit = 12;
  config.calibration.min_refit_interval = util::ms_to_ns(50);
  api::PowerMeter meter(*host, seed_model(with_calibration ? 4.0 : 1.0),
                        std::move(config));

  for (auto _ : state) {
    meter.run_for(util::ms_to_ns(1));
  }
  state.SetItemsProcessed(state.iterations());
  if (with_calibration) {
    state.counters["model_version"] =
        static_cast<double>(meter.pipeline().registry()->version());
  }
}

void BM_MeterTick_CalibrationOff(benchmark::State& state) {
  meter_tick_bench(state, /*with_calibration=*/false);
}
BENCHMARK(BM_MeterTick_CalibrationOff)->Unit(benchmark::kMicrosecond);

void BM_MeterTick_CalibrationOn(benchmark::State& state) {
  meter_tick_bench(state, /*with_calibration=*/true);
}
BENCHMARK(BM_MeterTick_CalibrationOn)->Unit(benchmark::kMicrosecond);

/// The swap primitive itself: publish a new snapshot into a registry that a
/// reader pins per estimate — the atomic shared_ptr exchange every refit pays.
void BM_RegistryPublish(benchmark::State& state) {
  model::ModelRegistry registry(seed_model(1.0));
  const model::CpuPowerModel next = seed_model(1.1);
  for (auto _ : state) {
    registry.publish(next);
    benchmark::DoNotOptimize(registry.current());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryPublish);

/// One registry shared by every benchmark thread, as a fleet's formulas
/// share one; the threads:4 runs price the contended read.
const model::ModelRegistry& shared_registry() {
  static const model::ModelRegistry registry(seed_model(1.0));
  return registry;
}

/// Cold reader side: pinning the current snapshot through the shared
/// refcount, as refit and version queries do.
void BM_RegistryRead(benchmark::State& state) {
  const model::ModelRegistry& registry = shared_registry();
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.current());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryRead)->Threads(1)->Threads(4)->UseRealTime();

/// Hot reader side: the version-checked pin RegressionFormula takes per
/// batch; with no publish in between it only loads the version.
void BM_RegistryRefresh(benchmark::State& state) {
  const model::ModelRegistry& registry = shared_registry();
  std::shared_ptr<const model::ModelRegistry::Snapshot> pinned;
  for (auto _ : state) {
    benchmark::DoNotOptimize(&registry.refresh(pinned));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryRefresh)->Threads(1)->Threads(4)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return powerapi::benchx::run_benchmarks_with_json(argc, argv, "calibration");
}
