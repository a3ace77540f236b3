// Simulator hot path — what one host-tick at the paper's 250 ms sampling
// period costs in the simulated machine alone (no monitoring pipeline):
// BM_SystemRunFor250ms advances one host by System::run_for(250 ms), i.e.
// 250 one-millisecond quanta of schedule → execute → account. The hosts
// run the end-to-end fleet benchmark's mix: four apps cycling through a
// CPU-bound batch job, a bursty web server and an LLC-overflowing cache
// scan, plus the background daemon. Each iteration advances the next of
// three hosts (one per rotation of the mix) on an i3-2120 or a big.LITTLE
// part. Emits BENCH_sim.json. The committed baseline is the median of
// repetitions: `bench_sim --benchmark_repetitions=10`.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "gbench_json.h"
#include "os/system.h"
#include "util/rng.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

using namespace powerapi;

namespace {

std::unique_ptr<os::System> mixed_host(simcpu::CpuSpec spec, std::size_t index) {
  const util::Rng rng = util::Rng(1).fork(index);
  auto host = std::make_unique<os::System>(std::move(spec));
  for (std::size_t app = 0; app < 4; ++app) {
    switch ((index + app) % 3) {
      case 0:
        host->spawn("batch", std::make_unique<workloads::SteadyBehavior>(
                                 workloads::cpu_stress(0.85), 0));
        break;
      case 1:
        host->spawn("web", std::make_unique<workloads::BurstyBehavior>(
                               workloads::mixed_stress(0.3, 8.0 * 1024 * 1024),
                               util::ms_to_ns(20), util::ms_to_ns(30), 0,
                               rng.fork(10 + app)));
        break;
      default:
        host->spawn("cache", std::make_unique<workloads::SteadyBehavior>(
                                 workloads::memory_stress(24.0 * 1024 * 1024), 0));
        break;
    }
  }
  host->spawn("kdaemon", workloads::make_background_daemon(rng.fork(1)));
  return host;
}

/// Three hosts, one per rotation of the mix, each warmed up for 1 s.
std::vector<std::unique_ptr<os::System>> fresh_hosts(simcpu::CpuSpec (*make_spec)()) {
  std::vector<std::unique_ptr<os::System>> hosts;
  for (std::size_t i = 0; i < 3; ++i) {
    hosts.push_back(mixed_host(make_spec(), i));
    hosts.back()->run_for(util::seconds_to_ns(1.0));
  }
  return hosts;
}

void BM_SystemRunFor250ms(benchmark::State& state, simcpu::CpuSpec (*make_spec)()) {
  // Every run times the same sequence of 250 ms windows: after 10 s of
  // simulated time per host the hosts restart (untimed), so a run's cost
  // does not depend on how far its iteration count carried the workloads.
  constexpr std::size_t kWindows = 3 * 40;
  auto hosts = fresh_hosts(make_spec);
  std::size_t window = 0;
  for (auto _ : state) {
    if (window == kWindows) {
      state.PauseTiming();
      hosts = fresh_hosts(make_spec);
      window = 0;
      state.ResumeTiming();
    }
    hosts[window % hosts.size()]->run_for(util::ms_to_ns(250));
    ++window;
  }
  benchmark::DoNotOptimize(hosts.front()->machine_counters().instructions);
}
BENCHMARK_CAPTURE(BM_SystemRunFor250ms, i3_2120, simcpu::i3_2120);
BENCHMARK_CAPTURE(BM_SystemRunFor250ms, big_little, simcpu::big_little);

}  // namespace

int main(int argc, char** argv) {
  return powerapi::benchx::run_benchmarks_with_json(argc, argv, "sim");
}
