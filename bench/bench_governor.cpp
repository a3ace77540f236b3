// Experiment O7 — what does closing the loop cost, and what does it buy?
// Three questions, one binary:
//
//   1. BM_FleetTick_GovernorOff/On — host-ticks/s through the fleet
//      monitoring hot path with and without a GovernorActor wired in
//      (sense relays subscribed to every host's aggregated topic, a
//      governor tick per run_for). The budget is set high enough that the
//      full sense→share→decide path runs without actuating, so the delta
//      prices the control plane itself, not DVFS transitions.
//   2. BM_GovernorDecide — the pure decision path (shares + per-host step
//      controllers) at fleet sizes past what the monitoring bench reaches.
//   3. BM_GovernorJoulesPerWork — a miniature capped-vs-uncapped demand
//      spike (the examples/power_governor experiment, shrunk to bench
//      scale); reports joules per giga-instruction for both runs and the
//      capped saving as counters.
//
// Emits BENCH_governor.json; bench_diff.py gates regressions against the
// committed baseline.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "gbench_json.h"
#include "governor/governor.h"
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
    f.events = {hpc::EventId::kInstructions, hpc::EventId::kCacheMisses};
    const double scale = hz / 3.3e9;
    f.coefficients = {2.0e-9 * scale, 1.85e-7 + 0.75e-7 * scale};
    formulas.push_back(std::move(f));
  }
  return model::CpuPowerModel(26.0, std::move(formulas));
}

std::unique_ptr<os::System> loaded_host() {
  auto host = std::make_unique<os::System>(simcpu::i3_2120());
  for (int i = 0; i < 2; ++i) {
    host->spawn("scan", std::make_unique<workloads::SteadyBehavior>(
                            workloads::memory_stress(64e6, 1.0), 0));
  }
  host->run_for(util::ms_to_ns(10));
  return host;
}

/// One fleet monitoring tick across N hosts in parallel host slices
/// (the bench_pipeline configuration), optionally with the governor's
/// sense relays and a per-iteration governor tick in the graph.
void fleet_tick_bench(benchmark::State& state, bool governed) {
  const std::size_t host_count = static_cast<std::size_t>(state.range(0));
  std::vector<std::unique_ptr<os::System>> hosts;
  for (std::size_t i = 0; i < host_count; ++i) hosts.push_back(loaded_host());

  api::FleetMonitor::Options options;
  options.mode = actors::ActorSystem::Mode::kThreaded;
  options.workers = 4;
  options.fleet_aggregation = false;
  api::FleetMonitor fleet(options);
  const model::CpuPowerModel model = tiny_model();
  for (auto& host : hosts) {
    api::PipelineSpec spec;
    spec.model = model;
    spec.period = util::ms_to_ns(1);
    spec.with_powerspy = false;
    const std::size_t index = fleet.add_host(*host, spec);
    fleet.monitor_all(index);
    fleet.add_callback_reporter(index, [](const api::AggregatedPower&) {});
  }

  governor::GovernorActor* gov = nullptr;
  actors::ActorRef gov_ref;
  if (governed) {
    governor::GovernorOptions gov_options;
    // Generous budget: the full sense->share->decide path runs every tick
    // but never steps, so iterations stay uniform.
    gov_options.budget_watts = 1e6;
    gov_options.formula = "powerapi-hpc";
    std::vector<governor::HostControl> controls;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      controls.push_back(
          governor::control_for("host" + std::to_string(i), *hosts[i]));
    }
    auto actor = std::make_unique<governor::GovernorActor>(
        fleet.bus(), gov_options, std::move(controls));
    gov = actor.get();
    gov_ref = fleet.actor_system().spawn("governor", std::move(actor));
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      governor::GovernorActor::spawn_sense_relay(
          fleet.actor_system(), fleet.bus(),
          fleet.pipeline(i).aggregated_topic(), gov_ref, i,
          "sense-h" + std::to_string(i));
    }
  }

  util::TimestampNs now = 0;
  for (auto _ : state) {
    fleet.run_for(util::ms_to_ns(1));
    if (governed) {
      now += util::ms_to_ns(1);
      fleet.actor_system().tell(gov_ref,
                                actors::Payload(governor::GovernorTick{now}));
      fleet.settle();
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(host_count));
  if (gov != nullptr) state.counters["actuations"] = static_cast<double>(gov->actuation_count());
}

void BM_FleetTick_GovernorOff(benchmark::State& state) {
  fleet_tick_bench(state, false);
}
BENCHMARK(BM_FleetTick_GovernorOff)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_FleetTick_GovernorOn(benchmark::State& state) {
  fleet_tick_bench(state, true);
}
BENCHMARK(BM_FleetTick_GovernorOn)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// The pure decision path: N synthetic hosts with fresh power samples each
/// tick, shares computed and every step controller consulted. No
/// monitoring pipeline, no simulated machines — just the governor.
void BM_GovernorDecide(benchmark::State& state) {
  const std::size_t host_count = static_cast<std::size_t>(state.range(0));
  actors::ActorSystem system;
  actors::EventBus bus(system);
  governor::GovernorOptions options;
  options.budget_watts = 40.0 * static_cast<double>(host_count);
  std::vector<governor::HostControl> controls;
  for (std::size_t i = 0; i < host_count; ++i) {
    governor::HostControl control;
    control.label = "host" + std::to_string(i);
    control.cores = 4;
    control.frequencies_ascending = {1.6e9, 2.0e9, 2.6e9, 3.3e9};
    // No set_frequency/set_parked hooks: decisions are recorded, not applied.
    controls.push_back(std::move(control));
  }
  auto actor = std::make_unique<governor::GovernorActor>(bus, options,
                                                         std::move(controls));
  const actors::ActorRef gov = system.spawn("governor", std::move(actor));

  util::TimestampNs now = 0;
  for (auto _ : state) {
    now += 1000000;
    for (std::size_t i = 0; i < host_count; ++i) {
      governor::HostPower power;
      power.host = i;
      power.timestamp = now;
      power.formula = "powerapi-hpc";
      // Hover around the per-host share so both step directions stay live.
      power.watts = 38.0 + static_cast<double>((now / 1000000 + i) % 5);
      power.machine_scope = true;
      system.tell(gov, actors::Payload(std::move(power)));
    }
    system.tell(gov, actors::Payload(governor::GovernorTick{now}));
    system.drain();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(host_count));
}
BENCHMARK(BM_GovernorDecide)->Arg(1)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kMicrosecond);

/// Miniature capped-vs-uncapped demand spike (examples/power_governor at
/// bench scale): a 3-simulated-second window, two work-bounded memory
/// scan jobs per host landing at 0.3 s, each gated off the chunk its
/// retired-instruction target is reached. Work is equal by construction,
/// wall time is equal, so joules per giga-instruction is the efficiency
/// delta the governor buys.
double joules_per_gigainstr(std::size_t host_count, double budget_per_host) {
  std::vector<std::unique_ptr<os::System>> hosts;
  for (std::size_t i = 0; i < host_count; ++i) {
    hosts.push_back(std::make_unique<os::System>(simcpu::i3_2120()));
  }
  api::FleetMonitor::Options options;
  options.mode = actors::ActorSystem::Mode::kManual;
  options.fleet_aggregation = false;
  api::FleetMonitor fleet(options);
  const model::CpuPowerModel model = tiny_model();
  for (auto& host : hosts) {
    api::PipelineSpec spec;
    spec.model = model;
    spec.period = util::ms_to_ns(50);
    spec.with_powerspy = false;
    const std::size_t index = fleet.add_host(*host, spec);
    fleet.monitor_all(index);
  }
  governor::GovernorOptions gov_options;
  gov_options.budget_watts = budget_per_host * static_cast<double>(host_count);
  gov_options.cooldown_ns = util::ms_to_ns(500);
  gov_options.max_step = 3;  // Bench-scale window: descend the ladder fast.
  gov_options.formula = "powerapi-hpc";
  std::vector<governor::HostControl> controls;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    controls.push_back(
        governor::control_for("host" + std::to_string(i), *hosts[i]));
  }
  auto actor = std::make_unique<governor::GovernorActor>(
      fleet.bus(), gov_options, std::move(controls));
  const actors::ActorRef gov_ref =
      fleet.actor_system().spawn("governor", std::move(actor));
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    governor::GovernorActor::spawn_sense_relay(
        fleet.actor_system(), fleet.bus(), fleet.pipeline(i).aggregated_topic(),
        gov_ref, i, "sense-h" + std::to_string(i));
  }

  struct Job {
    std::size_t host = 0;
    os::Pid pid = 0;
    workloads::GatedBehavior::Gate gate;
    bool done = false;
  };
  // Sized so both runs finish well inside the window (~1.4 s at f_max,
  // ~1.6 s at the capped operating point) and the equal-work idle tail —
  // where the governor's V^2 savings live — exists at every ladder rung.
  constexpr std::uint64_t kJobTarget = 550'000'000ULL;
  std::vector<Job> jobs;
  util::TimestampNs next_tick = util::ms_to_ns(100);
  const auto on_chunk = [&](util::DurationNs advanced) {
    if (jobs.empty() && advanced >= util::ms_to_ns(300)) {
      for (std::size_t i = 0; i < hosts.size(); ++i) {
        for (int j = 0; j < 2; ++j) {
          Job job;
          job.host = i;
          job.gate = std::make_shared<bool>(true);
          job.pid = hosts[i]->spawn(
              "scan", std::make_unique<workloads::GatedBehavior>(
                          std::make_unique<workloads::SteadyBehavior>(
                              workloads::memory_stress(64e6, 1.0), 0),
                          job.gate));
          jobs.push_back(job);
        }
      }
    }
    for (Job& job : jobs) {
      if (job.done) continue;
      const auto stat = hosts[job.host]->proc_stat(job.pid);
      if (stat && stat->counters.instructions >= kJobTarget) {
        job.done = true;
        *job.gate = false;
      }
    }
    if (advanced >= next_tick) {
      fleet.actor_system().tell(
          gov_ref, actors::Payload(governor::GovernorTick{advanced}));
      fleet.settle();
      next_tick += util::ms_to_ns(100);
    }
  };
  fleet.run_for(util::seconds_to_ns(3), on_chunk);
  fleet.finish();

  double joules = 0.0;
  double instructions = 0.0;
  for (const auto& host : hosts) {
    joules += host->total_energy_joules();
    instructions += static_cast<double>(host->machine_counters().instructions);
  }
  return joules / (instructions / 1e9);
}

void BM_GovernorJoulesPerWork(benchmark::State& state) {
  const std::size_t host_count = static_cast<std::size_t>(state.range(0));
  double capped = 0.0;
  double uncapped = 0.0;
  for (auto _ : state) {
    uncapped = joules_per_gigainstr(host_count, 0.0);
    capped = joules_per_gigainstr(host_count, 45.0);
    benchmark::DoNotOptimize(capped);
  }
  state.counters["uncapped_j_per_gi"] = uncapped;
  state.counters["capped_j_per_gi"] = capped;
  state.counters["saved_pct"] = 100.0 * (uncapped - capped) / uncapped;
}
BENCHMARK(BM_GovernorJoulesPerWork)->Arg(1)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return powerapi::benchx::run_benchmarks_with_json(argc, argv, "governor");
}
