// power_governor: close the loop — joules saved at equal work done.
//
//   $ ./power_governor
//   $ ./power_governor --hosts 8 --budget 356 --policy race
//
// A batch fleet idles until a demand spike lands: every host receives two
// memory-bound scan jobs, each with a fixed amount of work (retired
// instructions), and both runs simulate the SAME wall-clock window. The
// uncapped run blasts the jobs at f_max, finishes early and idles out the
// window. The capped run feeds each host's aggregated rows to a Governor
// and calls it from the FleetMonitor's actuation channel
// (`run_for(duration, on_chunk)`): the governor holds the
// fleet watt budget by stepping DVFS/parking rungs, the jobs take a little
// longer, and the fleet idles a little less. Work is equal by construction
// (each job is killed the chunk its instruction target is reached), wall
// time is equal, so the joule delta is pure efficiency: memory-bound
// throughput barely scales with frequency, while V²-scaled activity energy
// and busy-core static power drop with every rung.
//
// Everything is kManual and seeded, so the example doubles as a determinism
// check: the capped run executes twice and must agree bit-for-bit.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "governor/governor.h"
#include "model/power_model.h"
#include "os/system.h"
#include "powerapi/fleet_monitor.h"
#include "util/arg_parser.h"
#include "util/logging.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

using namespace powerapi;

namespace {

constexpr util::DurationNs kTimeline = util::seconds_to_ns(30);
constexpr util::DurationNs kSpikeStart = util::seconds_to_ns(6);
constexpr util::DurationNs kMonitorPeriod = util::ms_to_ns(100);
constexpr util::DurationNs kTickInterval = util::ms_to_ns(500);
/// Per-job retired-instruction target: ~12 s of scan at f_max, leaving
/// enough slack in the window for the governed run to finish too.
constexpr std::uint64_t kJobInstructions = 4'500'000'000ULL;
constexpr std::size_t kJobsPerHost = 2;

/// Fixed per-frequency formula standing in for a trained model, with
/// coefficients fit to the simulator's scan operating points so the sensed
/// gauge tracks the wall meter across the whole DVFS ladder. The miss
/// coefficient shrinks with frequency the way a per-frequency regression
/// fits it: DRAM energy itself is voltage-flat, but the busy-core static
/// power that co-varies with the miss rate is not.
model::CpuPowerModel governor_model() {
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

struct Job {
  std::size_t host = 0;
  os::Pid pid = 0;
  std::uint64_t target = 0;
  workloads::GatedBehavior::Gate gate;
  bool done = false;
};

struct RunResult {
  double joules = 0.0;
  std::uint64_t instructions = 0;
  double peak_fleet_watts = 0.0;     ///< Max over all governor ticks.
  double settled_fleet_watts = 0.0;  ///< Max after the controller settled.
  std::uint64_t actuations = 0;
  util::TimestampNs batch_done_ns = 0;
};

/// One fleet run over the fixed window. budget_watts <= 0 leaves the
/// governor sensing but never stepping (the uncapped reference).
RunResult run_fleet(std::size_t host_count, double budget_watts,
                    governor::Policy policy) {
  std::vector<std::unique_ptr<os::System>> hosts;
  for (std::size_t i = 0; i < host_count; ++i) {
    hosts.push_back(std::make_unique<os::System>(simcpu::i3_2120()));
  }

  governor::GovernorOptions gov_options;
  gov_options.budget_watts = budget_watts;
  gov_options.policy = policy;
  gov_options.hysteresis_watts = 1.5;
  gov_options.cooldown_ns = util::ms_to_ns(2000);
  gov_options.max_step = 2;
  gov_options.formula = "powerapi-hpc";
  std::vector<governor::HostControl> controls;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    controls.push_back(governor::control_for("host" + std::to_string(i), *hosts[i]));
  }
  // Constructed before the fleet, whose pipelines report to it.
  governor::Governor gov(gov_options, std::move(controls));

  api::FleetMonitor::Options options;
  options.mode = actors::ActorSystem::Mode::kManual;
  api::FleetMonitor fleet(options);
  api::PipelineSpec spec;
  spec.period = kMonitorPeriod;
  spec.model = governor_model();
  for (auto& host : hosts) {
    const std::size_t index = fleet.add_host(*host, spec);
    fleet.monitor_all(index);
    fleet.add_callback_reporter(
        index, [&gov, index](const api::AggregatedPower& row) { gov.observe(index, row); });
  }

  RunResult result;
  std::vector<Job> jobs;
  util::TimestampNs elapsed = 0;
  util::TimestampNs next_tick = kTickInterval;
  // The actuation channel: run_for settles the fleet before and after this
  // callback, so mutating hosts and calling the governor here is race-free
  // by construction (and deterministic under kManual). `advanced` is
  // cumulative within the run_for call.
  const auto on_chunk = [&](util::DurationNs advanced) {
    elapsed = advanced;
    if (jobs.empty() && elapsed >= kSpikeStart) {
      for (std::size_t i = 0; i < hosts.size(); ++i) {
        for (std::size_t j = 0; j < kJobsPerHost; ++j) {
          Job job;
          job.host = i;
          // Slight per-host/job spread so completion staggers realistically.
          job.target = kJobInstructions + 150'000'000ULL * ((i + j) % 3);
          job.gate = std::make_shared<bool>(true);
          const double working_set = 64e6 * static_cast<double>(1 + (i + j) % 3);
          job.pid = hosts[i]->spawn(
              "scan" + std::to_string(j),
              std::make_unique<workloads::GatedBehavior>(
                  std::make_unique<workloads::SteadyBehavior>(
                      workloads::memory_stress(working_set, 1.0), 0),
                  job.gate));
          jobs.push_back(job);
        }
      }
    }
    // Work-bounded jobs: close each job's gate the chunk its target is
    // reached (the task stays alive at zero activity, so the sense
    // pipeline keeps publishing and the governor steps back up). Both runs
    // overshoot by at most one chunk's retirement, so total work is equal
    // to well under a percent.
    bool all_done = !jobs.empty();
    for (Job& job : jobs) {
      if (!job.done) {
        const auto stat = hosts[job.host]->proc_stat(job.pid);
        if (stat && stat->counters.instructions >= job.target) {
          job.done = true;
          *job.gate = false;
        }
      }
      all_done = all_done && job.done;
    }
    if (all_done && result.batch_done_ns == 0) result.batch_done_ns = elapsed;
    if (elapsed >= next_tick) {
      gov.decide(elapsed);
      next_tick += kTickInterval;
      const double watts = gov.last_fleet_watts();
      result.peak_fleet_watts = std::max(result.peak_fleet_watts, watts);
      // "Settled": give the controller time to descend the ladder (two
      // rungs per tick from 3.3 GHz) before holding it to the budget.
      if (elapsed >= kSpikeStart + util::seconds_to_ns(4)) {
        result.settled_fleet_watts = std::max(result.settled_fleet_watts, watts);
      }
    }
  };

  fleet.run_for(kTimeline, on_chunk);
  fleet.finish();

  for (const auto& host : hosts) {
    result.instructions += host->machine_counters().instructions;
    result.joules += host->total_energy_joules();
  }
  result.actuations = gov.actuation_count();
  return result;
}

void print_run(const char* label, const RunResult& run) {
  std::printf("%-9s %9.1f J  %13llu instr  peak %6.1f W  settled %6.1f W  "
              "%3llu actuations  batch done %5.1f s\n",
              label, run.joules,
              static_cast<unsigned long long>(run.instructions),
              run.peak_fleet_watts, run.settled_fleet_watts,
              static_cast<unsigned long long>(run.actuations),
              static_cast<double>(run.batch_done_ns) / 1e9);
}

}  // namespace

int main(int argc, char** argv) {
  util::configure_logging(argc, argv);
  std::size_t hosts = 4;
  double budget = 180.0;
  std::string policy_name = "pace";
  util::ArgParser parser("power_governor",
                         "Capped-vs-uncapped batch fleet: joules saved at "
                         "equal work done, equal wall time.");
  parser.add_size("hosts", &hosts, "fleet size");
  parser.add_double("budget", &budget,
                    "fleet watt budget for the capped run (~45 W/host)");
  parser.add_string("policy", &policy_name, "pace | race");
  if (const auto exit_code = parser.parse(argc, argv)) return *exit_code;
  if (policy_name != "pace" && policy_name != "race") {
    std::fprintf(stderr, "unknown --policy %s (want pace|race)\n",
                 policy_name.c_str());
    return 1;
  }
  const governor::Policy policy = policy_name == "race"
                                      ? governor::Policy::kRaceToIdle
                                      : governor::Policy::kPaceToDeadline;

  std::printf("=== power_governor: %zu hosts, %zu scan jobs each at %.0f s, "
              "%.0f s window, budget %.1f W (%s) ===\n",
              hosts, kJobsPerHost, static_cast<double>(kSpikeStart) / 1e9,
              static_cast<double>(kTimeline) / 1e9, budget,
              policy_name.c_str());

  const RunResult uncapped = run_fleet(hosts, 0.0, policy);
  print_run("uncapped", uncapped);
  const RunResult capped = run_fleet(hosts, budget, policy);
  print_run("capped", capped);

  // Determinism: a second kManual capped run must agree bit-for-bit.
  const RunResult rerun = run_fleet(hosts, budget, policy);
  const bool deterministic = rerun.joules == capped.joules &&
                             rerun.instructions == capped.instructions &&
                             rerun.actuations == capped.actuations &&
                             rerun.peak_fleet_watts == capped.peak_fleet_watts;

  const double saved = uncapped.joules - capped.joules;
  const double work_delta =
      (static_cast<double>(capped.instructions) -
       static_cast<double>(uncapped.instructions)) /
      static_cast<double>(uncapped.instructions);
  std::printf("\njoules saved at equal work: %.1f J (%.2f%% of fleet energy, "
              "work delta %+.3f%%)\n",
              saved, 100.0 * saved / uncapped.joules, 100.0 * work_delta);
  std::printf("settled fleet power: %.1f W -> %.1f W (budget %.1f W)\n",
              uncapped.settled_fleet_watts, capped.settled_fleet_watts, budget);
  std::printf("determinism: two kManual capped runs %s\n",
              deterministic ? "bit-identical" : "DIVERGED");

  const bool equal_work = std::fabs(work_delta) < 0.01;
  const bool batch_finished =
      uncapped.batch_done_ns > 0 && capped.batch_done_ns > 0;
  // Each host holds its share to within the hysteresis band, so the fleet
  // as a whole settles within hosts x hysteresis of the budget.
  const bool bounded_actuations =
      capped.actuations > 0 && capped.actuations <= 16 * hosts;
  const bool held_budget = capped.settled_fleet_watts <=
                           budget + 1.5 * static_cast<double>(hosts) + 2.0;
  const bool ok = deterministic && equal_work && batch_finished &&
                  bounded_actuations && held_budget && saved > 0.0;
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: equal_work=%d batch_finished=%d bounded_actuations=%d "
                 "held_budget=%d saved>0=%d deterministic=%d\n",
                 equal_work, batch_finished, bounded_actuations, held_budget,
                 saved > 0.0, deterministic);
  }
  return ok ? 0 : 1;
}
