// The power governor: policy arithmetic (rung ladders, budget shares, the
// hysteresis/cooldown step controller), core parking in the simulated
// machine, and the closed loop end to end — budget held without pstate
// oscillation under a step load, parked cores re-waking, and parallel host
// slices reproducing the kManual decision series exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "governor/governor.h"
#include "governor/policy.h"
#include "os/system.h"
#include "scenario/scenario_parser.h"
#include "scenario/scenario_runner.h"
#include "simcpu/machine.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

namespace powerapi::governor {
namespace {

using util::ms_to_ns;

// ---------------------------------------------------------------------------
// Policy layer: pure arithmetic.
// ---------------------------------------------------------------------------

const std::vector<double> kLadder = {1.6e9, 2.0e9, 2.6e9, 3.3e9};

TEST(RungLadder, PaceDescendsFrequencyBeforeParking) {
  const auto rungs = build_rung_ladder(Policy::kPaceToDeadline, kLadder, 4, 1);
  ASSERT_EQ(rungs.size(), 7u);  // 1 + 3 lower freqs + 3 parkable cores.
  EXPECT_EQ(rungs[0].frequency_hz, 3.3e9);
  EXPECT_EQ(rungs[0].parked_cores, 0u);
  EXPECT_EQ(rungs[1].frequency_hz, 2.6e9);
  EXPECT_EQ(rungs[2].frequency_hz, 2.0e9);
  EXPECT_EQ(rungs[3].frequency_hz, 1.6e9);
  EXPECT_EQ(rungs[3].parked_cores, 0u);
  // Parking only at the ladder floor.
  EXPECT_EQ(rungs[4].frequency_hz, 1.6e9);
  EXPECT_EQ(rungs[4].parked_cores, 1u);
  EXPECT_EQ(rungs[6].parked_cores, 3u);
}

TEST(RungLadder, RaceParksBeforeFrequencyDescent) {
  const auto rungs = build_rung_ladder(Policy::kRaceToIdle, kLadder, 4, 1);
  ASSERT_EQ(rungs.size(), 7u);
  EXPECT_EQ(rungs[0].frequency_hz, 3.3e9);
  // Parking first, at full frequency.
  EXPECT_EQ(rungs[1].frequency_hz, 3.3e9);
  EXPECT_EQ(rungs[1].parked_cores, 1u);
  EXPECT_EQ(rungs[3].parked_cores, 3u);
  // Then frequency descent with maximum parking held.
  EXPECT_EQ(rungs[4].frequency_hz, 2.6e9);
  EXPECT_EQ(rungs[4].parked_cores, 3u);
  EXPECT_EQ(rungs[6].frequency_hz, 1.6e9);
}

TEST(RungLadder, MinActiveCoresBoundsParking) {
  const auto rungs = build_rung_ladder(Policy::kPaceToDeadline, kLadder, 4, 3);
  for (const Rung& rung : rungs) EXPECT_LE(rung.parked_cores, 1u);
  // min_active_cores == cores: no parking rungs at all.
  const auto no_park = build_rung_ladder(Policy::kRaceToIdle, kLadder, 4, 4);
  ASSERT_EQ(no_park.size(), kLadder.size());
  for (const Rung& rung : no_park) EXPECT_EQ(rung.parked_cores, 0u);
}

TEST(ComputeShares, ProportionalWithHeadroomRedistribution) {
  std::vector<double> shares;
  // Equal weights, host 0 nearly idle: its headroom flows to the two hosts
  // in deficit, proportional to each deficit.
  compute_shares(90.0, std::vector<double>{1, 1, 1},
                 std::vector<double>{10, 40, 40}, shares);
  ASSERT_EQ(shares.size(), 3u);
  EXPECT_NEAR(shares[0], 10.0, 1e-12);  // Donor keeps exactly its draw.
  EXPECT_NEAR(shares[1], 40.0, 1e-12);
  EXPECT_NEAR(shares[2], 40.0, 1e-12);
}

TEST(ComputeShares, AlwaysSumsToBudget) {
  const std::vector<std::vector<double>> watt_cases = {
      {0, 0, 0}, {50, 50, 50}, {5, 80, 20}, {100, 1, 1}};
  for (const auto& watts : watt_cases) {
    for (const auto& weights : std::vector<std::vector<double>>{
             {1, 1, 1}, {2, 1, 1}, {0, 0, 0}}) {
      std::vector<double> shares;
      compute_shares(75.0, weights, watts, shares);
      double sum = 0.0;
      for (double s : shares) sum += s;
      EXPECT_NEAR(sum, 75.0, 1e-9);
    }
  }
}

TEST(StepController, ProportionalDownStepIsImmediateAndCapped) {
  StepController controller(StepController::Options{2.0, ms_to_ns(1000), 3});
  // Overshoot of 7 W in 2 W bands → 3 rungs, within the cap.
  EXPECT_EQ(controller.decide(0, 10, 32.0, 25.0, 0), 3u);
  EXPECT_EQ(controller.last_direction(), -1);
  // A huge overshoot is still capped at max_step.
  EXPECT_EQ(controller.decide(3, 10, 100.0, 25.0, 1), 6u);
  // Clamped to max_rung.
  EXPECT_EQ(controller.decide(9, 10, 100.0, 25.0, 2), 10u);
}

TEST(StepController, UpStepWaitsOutCooldownAndSingleSteps) {
  StepController controller(StepController::Options{2.0, ms_to_ns(1000), 1});
  // Before any actuation the controller may step up immediately.
  EXPECT_EQ(controller.decide(4, 10, 10.0, 25.0, 0), 3u);
  EXPECT_EQ(controller.last_direction(), 1);
  // Inside the cooldown window: hold, however far under budget.
  EXPECT_EQ(controller.decide(3, 10, 1.0, 25.0, ms_to_ns(500)), 3u);
  EXPECT_EQ(controller.last_direction(), 0);
  // Cooldown elapsed: exactly one rung, never proportional.
  EXPECT_EQ(controller.decide(3, 10, 1.0, 25.0, ms_to_ns(1000)), 2u);
  EXPECT_EQ(controller.last_direction(), 1);
  // A down-step also arms the cooldown for the next up-step.
  EXPECT_EQ(controller.decide(2, 10, 40.0, 25.0, ms_to_ns(1100)), 3u);
  EXPECT_EQ(controller.decide(3, 10, 1.0, 25.0, ms_to_ns(1500)), 3u);
  EXPECT_EQ(controller.decide(3, 10, 1.0, 25.0, ms_to_ns(2100)), 2u);
}

TEST(StepController, HoldsInsideHysteresisBand) {
  StepController controller(StepController::Options{2.0, ms_to_ns(1000), 1});
  EXPECT_EQ(controller.decide(5, 10, 26.9, 25.0, 0), 5u);
  EXPECT_EQ(controller.decide(5, 10, 23.1, 25.0, ms_to_ns(5000)), 5u);
  EXPECT_EQ(controller.last_direction(), 0);
}

TEST(StepController, ZeroBandSingleStepsDown) {
  StepController controller(StepController::Options{0.0, ms_to_ns(1000), 4});
  EXPECT_EQ(controller.decide(0, 10, 25.1, 25.0, 0), 1u);
}

// ---------------------------------------------------------------------------
// Core parking in the simulated machine and OS.
// ---------------------------------------------------------------------------

std::vector<simcpu::ThreadWork> busy_work(const simcpu::CpuSpec& spec) {
  std::vector<simcpu::ThreadWork> work(spec.hw_threads());
  for (std::size_t i = 0; i < work.size(); ++i) {
    work[i].active = true;
    work[i].task_id = static_cast<std::int64_t>(i + 1);
    work[i].profile = workloads::cpu_stress();
  }
  return work;
}

TEST(CoreParking, ParkedCoresExecuteNothingAndBurnC6) {
  const auto spec = simcpu::quad_core();
  simcpu::Machine machine(spec);
  simcpu::Machine reference(spec);
  const auto work = busy_work(spec);
  for (int i = 0; i < 5; ++i) {
    machine.tick(work, ms_to_ns(1));
    reference.tick(work, ms_to_ns(1));
  }
  // Nothing parked yet: bit-identical with the reference machine.
  EXPECT_EQ(machine.total_energy_joules(), reference.total_energy_joules());

  ASSERT_TRUE(machine.set_core_parked(3, true));
  EXPECT_EQ(machine.parked_core_count(), 1u);
  const std::size_t thread = 3 * spec.threads_per_core;  // Core 3's first HT.
  const auto before = machine.thread_counters(thread);
  double parked_power = 0.0;
  for (int i = 0; i < 5; ++i) {
    parked_power = machine.tick(work, ms_to_ns(1)).power.total();
    reference.tick(work, ms_to_ns(1));
  }
  // The parked core's threads execute nothing and the package draws less
  // than the identical unparked machine.
  EXPECT_EQ(machine.thread_counters(thread).instructions, before.instructions);
  EXPECT_LT(parked_power, reference.last_power_watts());
}

TEST(CoreParking, ReWakeChargesTheC6SpikeAndResumesWork) {
  const auto spec = simcpu::quad_core();
  simcpu::Machine machine(spec);
  const auto work = busy_work(spec);
  const std::size_t thread = 3 * spec.threads_per_core;  // Core 3's first HT.
  machine.set_core_parked(3, true);
  for (int i = 0; i < 3; ++i) machine.tick(work, ms_to_ns(1));
  const auto parked_counters = machine.thread_counters(thread);

  EXPECT_FALSE(machine.set_core_parked(3, false));
  EXPECT_EQ(machine.parked_core_count(), 0u);
  machine.tick(work, ms_to_ns(1));
  // The re-woken core executes again.
  EXPECT_GT(machine.thread_counters(thread).instructions,
            parked_counters.instructions);
}

TEST(CoreParking, SystemParksHighestCoresAndKeepsOneAwake) {
  os::System system(simcpu::quad_core());
  EXPECT_EQ(system.set_parked_cores(2), 2u);
  EXPECT_TRUE(system.machine().core_parked(2));
  EXPECT_TRUE(system.machine().core_parked(3));
  EXPECT_FALSE(system.machine().core_parked(0));
  // Requests beyond cores-1 clamp: one core always stays awake.
  EXPECT_EQ(system.set_parked_cores(99), 3u);
  EXPECT_EQ(system.parked_cores(), 3u);
  // The scheduler keeps running on the remaining core.
  system.spawn("app", std::make_unique<workloads::SteadyBehavior>(
                          workloads::cpu_stress(), 0));
  system.run_for(ms_to_ns(20));
  EXPECT_GT(system.machine().machine_counters().instructions, 0u);
  // Unpark everything again.
  EXPECT_EQ(system.set_parked_cores(0), 0u);
  EXPECT_EQ(system.machine().parked_core_count(), 0u);
}

// ---------------------------------------------------------------------------
// The GovernorActor against a synthetic plant.
// ---------------------------------------------------------------------------

/// A fake host whose draw responds to the governor's actuations: watts =
/// idle + span · (f / f_max) · (active / cores) · demand. Deterministic and
/// instant, so the loop dynamics under test are the controller's alone.
struct Plant {
  double idle = 10.0;
  double dyn_span = 30.0;
  double demand = 1.0;
  double frequency = 3.3e9;
  std::size_t parked = 0;
  std::vector<std::size_t> parked_history;

  double watts() const {
    const double active = static_cast<double>(4 - parked) / 4.0;
    return idle + dyn_span * (frequency / 3.3e9) * active * demand;
  }
  HostControl control(const std::string& label) {
    HostControl c;
    c.label = label;
    c.cores = 4;
    c.frequencies_ascending = kLadder;
    c.set_frequency = [this](double hz) { return frequency = hz; };
    c.set_parked = [this](std::size_t cores) {
      parked_history.push_back(cores);
      return parked = cores;
    };
    return c;
  }
};

struct Loop {
  actors::ActorSystem system;
  actors::EventBus bus{system};
  GovernorActor* governor = nullptr;
  actors::ActorRef ref;
  std::vector<Plant>* plants = nullptr;
  util::TimestampNs now = 0;

  Loop(GovernorOptions options, std::vector<Plant>& hosts) : plants(&hosts) {
    std::vector<HostControl> controls;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      controls.push_back(hosts[i].control("h" + std::to_string(i)));
    }
    auto actor = std::make_unique<GovernorActor>(bus, std::move(options),
                                                 std::move(controls));
    governor = actor.get();
    ref = system.spawn("governor", std::move(actor));
  }

  /// One sense→decide cycle: every plant reports, then the tick evaluates.
  void tick(util::DurationNs interval = ms_to_ns(500)) {
    now += interval;
    for (std::size_t i = 0; i < plants->size(); ++i) {
      HostPower power;
      power.host = i;
      power.timestamp = now;
      power.formula = "powerapi-hpc";
      power.watts = (*plants)[i].watts();
      power.machine_scope = true;
      system.tell(ref, actors::Payload(std::move(power)));
    }
    system.tell(ref, actors::Payload(GovernorTick{now}));
    system.drain();
  }

  double fleet_watts() const {
    double sum = 0.0;
    for (const Plant& p : *plants) sum += p.watts();
    return sum;
  }
};

GovernorOptions loop_options() {
  GovernorOptions options;
  options.budget_watts = 50.0;
  options.hysteresis_watts = 2.0;
  options.cooldown_ns = ms_to_ns(1000);  // Two 500 ms ticks.
  return options;
}

TEST(GovernorActor, HoldsBudgetUnderStepLoadWithoutOscillation) {
  std::vector<Plant> plants(2);
  Loop loop(loop_options(), plants);

  // Demand spike: both hosts at full tilt would draw 80 W against 50 W.
  for (int i = 0; i < 20; ++i) loop.tick();
  EXPECT_LE(loop.fleet_watts(), 50.0 + 2.0 * 2);  // Within hysteresis bands.
  EXPECT_GT(loop.governor->actuation_count(), 0u);

  // Once converged the governor must be quiet: no limit-cycle around the
  // cap. Ten more steady ticks may not actuate at all.
  const std::uint64_t settled = loop.governor->actuation_count();
  for (int i = 0; i < 10; ++i) loop.tick();
  EXPECT_EQ(loop.governor->actuation_count(), settled);

  // Load fades: the governor steps back up, cooldown-limited, and goes
  // quiet again at the top of the ladder.
  for (Plant& p : plants) p.demand = 0.2;
  for (int i = 0; i < 30; ++i) loop.tick();
  EXPECT_EQ(loop.governor->current_rung(0), 0u);
  EXPECT_EQ(loop.governor->current_rung(1), 0u);
  const std::uint64_t recovered = loop.governor->actuation_count();
  for (int i = 0; i < 10; ++i) loop.tick();
  EXPECT_EQ(loop.governor->actuation_count(), recovered);

  // Bounded actuation total: each host can descend and re-climb the ladder
  // once per load transition, nothing more.
  EXPECT_LE(recovered, 2u * 2u * 6u);
}

TEST(GovernorActor, CooldownSpacesUpSteps) {
  std::vector<Plant> plants(1);
  GovernorOptions options = loop_options();
  options.budget_watts = 25.0;
  Loop loop(options, plants);

  for (int i = 0; i < 12; ++i) loop.tick();
  const std::size_t throttled = loop.governor->current_rung(0);
  EXPECT_GT(throttled, 0u);

  // Demand vanishes; with a 2-tick cooldown the rung may recover at most
  // every second tick.
  plants[0].demand = 0.1;
  std::size_t previous = throttled;
  int recoveries_in_consecutive_ticks = 0;
  bool recovered_last_tick = false;
  for (int i = 0; i < 20 && previous > 0; ++i) {
    loop.tick();
    const std::size_t rung = loop.governor->current_rung(0);
    ASSERT_GE(previous, rung);          // Never overshoots downward here.
    ASSERT_LE(previous - rung, 1u);     // Single-stepped.
    if (rung < previous && recovered_last_tick) ++recoveries_in_consecutive_ticks;
    recovered_last_tick = rung < previous;
    previous = rung;
  }
  EXPECT_EQ(previous, 0u);
  EXPECT_EQ(recoveries_in_consecutive_ticks, 0);
}

TEST(GovernorActor, RaceToIdleParksAndReWakes) {
  std::vector<Plant> plants(1);
  GovernorOptions options = loop_options();
  options.budget_watts = 22.0;  // Forces deep throttling of the lone host.
  options.policy = Policy::kRaceToIdle;
  options.min_active_cores = 2;
  Loop loop(options, plants);

  for (int i = 0; i < 15; ++i) loop.tick();
  EXPECT_GT(plants[0].parked, 0u);
  EXPECT_LE(plants[0].parked, 2u);  // min_active_cores floor respected.

  plants[0].demand = 0.05;
  for (int i = 0; i < 30; ++i) loop.tick();
  EXPECT_EQ(plants[0].parked, 0u);  // Re-woken all the way.
  EXPECT_EQ(loop.governor->current_rung(0), 0u);
  // History shows the round trip, and every actuation was recorded.
  EXPECT_FALSE(plants[0].parked_history.empty());
  EXPECT_EQ(loop.governor->history().size(), loop.governor->actuation_count());
}

// ---------------------------------------------------------------------------
// Closed loop through the scenario layer: determinism across runs and modes.
// ---------------------------------------------------------------------------

const char* kGovernScenario = R"(
scenario govern_test
seed 11
duration 4s
tick 1ms

cpu c i3_2120

workload hot
  kind steady
  profile cpu intensity=1.0
end

host a
  count 2
  cpu c
  run hot copies=2 name=hot
end

monitor period=100ms dimension=timestamp
formula fixed idle=30 coefficients=2.0e-9,3.0e-9,1.5e-8
govern budget_w=64 policy=pace hysteresis_w=1 cooldown_ms=400 interval_ms=200
fleet aggregation=on workers=2
)";

scenario::RunResult run_govern_scenario(actors::ActorSystem::Mode mode) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioParser::parse_string(kGovernScenario, "govern_test");
  scenario::ScenarioRunner runner(std::move(spec));
  scenario::RunOptions options;
  options.mode = mode;
  return runner.run(options);
}

std::string hosts_csv(const scenario::RunResult& result) {
  std::ostringstream out;
  scenario::write_csv(out, result);
  return out.str();
}

TEST(GovernorScenario, ManualRunsAreByteIdenticalAndActuate) {
  const auto first = run_govern_scenario(actors::ActorSystem::Mode::kManual);
  const auto second = run_govern_scenario(actors::ActorSystem::Mode::kManual);
  EXPECT_GT(first.governor_actuations, 0u);
  EXPECT_EQ(first.governor_actuations, second.governor_actuations);
  EXPECT_EQ(hosts_csv(first), hosts_csv(second));
}

/// Per-formula machine series: (timestamp, watts) pairs in emission order.
/// Rows of different formulas may interleave differently under parallel
/// host slices (that interleaving is not part of the determinism contract);
/// within a formula, order and values must match bit-exactly.
std::map<std::string, std::vector<std::pair<util::TimestampNs, double>>>
series_by_formula(const scenario::HostSeries& host) {
  std::map<std::string, std::vector<std::pair<util::TimestampNs, double>>> out;
  for (const auto& row : host.rows) {
    out[row.formula].emplace_back(row.timestamp, row.watts);
  }
  return out;
}

TEST(GovernorScenario, ThreadedMatchesManualPerHostSeries) {
  const auto manual = run_govern_scenario(actors::ActorSystem::Mode::kManual);
  const auto threaded = run_govern_scenario(actors::ActorSystem::Mode::kThreaded);
  EXPECT_EQ(manual.governor_actuations, threaded.governor_actuations);
  ASSERT_EQ(manual.hosts.size(), threaded.hosts.size());
  for (std::size_t h = 0; h < manual.hosts.size(); ++h) {
    const auto m = series_by_formula(manual.hosts[h]);
    const auto t = series_by_formula(threaded.hosts[h]);
    // Bit-exact: the governor's decisions (and so the DVFS trajectory)
    // must be identical in both fleet modes.
    EXPECT_EQ(m, t) << manual.hosts[h].id;
  }
}

}  // namespace
}  // namespace powerapi::governor
