// Pipeline-layer units: the SamplingWindow bookkeeping core, the
// counter-underflow guard in HpcSensor (pid reuse), PowerMeter's tick
// coalescing under a coarse kernel quantum, finish() flush semantics and
// the console reporter's lines.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "actors/actor_system.h"
#include "actors/event_bus.h"
#include "os/system.h"
#include "powerapi/power_meter.h"
#include "powerapi/sampling_window.h"
#include "powerapi/sensors.h"
#include "scripted_host.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

namespace powerapi::api {
namespace {

using util::ms_to_ns;
using util::seconds_to_ns;

// --- SamplingWindow ---

TEST(SamplingWindow, FirstAdvancePrimesWithoutAWindow) {
  SamplingWindow<int> window;
  EXPECT_FALSE(window.primed());
  EXPECT_FALSE(window.advance(ms_to_ns(10), 100).has_value());
  EXPECT_TRUE(window.primed());
  EXPECT_EQ(window.last(), 100);
  EXPECT_EQ(window.last_time(), ms_to_ns(10));
}

TEST(SamplingWindow, SecondAdvanceYieldsPreviousSnapshotAndLength) {
  SamplingWindow<int> window;
  window.advance(ms_to_ns(10), 100);
  const auto completed = window.advance(ms_to_ns(35), 250);
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(completed->previous, 100);
  EXPECT_NEAR(completed->seconds, 0.025, 1e-12);
  EXPECT_EQ(completed->start, ms_to_ns(10));
  // State rolled forward: the next window differences against 250.
  EXPECT_EQ(window.last(), 250);
  EXPECT_EQ(window.last_time(), ms_to_ns(35));
}

TEST(SamplingWindow, StaleTimestampIsIgnoredWithoutRollingForward) {
  SamplingWindow<int> window;
  window.advance(ms_to_ns(10), 100);
  EXPECT_FALSE(window.advance(ms_to_ns(10), 999).has_value());  // Same time.
  EXPECT_FALSE(window.advance(ms_to_ns(5), 999).has_value());   // Backwards.
  EXPECT_EQ(window.last(), 100);  // Snapshot untouched by stale calls.
  const auto completed = window.advance(ms_to_ns(20), 200);
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(completed->previous, 100);
}

TEST(SamplingWindow, ResetForcesRepriming) {
  SamplingWindow<int> window;
  window.advance(ms_to_ns(10), 100);
  window.advance(ms_to_ns(20), 200);
  window.reset();
  EXPECT_FALSE(window.primed());
  EXPECT_FALSE(window.advance(ms_to_ns(30), 50).has_value());  // Primes anew.
  const auto completed = window.advance(ms_to_ns(40), 80);
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(completed->previous, 50);  // New baseline, not the stale 200.
  EXPECT_NEAR(completed->seconds, 0.010, 1e-12);
}

TEST(SamplingWindow, ConsecutiveWindowsChain) {
  SamplingWindow<double> window;
  window.advance(seconds_to_ns(1), 1.0);
  for (int i = 2; i <= 5; ++i) {
    const auto completed = window.advance(seconds_to_ns(i), static_cast<double>(i));
    ASSERT_TRUE(completed.has_value());
    EXPECT_DOUBLE_EQ(completed->previous, i - 1.0);
    EXPECT_NEAR(completed->seconds, 1.0, 1e-9);
    EXPECT_EQ(completed->start, seconds_to_ns(i - 1));
  }
}

// --- HpcSensor counter-underflow guard (pid reuse / counter reset) ---

TEST(HpcSensor, CounterRegressionRePrimesInsteadOfWrapping) {
  testing::ScriptedHost host;
  constexpr std::int64_t kPid = 42;
  HpcSensor sensor(host);
  sensor.monitor({kPid});

  std::vector<SensorBatch> batches;
  auto tick = [&](int second, std::uint64_t instructions) {
    host.machine.instructions =
        instructions * 10;  // Machine counters stay monotone throughout.
    host.processes[kPid].instructions = instructions;
    if (auto batch = sensor.sample(MonitorTick{seconds_to_ns(second)})) {
      batches.push_back(std::move(*batch));
    }
  };

  tick(1, 1'000'000);  // Primes.
  tick(2, 3'000'000);  // First window: 2e6 instructions over 1 s.
  // The process died and the pid was reused: the new process's cumulative
  // counters restart near zero — far below the previous snapshot.
  tick(3, 50'000);  // Regressed: must re-prime, not wrap to ~1.8e19/s.
  tick(4, 250'000);  // First window of the reincarnated pid.

  // The pid row's instruction rate of every batch that carries one.
  std::vector<double> pid_rates;
  for (const auto& batch : batches) {
    const model::FeatureMatrix& rows = *batch.features;
    for (std::size_t i = 0; i < rows.rows(); ++i) {
      if (rows.pid(i) == kPid) {
        pid_rates.push_back(rows.rate_lane(hpc::EventId::kInstructions)[i]);
      }
    }
  }
  ASSERT_EQ(pid_rates.size(), 2u);  // Ticks 2 and 4; tick 3 only re-primed.
  EXPECT_NEAR(pid_rates[0], 2e6, 1e-6);
  // Post-reuse window differences against the tick-3 baseline (50k), not the
  // stale 3e6 snapshot: an unsigned wrap would read ~1.8e19 events/s.
  EXPECT_NEAR(pid_rates[1], 2e5, 1e-6);
}

// --- PowerMeter::run_for tick coalescing ---

/// Collects every MonitorTick published on a pipeline's tick topic.
class TickCollector final : public actors::Actor {
 public:
  void receive(actors::Envelope& envelope) override {
    if (const auto* tick = envelope.payload.get<MonitorTick>()) items.push_back(*tick);
  }
  std::vector<MonitorTick> items;
};

model::CpuPowerModel tiny_model() {
  std::vector<model::FrequencyFormula> formulas;
  for (const double hz : simcpu::i3_2120().frequencies_hz) {
    model::FrequencyFormula f;
    f.frequency_hz = hz;
    f.events = {hpc::EventId::kInstructions};
    f.coefficients = {2.2e-9};
    formulas.push_back(std::move(f));
  }
  return model::CpuPowerModel(31.0, std::move(formulas));
}

TEST(PowerMeter, CoarseKernelQuantumCoalescesDueTicks) {
  // Kernel quantum (10 ms) far above the monitor period (3 ms): each 3 ms
  // step's advance overshoots to the next quantum and several ticks fall
  // due at once. The ticker's catch-up must publish every one of them,
  // stamped with the host's (coalesced) now. run_for counts requested time,
  // so 9 ms is three steps and three quanta.
  os::System::Options options;
  options.tick_ns = ms_to_ns(10);
  os::System system(simcpu::i3_2120(), std::move(options));

  PowerMeter::Config config;
  config.period = ms_to_ns(3);
  PowerMeter meter(system, tiny_model(), config);

  auto collector = std::make_unique<TickCollector>();
  TickCollector& ticks = *collector;
  meter.bus().subscribe(meter.pipeline().tick_topic(),
                        meter.actor_system().spawn("tick-probe", std::move(collector)));

  meter.run_for(ms_to_ns(9));
  EXPECT_EQ(system.now_ns(), ms_to_ns(30));

  // Chunks land on the 10 ms quanta: ticks due at 3,6,9 ms fire at now=10ms,
  // 12,15,18 at 20 ms, and 21,24,27,30 at 30 ms.
  ASSERT_EQ(ticks.items.size(), 10u);
  const std::vector<util::TimestampNs> expected = {
      ms_to_ns(10), ms_to_ns(10), ms_to_ns(10), ms_to_ns(20), ms_to_ns(20),
      ms_to_ns(20), ms_to_ns(30), ms_to_ns(30), ms_to_ns(30), ms_to_ns(30)};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(ticks.items[i].timestamp, expected[i]) << "tick " << i;
  }
  meter.finish();

  // The overshoot: 30 ms requested is ten 3 ms steps, each a whole 10 ms
  // quantum on this host, so the host clock ends at 100 ms.
  os::System::Options coarse;
  coarse.tick_ns = ms_to_ns(10);
  os::System overshot(simcpu::i3_2120(), std::move(coarse));
  PowerMeter long_meter(overshot, tiny_model(), config);
  long_meter.run_for(ms_to_ns(30));
  EXPECT_EQ(overshot.now_ns(), ms_to_ns(100));
  long_meter.finish();
}

TEST(PowerMeter, RunForAtExactPeriodMultiplesFiresOneTickPerChunk) {
  os::System system(simcpu::i3_2120());
  PowerMeter::Config config;
  config.period = ms_to_ns(250);
  PowerMeter meter(system, tiny_model(), config);

  auto collector = std::make_unique<TickCollector>();
  TickCollector& ticks = *collector;
  meter.bus().subscribe(meter.pipeline().tick_topic(),
                        meter.actor_system().spawn("tick-probe", std::move(collector)));

  meter.run_for(seconds_to_ns(2));
  ASSERT_EQ(ticks.items.size(), 8u);
  for (std::size_t i = 0; i < ticks.items.size(); ++i) {
    EXPECT_EQ(ticks.items[i].timestamp, ms_to_ns(250) * (i + 1));
  }
  meter.finish();
}

// --- finish(): flush pending aggregation groups exactly once ---

TEST(PowerMeter, FinishFlushesPendingGroupsExactlyOnce) {
  os::System system(simcpu::i3_2120());
  system.spawn("app", std::make_unique<workloads::SteadyBehavior>(
                          workloads::cpu_stress(), 0));
  PowerMeter meter(system, tiny_model());
  auto& memory = meter.add_memory_reporter();
  meter.run_for(seconds_to_ns(2));

  // The timestamp aggregator holds the newest group until a later watermark
  // arrives, so the final window is still pending here.
  const std::size_t before = memory.all().size();
  meter.finish();
  const std::size_t after_first = memory.all().size();
  EXPECT_GT(after_first, before);  // finish() flushed the pending group.
  meter.finish();                  // Idempotent: nothing left to flush.
  EXPECT_EQ(memory.all().size(), after_first);

  // Exactly once: no (timestamp, pid, group, formula) row may repeat.
  std::set<std::tuple<util::TimestampNs, std::int64_t, std::string, std::string>> seen;
  for (const auto& row : memory.all()) {
    EXPECT_TRUE(
        seen.insert({row.timestamp, row.pid, row.group, row.formula}).second)
        << "duplicate row for formula " << row.formula << " at t=" << row.timestamp;
  }
}

// --- add_console_reporter: one human-readable line per row ---

TEST(PowerMeter, ConsoleReporterWritesOneLinePerRowInArrivalOrder) {
  os::System system(simcpu::i3_2120());
  const os::Pid pid = system.spawn(
      "app", std::make_unique<workloads::SteadyBehavior>(workloads::cpu_stress(), 0));
  PowerMeter::Config config;
  config.dimension = AggregationDimension::kPid;
  PowerMeter meter(system, tiny_model(), config);
  meter.monitor({pid});
  std::ostringstream console;
  meter.pipeline().add_console_reporter(console);
  const MemoryReporter& memory = meter.add_memory_reporter();
  meter.run_for(seconds_to_ns(1));
  meter.finish();

  // "t=<seconds>s machine|pid=<pid> <formula> <watts> W", one per row.
  ASSERT_FALSE(memory.all().empty());
  std::ostringstream expected;
  for (const AggregatedPower& row : memory.all()) {
    expected << "t=" << util::ns_to_seconds(row.timestamp) << "s ";
    if (row.pid == kMachinePid) {
      expected << "machine";
    } else {
      expected << "pid=" << row.pid;
    }
    expected << " " << row.formula << " " << row.watts << " W\n";
  }
  EXPECT_EQ(console.str(), expected.str());
  EXPECT_NE(console.str().find(" machine powerspy "), std::string::npos);
  EXPECT_NE(console.str().find(" pid=" + std::to_string(pid) + " powerapi-hpc "),
            std::string::npos);
}

}  // namespace
}  // namespace powerapi::api
