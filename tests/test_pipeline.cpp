// Pipeline-layer units: the SamplingWindow bookkeeping core, the
// counter-underflow guard in HpcSensor (pid reuse), PowerMeter's tick
// coalescing under a coarse kernel quantum, finish() flush semantics, and
// the one message shape of each stage.
#include <gtest/gtest.h>

#include <any>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "actors/actor_system.h"
#include "actors/event_bus.h"
#include "baselines/estimator.h"
#include "hpc/backend.h"
#include "os/system.h"
#include "powerapi/power_meter.h"
#include "powerapi/sampling_window.h"
#include "powerapi/sensors.h"
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

/// Collects raw payloads of one type from a topic.
template <typename T>
class Collector final : public actors::Actor {
 public:
  void receive(actors::Envelope& envelope) override {
    if (const T* value = envelope.payload.get<T>()) items.push_back(*value);
  }
  std::vector<T> items;
};

/// A backend whose cumulative counters the test scripts directly.
class ScriptedBackend final : public hpc::CounterBackend {
 public:
  std::string name() const override { return "scripted"; }
  bool supports(hpc::EventId) const override { return true; }
  util::Result<hpc::EventValues> read(hpc::Target target) override {
    return util::Result<hpc::EventValues>(values[target.pid]);
  }
  std::map<std::int64_t, hpc::EventValues> values;
};

TEST(HpcSensor, CounterRegressionRePrimesInsteadOfWrapping) {
  actors::ActorSystem actors;
  actors::EventBus bus(actors);
  ScriptedBackend backend;
  constexpr std::int64_t kPid = 42;

  auto collector = std::make_unique<Collector<SensorBatch>>();
  Collector<SensorBatch>& batches = *collector;
  bus.subscribe("sensor:hpc", actors.spawn("collector", std::move(collector)));
  const auto sensor = actors.spawn_as<HpcSensor>(
      "sensor", bus, bus.intern("sensor:hpc"), backend,
      [] { return std::vector<std::int64_t>{kPid}; }, nullptr);

  auto tick = [&](int second, std::uint64_t instructions) {
    backend.values[hpc::Target::kMachine][hpc::EventId::kInstructions] =
        instructions * 10;  // Machine counters stay monotone throughout.
    backend.values[kPid][hpc::EventId::kInstructions] = instructions;
    sensor.tell(MonitorTick{seconds_to_ns(second)});
    actors.drain();
  };

  tick(1, 1'000'000);  // Primes.
  tick(2, 3'000'000);  // First window: 2e6 instructions over 1 s.
  // The process died and the pid was reused: the new process's cumulative
  // counters restart near zero — far below the previous snapshot.
  tick(3, 50'000);  // Regressed: must re-prime, not wrap to ~1.8e19/s.
  tick(4, 250'000);  // First window of the reincarnated pid.

  // The pid row's instruction rate of every batch that carries one.
  std::vector<double> pid_rates;
  for (const auto& batch : batches.items) {
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

  actors.shutdown();
}

// --- PowerMeter::run_for tick coalescing ---

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
  // Kernel quantum (10 ms) far above the monitor period (3 ms): each chunk
  // advance overshoots to the next quantum and several ticks fall due at
  // once. The ticker's catch-up must publish every one of them, stamped
  // with the host's (coalesced) now.
  os::System::Options options;
  options.tick_ns = ms_to_ns(10);
  os::System system(simcpu::i3_2120(), std::move(options));

  PowerMeter::Config config;
  config.period = ms_to_ns(3);
  PowerMeter meter(system, tiny_model(), config);

  auto collector = std::make_unique<Collector<MonitorTick>>();
  Collector<MonitorTick>& ticks = *collector;
  meter.bus().subscribe(meter.pipeline().tick_topic(),
                        meter.actor_system().spawn("tick-probe", std::move(collector)));

  meter.run_for(ms_to_ns(30));

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
}

TEST(PowerMeter, RunForAtExactPeriodMultiplesFiresOneTickPerChunk) {
  os::System system(simcpu::i3_2120());
  PowerMeter::Config config;
  config.period = ms_to_ns(250);
  PowerMeter meter(system, tiny_model(), config);

  auto collector = std::make_unique<Collector<MonitorTick>>();
  Collector<MonitorTick>& ticks = *collector;
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

// --- One message shape per stage ---

/// Records every payload on its topics: the sensor kind of each
/// SensorBatch, the formula of each EstimateBatch, and how many payloads
/// were neither.
class ShapeSniffer final : public actors::Actor {
 public:
  void receive(actors::Envelope& envelope) override {
    if (const auto* sensor = envelope.payload.get<SensorBatch>()) {
      sensors.insert(sensor->sensor);
    } else if (const auto* estimate = envelope.payload.get<EstimateBatch>()) {
      formulas.insert(estimate->formula);
    } else {
      ++other;
    }
  }
  std::set<SensorKind> sensors;
  std::set<std::string> formulas;
  std::size_t other = 0;
};

/// A machine-scope baseline: 25 W plus 10 W at full utilization.
class LinearLoadEstimator final : public baselines::MachinePowerEstimator {
 public:
  std::string name() const override { return "linear-load"; }
  double estimate(const baselines::Observation& obs) const override {
    return 25.0 + estimate_task(obs);
  }
  double estimate_task(const baselines::Observation& obs) const override {
    return 10.0 * obs.utilization;
  }
};

TEST(Pipeline, EveryStageCarriesOneMessageShape) {
  os::System::Options host_options;
  host_options.with_peripherals = true;
  os::System system(simcpu::i3_2120(), std::move(host_options));
  system.spawn("app", std::make_unique<workloads::SteadyBehavior>(
                          workloads::cpu_stress(0.6), 0));
  system.spawn("backup", std::make_unique<workloads::SteadyBehavior>(
                             workloads::io_stress(20, 10, 0.6), 0));

  PowerMeter::Config config;
  config.period = ms_to_ns(25);
  config.with_powerspy = true;
  config.with_rapl = true;
  config.with_io = true;
  config.with_calibration = true;
  config.calibration.min_samples_per_fit = 8;
  config.calibration.drift_window = 4;
  config.calibration.min_refit_interval = ms_to_ns(200);
  config.estimators.push_back(std::make_shared<LinearLoadEstimator>());
  PowerMeter meter(system, tiny_model(), config);
  meter.monitor_all();

  auto sensor_owned = std::make_unique<ShapeSniffer>();
  ShapeSniffer& sensor_stage = *sensor_owned;
  const auto sensor_sniffer =
      meter.actor_system().spawn("sensor-sniffer", std::move(sensor_owned));
  for (const char* topic :
       {"sensor:hpc", "sensor:powerspy", "sensor:rapl", "sensor:io"}) {
    meter.bus().subscribe(topic, sensor_sniffer);
  }
  auto estimate_owned = std::make_unique<ShapeSniffer>();
  ShapeSniffer& estimate_stage = *estimate_owned;
  meter.bus().subscribe("power:estimate",
                        meter.actor_system().spawn("estimate-sniffer",
                                                   std::move(estimate_owned)));

  meter.run_for(ms_to_ns(500));
  meter.finish();

  EXPECT_EQ(meter.actor_system().failures(), 0u);
  EXPECT_EQ(sensor_stage.other, 0u)
      << "a sensor published something other than a SensorBatch";
  EXPECT_TRUE(sensor_stage.formulas.empty());
  EXPECT_EQ(sensor_stage.sensors,
            (std::set<SensorKind>{SensorKind::kHpc, SensorKind::kPowerSpy,
                                  SensorKind::kRapl, SensorKind::kIo}));
  EXPECT_EQ(estimate_stage.other, 0u)
      << "a formula published something other than an EstimateBatch";
  EXPECT_TRUE(estimate_stage.sensors.empty());
  EXPECT_EQ(estimate_stage.formulas,
            (std::set<std::string>{"powerapi-hpc", "powerspy", "rapl", "io-datasheet",
                                   "linear-load"}));
}

}  // namespace
}  // namespace powerapi::api
