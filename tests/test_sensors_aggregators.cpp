// Unit tests for the pipeline actors in isolation: sensors driven by
// hand-crafted MonitorTicks, formulas fed synthetic SensorBatches, and the
// aggregator's watermark/flush semantics — complementing the end-to-end
// PowerMeter tests with message-level checks.
#include <gtest/gtest.h>

#include <any>
#include <memory>

#include "actors/actor_system.h"
#include "actors/event_bus.h"
#include "baselines/estimator.h"
#include "hpc/sim_backend.h"
#include "os/system.h"
#include "powerapi/aggregators.h"
#include "powerapi/formulas.h"
#include "powerapi/reporters.h"
#include "powerapi/sensors.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

namespace powerapi::api {
namespace {

using util::ms_to_ns;
using util::seconds_to_ns;

/// Collects raw payloads of one type from a topic.
template <typename T>
class Collector final : public actors::Actor {
 public:
  void receive(actors::Envelope& envelope) override {
    if (const T* value = envelope.payload.get<T>()) {
      items.push_back(*value);
    }
  }
  std::vector<T> items;
};

/// The pid of every row of every batch, in publish order.
std::vector<std::int64_t> row_pids(const std::vector<SensorBatch>& batches) {
  std::vector<std::int64_t> pids;
  for (const auto& batch : batches) {
    for (std::size_t i = 0; i < batch.features->rows(); ++i) {
      pids.push_back(batch.features->pid(i));
    }
  }
  return pids;
}

struct PipelineHarness {
  PipelineHarness() : actors(actors::ActorSystem::Mode::kManual), bus(actors) {}

  /// Stop actors while the bus is still alive: post_stop hooks (e.g. the
  /// aggregator's flush) may publish.
  ~PipelineHarness() { actors.shutdown(); }

  template <typename T>
  Collector<T>& collect(const std::string& topic) {
    auto owned = std::make_unique<Collector<T>>();
    Collector<T>& ref = *owned;
    bus.subscribe(topic, actors.spawn("collector", std::move(owned)));
    return ref;
  }

  actors::ActorSystem actors;
  actors::EventBus bus;
};

// --- HpcSensor ---

TEST(HpcSensor, FirstTickPrimesSecondTickReports) {
  os::System system(simcpu::i3_2120());
  system.spawn("app", std::make_unique<workloads::SteadyBehavior>(
                          workloads::cpu_stress(), 0));
  PipelineHarness h;
  hpc::SimBackend backend(system);
  auto& batches = h.collect<SensorBatch>("sensor:hpc");
  const auto sensor = h.actors.spawn_as<HpcSensor>(
      "sensor", h.bus, h.bus.intern("sensor:hpc"), backend,
      [] { return std::vector<std::int64_t>{}; }, &system);

  system.run_for(ms_to_ns(10));
  sensor.tell(MonitorTick{system.now_ns()});
  h.actors.drain();
  EXPECT_TRUE(batches.items.empty());  // Priming tick: no window yet.

  system.run_for(ms_to_ns(10));
  sensor.tell(MonitorTick{system.now_ns()});
  h.actors.drain();
  ASSERT_EQ(batches.items.size(), 1u);
  EXPECT_EQ(batches.items[0].sensor, SensorKind::kHpc);
  const model::FeatureMatrix& m = *batches.items[0].features;
  ASSERT_EQ(m.rows(), 1u);  // Machine scope only.
  EXPECT_EQ(m.pid(0), kMachinePid);
  EXPECT_NEAR(m.window_seconds(0), 0.010, 1e-9);
  EXPECT_GT(m.rate_lane(hpc::EventId::kInstructions)[0], 0.0);
  EXPECT_GT(m.lane(model::FeatureMatrix::kUtilizationLane)[0], 0.0);
  EXPECT_DOUBLE_EQ(m.frequency_hz, 3.3e9);
  // The meter and IO lanes stay zero on an HPC row.
  EXPECT_EQ(m.lane(model::FeatureMatrix::kMeasuredWattsLane)[0], 0.0);
  EXPECT_EQ(m.lane(model::FeatureMatrix::kDiskIopsLane)[0], 0.0);
}

TEST(HpcSensor, ReportsEachMonitoredPidAndForgetsDeadOnes) {
  os::System system(simcpu::i3_2120());
  const os::Pid pid = system.spawn(
      "app", std::make_unique<workloads::SteadyBehavior>(workloads::cpu_stress(), 0));
  PipelineHarness h;
  hpc::SimBackend backend(system);
  auto& batches = h.collect<SensorBatch>("sensor:hpc");
  std::vector<std::int64_t> targets = {pid};
  const auto sensor = h.actors.spawn_as<HpcSensor>(
      "sensor", h.bus, h.bus.intern("sensor:hpc"), backend,
      [&targets] { return targets; }, &system);

  for (int i = 0; i < 3; ++i) {
    system.run_for(ms_to_ns(10));
    sensor.tell(MonitorTick{system.now_ns()});
    h.actors.drain();
  }
  // 2 reporting ticks x (machine + pid), machine row first.
  ASSERT_EQ(batches.items.size(), 2u);
  EXPECT_EQ(row_pids(batches.items),
            (std::vector<std::int64_t>{kMachinePid, pid, kMachinePid, pid}));

  // Kill the process and drop it from the target list (as monitor_all's
  // dynamic provider does): the sensor must keep going without failing.
  system.kill(pid);
  targets.clear();
  batches.items.clear();
  system.run_for(ms_to_ns(10));
  sensor.tell(MonitorTick{system.now_ns()});
  h.actors.drain();
  EXPECT_EQ(row_pids(batches.items), (std::vector<std::int64_t>{kMachinePid}));
  EXPECT_EQ(h.actors.failures(), 0u);
}

TEST(HpcSensor, IgnoresNonTickPayloadsAndStaleTimestamps) {
  os::System system(simcpu::i3_2120());
  PipelineHarness h;
  hpc::SimBackend backend(system);
  auto& batches = h.collect<SensorBatch>("sensor:hpc");
  const auto sensor = h.actors.spawn_as<HpcSensor>(
      "sensor", h.bus, h.bus.intern("sensor:hpc"), backend,
      [] { return std::vector<std::int64_t>{}; }, &system);

  sensor.tell(std::string("not a tick"));
  h.actors.drain();
  EXPECT_TRUE(batches.items.empty());

  system.run_for(ms_to_ns(5));
  sensor.tell(MonitorTick{system.now_ns()});  // Prime.
  sensor.tell(MonitorTick{system.now_ns()});  // Same timestamp: no window.
  h.actors.drain();
  EXPECT_TRUE(batches.items.empty());
  EXPECT_EQ(h.actors.failures(), 0u);
}

// --- RegressionFormula ---

TEST(RegressionFormula, MachineRowsGetIdleProcessRowsDoNot) {
  PipelineHarness h;
  model::FrequencyFormula f;
  f.frequency_hz = 3.3e9;
  f.events = {hpc::EventId::kInstructions};
  f.coefficients = {2e-9};
  model::CpuPowerModel model(30.0, {f});
  const auto registry = std::make_shared<model::ModelRegistry>(std::move(model));
  const auto formula = h.actors.spawn_as<RegressionFormula>(
      "formula", h.bus, h.bus.intern("power:estimate"), registry);
  auto& estimates = h.collect<EstimateBatch>("power:estimate");

  // Two rows: the machine scope, then process 42, with the same rates.
  auto matrix = std::make_shared<model::FeatureMatrix>();
  matrix->frequency_hz = 3.3e9;
  matrix->resize(2);
  matrix->pids()[0] = kMachinePid;
  matrix->pids()[1] = 42;
  for (std::size_t i = 0; i < 2; ++i) {
    matrix->rate_lane(hpc::EventId::kInstructions)[i] = 1e9;
  }
  SensorBatch hpc;
  hpc.timestamp = 100;
  hpc.sensor = SensorKind::kHpc;
  hpc.features = matrix;
  formula.tell(hpc);

  // An IO batch must be ignored.
  SensorBatch io = hpc;
  io.sensor = SensorKind::kIo;
  formula.tell(io);

  h.actors.drain();
  ASSERT_EQ(estimates.items.size(), 1u);
  const EstimateBatch& e = estimates.items[0];
  EXPECT_EQ(e.formula, "powerapi-hpc");
  EXPECT_EQ(e.timestamp, 100);
  EXPECT_EQ(e.model_version, 1u);
  EXPECT_EQ(e.features, hpc.features);
  ASSERT_EQ(e.watts.size(), 2u);
  EXPECT_NEAR(e.watts[0], 30.0 + 2.0, 1e-9);  // Idle + activity.
  EXPECT_NEAR(e.watts[1], 2.0, 1e-9);         // Activity only.
}

// --- EstimatorFormula ---

/// A baseline that charges 1 W per billion instructions per second.
class InstructionEstimator final : public baselines::MachinePowerEstimator {
 public:
  std::string name() const override { return "per-instruction"; }
  double estimate(const baselines::Observation& obs) const override {
    return 1e-9 * model::rate_of(obs.rates, hpc::EventId::kInstructions);
  }
  double estimate_task(const baselines::Observation& obs) const override {
    return estimate(obs);
  }
};

TEST(EstimatorFormula, EstimatesOnlyTheMachineRowOverItsOwnMatrix) {
  PipelineHarness h;
  const auto formula = h.actors.spawn_as<EstimatorFormula>(
      "formula", h.bus, h.bus.intern("power:estimate"),
      std::make_shared<InstructionEstimator>());
  auto& estimates = h.collect<EstimateBatch>("power:estimate");

  // A process row before the machine row: the formula must find the latter.
  auto matrix = std::make_shared<model::FeatureMatrix>();
  matrix->frequency_hz = 3.3e9;
  matrix->resize(2);
  matrix->pids()[0] = 42;
  matrix->pids()[1] = kMachinePid;
  matrix->rate_lane(hpc::EventId::kInstructions)[0] = 1e9;
  matrix->rate_lane(hpc::EventId::kInstructions)[1] = 5e9;
  SensorBatch hpc;
  hpc.timestamp = 100;
  hpc.sensor = SensorKind::kHpc;
  hpc.features = matrix;
  formula.tell(hpc);

  // A batch without a machine row estimates nothing.
  auto process_only = std::make_shared<model::FeatureMatrix>();
  process_only->resize(1);
  process_only->pids()[0] = 42;
  SensorBatch no_machine = hpc;
  no_machine.features = process_only;
  formula.tell(no_machine);

  h.actors.drain();
  ASSERT_EQ(estimates.items.size(), 1u);
  const EstimateBatch& e = estimates.items[0];
  EXPECT_EQ(e.formula, "per-instruction");
  EXPECT_EQ(e.timestamp, 100);
  ASSERT_EQ(e.features->rows(), 1u);
  EXPECT_EQ(e.features->pid(0), kMachinePid);
  EXPECT_EQ(e.features->rate_lane(hpc::EventId::kInstructions)[0], 5e9);
  EXPECT_DOUBLE_EQ(e.features->frequency_hz, 3.3e9);
  ASSERT_EQ(e.watts.size(), 1u);
  EXPECT_DOUBLE_EQ(e.watts[0], 5.0);
}

// --- Aggregator watermark semantics ---

/// A 1-row EstimateBatch: `formula` attributes `watts` to `pid` at `t`.
EstimateBatch estimate_of(util::TimestampNs t, std::int64_t pid, double watts,
                          const char* formula = "powerapi-hpc") {
  auto matrix = std::make_shared<model::FeatureMatrix>();
  matrix->resize(1);
  matrix->pids()[0] = pid;
  EstimateBatch e;
  e.timestamp = t;
  e.formula = formula;
  e.features = std::move(matrix);
  e.watts = {watts};
  return e;
}

TEST(AggregatorUnit, TimestampModeEmitsOnWatermarkAdvance) {
  PipelineHarness h;
  const auto agg = h.actors.spawn_as<Aggregator>(
      "agg", h.bus, h.bus.intern("power:aggregated"), AggregationDimension::kTimestamp);
  auto& rows = h.collect<AggregatedPower>("power:aggregated");

  agg.tell(estimate_of(100, 1, 3.0));
  agg.tell(estimate_of(100, 2, 4.0));
  h.actors.drain();
  EXPECT_TRUE(rows.items.empty());  // Group still open.

  agg.tell(estimate_of(200, 1, 5.0));  // Watermark advances: t=100 emits.
  h.actors.drain();
  ASSERT_EQ(rows.items.size(), 1u);
  EXPECT_EQ(rows.items[0].timestamp, 100);
  EXPECT_NEAR(rows.items[0].watts, 7.0, 1e-12);  // Sum of per-pid rows.
}

TEST(AggregatorUnit, MachineRowWinsOverPerPidSum) {
  PipelineHarness h;
  const auto agg = h.actors.spawn_as<Aggregator>(
      "agg", h.bus, h.bus.intern("power:aggregated"), AggregationDimension::kTimestamp);
  auto& rows = h.collect<AggregatedPower>("power:aggregated");
  agg.tell(estimate_of(100, 1, 3.0));
  agg.tell(estimate_of(100, kMachinePid, 40.0));  // Includes idle.
  agg.tell(estimate_of(200, 1, 1.0));
  h.actors.drain();
  ASSERT_EQ(rows.items.size(), 1u);
  EXPECT_NEAR(rows.items[0].watts, 40.0, 1e-12);
}

TEST(AggregatorUnit, FormulasAggregateIndependently) {
  PipelineHarness h;
  const auto agg = h.actors.spawn_as<Aggregator>(
      "agg", h.bus, h.bus.intern("power:aggregated"), AggregationDimension::kTimestamp);
  auto& rows = h.collect<AggregatedPower>("power:aggregated");
  agg.tell(estimate_of(100, 1, 3.0, "a"));
  agg.tell(estimate_of(100, 1, 9.0, "b"));
  agg.tell(estimate_of(200, 1, 1.0, "a"));  // Only formula a's watermark moves.
  h.actors.drain();
  ASSERT_EQ(rows.items.size(), 1u);
  EXPECT_EQ(rows.items[0].formula, "a");
  EXPECT_NEAR(rows.items[0].watts, 3.0, 1e-12);
}

TEST(AggregatorUnit, StopFlushesPendingGroups) {
  PipelineHarness h;
  const auto agg = h.actors.spawn_as<Aggregator>(
      "agg", h.bus, h.bus.intern("power:aggregated"), AggregationDimension::kTimestamp);
  auto& rows = h.collect<AggregatedPower>("power:aggregated");
  agg.tell(estimate_of(100, 1, 3.0, "a"));
  agg.tell(estimate_of(100, 1, 9.0, "b"));
  h.actors.drain();
  h.actors.stop(agg);  // post_stop flush.
  h.actors.drain();
  EXPECT_EQ(rows.items.size(), 2u);
}

TEST(AggregatorUnit, GroupModeRoutesByResolver) {
  PipelineHarness h;
  Aggregator::GroupResolver resolver = [](std::int64_t pid) {
    return pid < 10 ? "small" : "large";
  };
  const auto agg = h.actors.spawn_as<Aggregator>(
      "agg", h.bus, h.bus.intern("power:aggregated"), AggregationDimension::kGroup,
      resolver);
  auto& rows = h.collect<AggregatedPower>("power:aggregated");

  agg.tell(estimate_of(100, 1, 1.0));
  agg.tell(estimate_of(100, 2, 2.0));
  agg.tell(estimate_of(100, 20, 7.0));
  agg.tell(estimate_of(100, kMachinePid, 50.0));
  agg.tell(estimate_of(200, 1, 1.0));  // Advance watermark.
  h.actors.drain();

  ASSERT_EQ(rows.items.size(), 3u);  // small, large, (machine).
  double small = 0;
  double large = 0;
  double machine = 0;
  for (const auto& row : rows.items) {
    if (row.group == "small") small = row.watts;
    if (row.group == "large") large = row.watts;
    if (row.group == "(machine)") machine = row.watts;
  }
  EXPECT_NEAR(small, 3.0, 1e-12);
  EXPECT_NEAR(large, 7.0, 1e-12);
  EXPECT_NEAR(machine, 50.0, 1e-12);
}

}  // namespace
}  // namespace powerapi::api
