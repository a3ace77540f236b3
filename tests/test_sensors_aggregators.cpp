// Unit tests for the pipeline stages in isolation, called directly: sensors
// sampled on hand-crafted MonitorTicks, formulas fed synthetic
// SensorBatches, and the aggregator's watermark/flush semantics —
// complementing the end-to-end PowerMeter tests with stage-level checks.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "baselines/estimator.h"
#include "hpc/sim_backend.h"
#include "os/system.h"
#include "powerapi/aggregators.h"
#include "powerapi/formulas.h"
#include "powerapi/sensors.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

namespace powerapi::api {
namespace {

using util::ms_to_ns;
using util::seconds_to_ns;

/// The pid of every row of a batch.
std::vector<std::int64_t> row_pids(const SensorBatch& batch) {
  std::vector<std::int64_t> pids;
  for (std::size_t i = 0; i < batch.features->rows(); ++i) {
    pids.push_back(batch.features->pid(i));
  }
  return pids;
}

// --- HpcSensor ---

TEST(HpcSensor, FirstTickPrimesSecondTickReports) {
  os::System system(simcpu::i3_2120());
  system.spawn("app", std::make_unique<workloads::SteadyBehavior>(
                          workloads::cpu_stress(), 0));
  hpc::SimBackend backend(system);
  HpcSensor sensor(backend, [] { return std::vector<std::int64_t>{}; }, &system);

  system.run_for(ms_to_ns(10));
  EXPECT_FALSE(sensor.sample(MonitorTick{system.now_ns()}));  // Priming tick.

  system.run_for(ms_to_ns(10));
  const std::optional<SensorBatch> batch = sensor.sample(MonitorTick{system.now_ns()});
  ASSERT_TRUE(batch);
  EXPECT_EQ(batch->sensor, SensorKind::kHpc);
  const model::FeatureMatrix& m = *batch->features;
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
  hpc::SimBackend backend(system);
  std::vector<std::int64_t> targets = {pid};
  HpcSensor sensor(backend, [&targets] { return targets; }, &system);

  std::vector<SensorBatch> batches;
  for (int i = 0; i < 3; ++i) {
    system.run_for(ms_to_ns(10));
    if (auto batch = sensor.sample(MonitorTick{system.now_ns()})) {
      batches.push_back(std::move(*batch));
    }
  }
  // 2 reporting ticks x (machine + pid), machine row first.
  ASSERT_EQ(batches.size(), 2u);
  for (const SensorBatch& batch : batches) {
    EXPECT_EQ(row_pids(batch), (std::vector<std::int64_t>{kMachinePid, pid}));
  }

  // Kill the process and drop it from the target list (as monitor_all's
  // dynamic provider does): the sensor keeps sampling the machine scope.
  system.kill(pid);
  targets.clear();
  system.run_for(ms_to_ns(10));
  const std::optional<SensorBatch> after = sensor.sample(MonitorTick{system.now_ns()});
  ASSERT_TRUE(after);
  EXPECT_EQ(row_pids(*after), (std::vector<std::int64_t>{kMachinePid}));
}

TEST(HpcSensor, IgnoresStaleTimestamps) {
  os::System system(simcpu::i3_2120());
  hpc::SimBackend backend(system);
  HpcSensor sensor(backend, [] { return std::vector<std::int64_t>{}; }, &system);

  system.run_for(ms_to_ns(5));
  EXPECT_FALSE(sensor.sample(MonitorTick{system.now_ns()}));  // Prime.
  EXPECT_FALSE(sensor.sample(MonitorTick{system.now_ns()}));  // Same timestamp: no window.
}

// --- RegressionFormula ---

TEST(RegressionFormula, MachineRowsGetIdleProcessRowsDoNot) {
  model::FrequencyFormula f;
  f.frequency_hz = 3.3e9;
  f.events = {hpc::EventId::kInstructions};
  f.coefficients = {2e-9};
  model::CpuPowerModel model(30.0, {f});
  RegressionFormula formula(std::make_shared<model::ModelRegistry>(std::move(model)));

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

  const EstimateBatch e = formula.estimate(hpc);
  EXPECT_EQ(e.formula, "powerapi-hpc");
  EXPECT_EQ(e.timestamp, 100);
  EXPECT_EQ(e.model_version, 1u);
  EXPECT_EQ(e.features, hpc.features);
  ASSERT_EQ(e.watts.size(), 2u);
  EXPECT_NEAR(e.watts[0], 30.0 + 2.0, 1e-9);  // Idle + activity.
  EXPECT_NEAR(e.watts[1], 2.0, 1e-9);         // Activity only.

  // An IO batch estimates nothing.
  SensorBatch io = hpc;
  io.sensor = SensorKind::kIo;
  const EstimateBatch ignored = formula.estimate(io);
  EXPECT_EQ(ignored.features, nullptr);
  EXPECT_TRUE(ignored.watts.empty());
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
  EstimatorFormula formula(std::make_shared<InstructionEstimator>());

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

  const EstimateBatch e = formula.estimate(hpc);
  EXPECT_EQ(e.formula, "per-instruction");
  EXPECT_EQ(e.timestamp, 100);
  ASSERT_NE(e.features, nullptr);
  ASSERT_EQ(e.features->rows(), 1u);
  EXPECT_EQ(e.features->pid(0), kMachinePid);
  EXPECT_EQ(e.features->rate_lane(hpc::EventId::kInstructions)[0], 5e9);
  EXPECT_DOUBLE_EQ(e.features->frequency_hz, 3.3e9);
  ASSERT_EQ(e.watts.size(), 1u);
  EXPECT_DOUBLE_EQ(e.watts[0], 5.0);

  // A batch without a machine row estimates nothing.
  auto process_only = std::make_shared<model::FeatureMatrix>();
  process_only->resize(1);
  process_only->pids()[0] = 42;
  SensorBatch no_machine = hpc;
  no_machine.features = process_only;
  const EstimateBatch ignored = formula.estimate(no_machine);
  EXPECT_EQ(ignored.features, nullptr);
  EXPECT_TRUE(ignored.watts.empty());
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
  Aggregator agg(AggregationDimension::kTimestamp);
  std::vector<AggregatedPower> rows;

  agg.absorb(estimate_of(100, 1, 3.0), rows);
  agg.absorb(estimate_of(100, 2, 4.0), rows);
  EXPECT_TRUE(rows.empty());  // Group still open.

  agg.absorb(estimate_of(200, 1, 5.0), rows);  // Watermark advances: t=100 emits.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].timestamp, 100);
  EXPECT_NEAR(rows[0].watts, 7.0, 1e-12);  // Sum of per-pid rows.
}

TEST(AggregatorUnit, MachineRowWinsOverPerPidSum) {
  Aggregator agg(AggregationDimension::kTimestamp);
  std::vector<AggregatedPower> rows;
  agg.absorb(estimate_of(100, 1, 3.0), rows);
  agg.absorb(estimate_of(100, kMachinePid, 40.0), rows);  // Includes idle.
  agg.absorb(estimate_of(200, 1, 1.0), rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NEAR(rows[0].watts, 40.0, 1e-12);
}

TEST(AggregatorUnit, FormulasAggregateIndependently) {
  Aggregator agg(AggregationDimension::kTimestamp);
  std::vector<AggregatedPower> rows;
  agg.absorb(estimate_of(100, 1, 3.0, "a"), rows);
  agg.absorb(estimate_of(100, 1, 9.0, "b"), rows);
  agg.absorb(estimate_of(200, 1, 1.0, "a"), rows);  // Only formula a's watermark moves.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].formula, "a");
  EXPECT_NEAR(rows[0].watts, 3.0, 1e-12);
}

TEST(AggregatorUnit, FlushEmitsPendingGroupsOnce) {
  Aggregator agg(AggregationDimension::kTimestamp);
  std::vector<AggregatedPower> rows;
  agg.absorb(estimate_of(100, 1, 3.0, "a"), rows);
  agg.absorb(estimate_of(100, 1, 9.0, "b"), rows);
  EXPECT_TRUE(rows.empty());
  agg.flush(rows);
  EXPECT_EQ(rows.size(), 2u);
  agg.flush(rows);  // Nothing left pending.
  EXPECT_EQ(rows.size(), 2u);
}

TEST(AggregatorUnit, GroupModeRoutesByResolver) {
  Aggregator agg(AggregationDimension::kGroup,
                 [](std::int64_t pid) { return pid < 10 ? "small" : "large"; });
  std::vector<AggregatedPower> rows;

  agg.absorb(estimate_of(100, 1, 1.0), rows);
  agg.absorb(estimate_of(100, 2, 2.0), rows);
  agg.absorb(estimate_of(100, 20, 7.0), rows);
  agg.absorb(estimate_of(100, kMachinePid, 50.0), rows);
  agg.absorb(estimate_of(200, 1, 1.0), rows);  // Advance watermark.

  ASSERT_EQ(rows.size(), 3u);  // small, large, (machine).
  double small = 0;
  double large = 0;
  double machine = 0;
  for (const auto& row : rows) {
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
