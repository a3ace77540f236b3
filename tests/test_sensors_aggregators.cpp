// Unit tests for the pipeline stages in isolation, called directly: sensors
// sampled on hand-crafted MonitorTicks, formulas fed synthetic
// SensorBatches, the aggregator's watermark/flush semantics and the fleet
// sum's bucket closing — complementing the end-to-end PowerMeter tests with
// stage-level checks.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baselines/estimator.h"
#include "os/system.h"
#include "powerapi/aggregators.h"
#include "powerapi/formulas.h"
#include "powerapi/sensors.h"
#include "util/rng.h"
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
  HpcSensor sensor(system);

  system.run_for(ms_to_ns(10));
  EXPECT_FALSE(sensor.sample(MonitorTick{system.now_ns()}));  // Priming tick.

  system.run_for(ms_to_ns(10));
  const std::optional<SensorBatch> batch = sensor.sample(MonitorTick{system.now_ns()});
  ASSERT_TRUE(batch);
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
  HpcSensor sensor(system);
  sensor.monitor({pid});

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
  // per-tick refill does): the sensor keeps sampling the machine scope.
  system.kill(pid);
  sensor.monitor({});
  system.run_for(ms_to_ns(10));
  const std::optional<SensorBatch> after = sensor.sample(MonitorTick{system.now_ns()});
  ASSERT_TRUE(after);
  EXPECT_EQ(row_pids(*after), (std::vector<std::int64_t>{kMachinePid}));
}

TEST(HpcSensor, IgnoresStaleTimestamps) {
  os::System system(simcpu::i3_2120());
  HpcSensor sensor(system);

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
  hpc.features = matrix;

  const EstimateBatch e = estimate(formula, hpc);
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
  hpc.features = matrix;

  const EstimateBatch e = estimate(formula, hpc);
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
  const EstimateBatch ignored = estimate(formula, no_machine);
  EXPECT_EQ(ignored.features, nullptr);
  EXPECT_TRUE(ignored.watts.empty());
}

// --- Aggregator watermark semantics ---

/// A 1-row EstimateBatch: `formula` attributes `watts` to `pid` at `t`.
/// The tests absorb it with formula index 0, or 1 for formula "b".
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

  agg.absorb(estimate_of(100, 1, 3.0), 0, rows);
  agg.absorb(estimate_of(100, 2, 4.0), 0, rows);
  EXPECT_TRUE(rows.empty());  // Group still open.

  agg.absorb(estimate_of(200, 1, 5.0), 0, rows);  // Watermark advances: t=100 emits.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].timestamp, 100);
  EXPECT_NEAR(rows[0].watts, 7.0, 1e-12);  // Sum of per-pid rows.
}

TEST(AggregatorUnit, MachineRowWinsOverPerPidSum) {
  Aggregator agg(AggregationDimension::kTimestamp);
  std::vector<AggregatedPower> rows;
  agg.absorb(estimate_of(100, 1, 3.0), 0, rows);
  agg.absorb(estimate_of(100, kMachinePid, 40.0), 0, rows);  // Includes idle.
  agg.absorb(estimate_of(200, 1, 1.0), 0, rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NEAR(rows[0].watts, 40.0, 1e-12);
}

TEST(AggregatorUnit, FormulasAggregateIndependently) {
  Aggregator agg(AggregationDimension::kTimestamp);
  std::vector<AggregatedPower> rows;
  agg.absorb(estimate_of(100, 1, 3.0, "a"), 0, rows);
  agg.absorb(estimate_of(100, 1, 9.0, "b"), 1, rows);
  agg.absorb(estimate_of(200, 1, 1.0, "a"), 0, rows);  // Only formula a's watermark moves.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].formula, "a");
  EXPECT_NEAR(rows[0].watts, 3.0, 1e-12);
}

TEST(AggregatorUnit, FlushEmitsPendingGroupsOnce) {
  Aggregator agg(AggregationDimension::kTimestamp);
  std::vector<AggregatedPower> rows;
  agg.absorb(estimate_of(100, 1, 3.0, "a"), 0, rows);
  agg.absorb(estimate_of(100, 1, 9.0, "b"), 1, rows);
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

  agg.absorb(estimate_of(100, 1, 1.0), 0, rows);
  agg.absorb(estimate_of(100, 2, 2.0), 0, rows);
  agg.absorb(estimate_of(100, 20, 7.0), 0, rows);
  agg.absorb(estimate_of(100, kMachinePid, 50.0), 0, rows);
  agg.absorb(estimate_of(200, 1, 1.0), 0, rows);  // Advance watermark.

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

// --- FleetSum bucket closing ---

/// A machine-scope row of `formula` at `t`.
AggregatedPower machine_row(const std::string& formula, util::TimestampNs t, double watts) {
  AggregatedPower row;
  row.timestamp = t;
  row.formula = formula;
  row.watts = watts;
  return row;
}

TEST(FleetSumUnit, CompletionClosesASkippedBucketFirst) {
  // Three hosts; host 1 skips (f, 100). When (f, 200) completes, the
  // partial (f, 100) row comes out first, holding hosts 0 and 2 in add
  // order, then the complete one.
  FleetSum sum;
  std::vector<AggregatedPower> out;
  sum.add(machine_row("f", 100, 1.25), 3, out);
  sum.add(machine_row("f", 100, 2.5), 3, out);
  sum.add(machine_row("f", 200, 3.0), 3, out);
  sum.add(machine_row("f", 200, 4.0), 3, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(sum.pending(), 2u);
  sum.add(machine_row("f", 200, 5.0), 3, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].timestamp, 100);
  EXPECT_EQ(out[0].watts, 1.25 + 2.5);
  EXPECT_EQ(out[0].group, "(fleet)");
  EXPECT_EQ(out[0].formula, "f");
  EXPECT_EQ(out[1].timestamp, 200);
  EXPECT_EQ(out[1].watts, 3.0 + 4.0 + 5.0);
  EXPECT_EQ(sum.pending(), 0u);
}

TEST(FleetSumUnit, CompletionLeavesOtherFormulasAndLaterBuckets) {
  FleetSum sum;
  std::vector<AggregatedPower> out;
  sum.add(machine_row("g", 100, 1.0), 2, out);  // g never completes here.
  sum.add(machine_row("f", 100, 1.0), 2, out);  // Partial: host 1 skips it.
  sum.add(machine_row("f", 300, 1.0), 2, out);  // Host 0 runs ahead.
  sum.add(machine_row("f", 200, 1.0), 2, out);
  sum.add(machine_row("f", 200, 1.0), 2, out);  // Completes (f, 200).
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].timestamp, 100);
  EXPECT_EQ(out[1].timestamp, 200);
  EXPECT_EQ(sum.pending(), 2u);  // (g, 100) and (f, 300).

  out.clear();
  sum.flush(out);
  ASSERT_EQ(out.size(), 2u);  // (formula, timestamp) order.
  EXPECT_EQ(out[0].formula, "f");
  EXPECT_EQ(out[0].timestamp, 300);
  EXPECT_EQ(out[1].formula, "g");
  EXPECT_EQ(sum.pending(), 0u);
}

TEST(FleetSumUnit, DroppedRowsNeverStrandBuckets) {
  // 32 hosts report two formulas per step; each row is dropped with
  // probability 1%. Every (formula, timestamp) any host reported comes out
  // exactly once, per formula in strictly increasing timestamp order, and
  // a formula keeps only the buckets of its current run of steps with a
  // drop.
  constexpr std::size_t kHosts = 32;
  constexpr std::int64_t kSteps = 10000;
  const std::array<std::string, 2> formulas = {"powerapi-hpc", "powerspy"};
  util::Rng rng(11);
  FleetSum sum;
  std::vector<AggregatedPower> out;
  std::set<std::pair<std::string, util::TimestampNs>> reported;
  std::map<std::string, std::vector<util::TimestampNs>> emitted;
  std::array<std::size_t, 2> open_buckets{};  // Per formula, expected.
  std::size_t drops = 0;
  for (std::int64_t t = 0; t < kSteps; ++t) {
    std::array<std::size_t, 2> dropped{};
    std::array<std::size_t, 2> added{};
    for (std::size_t h = 0; h < kHosts; ++h) {
      for (std::size_t f = 0; f < formulas.size(); ++f) {
        if (rng.bernoulli(0.01)) {
          ++dropped[f];
          continue;
        }
        ++added[f];
        reported.emplace(formulas[f], t);
        sum.add(machine_row(formulas[f], t, 10.0 + static_cast<double>(h)), kHosts, out);
      }
    }
    for (std::size_t f = 0; f < formulas.size(); ++f) {
      drops += dropped[f];
      open_buckets[f] = dropped[f] == 0 ? 0 : open_buckets[f] + (added[f] > 0 ? 1 : 0);
    }
    ASSERT_EQ(sum.pending(), open_buckets[0] + open_buckets[1]) << "after step " << t;
    for (const AggregatedPower& row : out) emitted[row.formula].push_back(row.timestamp);
    out.clear();
  }
  EXPECT_GT(drops, 5000u);  // About 1% of 640,000 rows.
  sum.flush(out);
  for (const AggregatedPower& row : out) emitted[row.formula].push_back(row.timestamp);

  std::size_t rows = 0;
  for (const auto& [formula, timestamps] : emitted) {
    for (std::size_t i = 1; i < timestamps.size(); ++i) {
      ASSERT_LT(timestamps[i - 1], timestamps[i]) << formula << " row " << i;
    }
    for (const util::TimestampNs t : timestamps) {
      EXPECT_EQ(reported.count({formula, t}), 1u) << formula << " at " << t;
    }
    rows += timestamps.size();
  }
  EXPECT_EQ(rows, reported.size());
}

}  // namespace
}  // namespace powerapi::api
