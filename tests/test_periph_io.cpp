// Tests for the IO counter path: the cumulative iostat-style IoTotals a
// host exposes, the IoSensor that differences them into rates, and the
// datasheet formula that turns those rates into a peripheral power share —
// the disk/network dimension of the paper's component splitting, stage
// level (complementing the peripheral POWER model tests in
// test_periph_turbo.cpp).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "os/system.h"
#include "powerapi/formulas.h"
#include "powerapi/sensors.h"
#include "scripted_host.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

namespace powerapi::api {
namespace {

using util::ms_to_ns;
using util::seconds_to_ns;

using testing::ScriptedHost;  // Scripted IO totals: exact rates.

// --- IoTotals accounting (os::System with peripherals) ---

TEST(IoTotals, ZeroWithoutPeripheralsAndMonotonicWithThem) {
  os::System plain(simcpu::i3_2120());
  plain.run_for(seconds_to_ns(1));
  EXPECT_DOUBLE_EQ(plain.io_totals().disk_ops, 0.0);
  EXPECT_DOUBLE_EQ(plain.io_totals().disk_bytes, 0.0);
  EXPECT_DOUBLE_EQ(plain.io_totals().net_bytes, 0.0);

  os::System::Options options;
  options.with_peripherals = true;
  os::System system(simcpu::i3_2120(), std::move(options));
  system.spawn("fileserver",
               std::make_unique<workloads::SteadyBehavior>(
                   workloads::io_stress(/*disk_mb=*/40, /*net_mb=*/30, 1.0), 0));
  os::IoTotals last{};
  for (int i = 0; i < 5; ++i) {
    system.run_for(ms_to_ns(200));
    const os::IoTotals& now = system.io_totals();
    EXPECT_GE(now.disk_ops, last.disk_ops);
    EXPECT_GE(now.disk_bytes, last.disk_bytes);
    EXPECT_GE(now.net_bytes, last.net_bytes);
    last = now;
  }
  EXPECT_GT(last.disk_bytes, 0.0);
  EXPECT_GT(last.net_bytes, 0.0);
}

TEST(IoTotals, AccountingIsDeterministic) {
  auto build = [] {
    os::System::Options options;
    options.with_peripherals = true;
    auto system = std::make_unique<os::System>(simcpu::i3_2120(), std::move(options));
    system->spawn("fileserver",
                  std::make_unique<workloads::SteadyBehavior>(
                      workloads::io_stress(20, 10, 0.8), 0));
    return system;
  };
  auto a = build();
  auto b = build();
  a->run_for(seconds_to_ns(2));
  b->run_for(seconds_to_ns(2));
  EXPECT_DOUBLE_EQ(a->io_totals().disk_ops, b->io_totals().disk_ops);
  EXPECT_DOUBLE_EQ(a->io_totals().disk_bytes, b->io_totals().disk_bytes);
  EXPECT_DOUBLE_EQ(a->io_totals().net_bytes, b->io_totals().net_bytes);
}

// --- IoSensor: totals → rates ---

/// The single row of a 1-row machine-scope IO batch, by lane.
double io_lane(const SensorBatch& batch, std::size_t lane) {
  return batch.features->lane(lane)[0];
}

TEST(IoSensor, DifferencesTotalsIntoExactRates) {
  ScriptedHost host;
  IoSensor sensor(host);

  host.io = {100.0, 1e6, 2e6};
  EXPECT_FALSE(sensor.sample(MonitorTick{seconds_to_ns(1)}));  // Priming tick.

  host.io = {150.0, 3e6, 6e6};  // +50 ops, +2 MB disk, +4 MB net.
  const std::optional<SensorBatch> batch =
      sensor.sample(MonitorTick{seconds_to_ns(3)});  // 2 s window.
  ASSERT_TRUE(batch);
  const SensorBatch& b = *batch;
  EXPECT_EQ(b.timestamp, seconds_to_ns(3));
  ASSERT_EQ(b.features->rows(), 1u);
  EXPECT_EQ(b.features->pid(0), kMachinePid);
  EXPECT_DOUBLE_EQ(b.features->window_seconds(0), 2.0);
  EXPECT_DOUBLE_EQ(io_lane(b, model::FeatureMatrix::kDiskIopsLane), 25.0);
  EXPECT_DOUBLE_EQ(io_lane(b, model::FeatureMatrix::kDiskBytesLane), 1e6);
  EXPECT_DOUBLE_EQ(io_lane(b, model::FeatureMatrix::kNetBytesLane), 2e6);
  // The other sensors' lanes stay zero on an IO row.
  EXPECT_EQ(io_lane(b, model::FeatureMatrix::kMeasuredWattsLane), 0.0);
  EXPECT_EQ(b.features->rate_lane(hpc::EventId::kInstructions)[0], 0.0);
}

TEST(IoSensor, CounterRegressionReprimesInsteadOfNegativeRates) {
  ScriptedHost host;
  IoSensor sensor(host);

  host.io = {100.0, 1e6, 1e6};
  EXPECT_FALSE(sensor.sample(MonitorTick{seconds_to_ns(1)}));
  host.io = {200.0, 2e6, 2e6};
  EXPECT_TRUE(sensor.sample(MonitorTick{seconds_to_ns(2)}));

  // The counter source resets (device re-probe / wraparound at the OS
  // boundary): totals regress. Differencing across the reset would yield a
  // negative rate — the sensor must skip the tick and re-prime instead.
  host.io = {10.0, 1e5, 1e5};
  EXPECT_FALSE(sensor.sample(MonitorTick{seconds_to_ns(3)}));  // No batch on the reset tick.

  // The next window differences against the POST-reset baseline.
  host.io = {20.0, 2e5, 3e5};
  const std::optional<SensorBatch> b = sensor.sample(MonitorTick{seconds_to_ns(4)});
  ASSERT_TRUE(b);
  EXPECT_DOUBLE_EQ(io_lane(*b, model::FeatureMatrix::kDiskIopsLane), 10.0);
  EXPECT_DOUBLE_EQ(io_lane(*b, model::FeatureMatrix::kDiskBytesLane), 1e5);
  EXPECT_DOUBLE_EQ(io_lane(*b, model::FeatureMatrix::kNetBytesLane), 2e5);
}

TEST(IoSensor, SilentWhenHostHasNoDisk) {
  os::System system(simcpu::i3_2120());  // No peripherals.
  IoSensor sensor(system);
  for (int i = 1; i <= 3; ++i) {
    EXPECT_FALSE(sensor.sample(MonitorTick{seconds_to_ns(i)}));
  }
}

// --- The rates' contribution to the datasheet power estimate ---

/// A 1-row machine-scope IO batch with the given rates.
SensorBatch io_batch(double iops, double disk_bytes_per_sec, double net_bytes_per_sec) {
  auto matrix = std::make_shared<model::FeatureMatrix>();
  matrix->resize(1);
  matrix->pids()[0] = kMachinePid;
  matrix->lane(model::FeatureMatrix::kWindowLane)[0] = 1.0;
  matrix->lane(model::FeatureMatrix::kDiskIopsLane)[0] = iops;
  matrix->lane(model::FeatureMatrix::kDiskBytesLane)[0] = disk_bytes_per_sec;
  matrix->lane(model::FeatureMatrix::kNetBytesLane)[0] = net_bytes_per_sec;
  SensorBatch batch;
  batch.timestamp = seconds_to_ns(2);
  batch.features = std::move(matrix);
  return batch;
}

TEST(IoFormula, ChargesDatasheetEnergiesForReportedRates) {
  const periph::DiskParams disk;
  const periph::NicParams nic;
  IoFormula formula(disk, nic);

  const SensorBatch batch = io_batch(50.0, 10e6, 4e6);
  const EstimateBatch e = estimate(formula, batch);
  EXPECT_EQ(e.formula, "io-datasheet");
  EXPECT_EQ(e.timestamp, seconds_to_ns(2));
  EXPECT_EQ(e.model_version, 0u);
  // The input's matrix passes through: the estimate's row is its row.
  EXPECT_EQ(e.features, batch.features);
  ASSERT_EQ(e.watts.size(), 1u);
  EXPECT_EQ(e.features->pid(0), kMachinePid);
  const double expected = disk.idle_spinning_watts + nic.link_active_watts +
                          50.0 * disk.joules_per_op +
                          10.0 * disk.joules_per_megabyte +
                          4.0 * (nic.joules_per_megabyte_tx +
                                 nic.joules_per_megabyte_rx) / 2.0;
  EXPECT_DOUBLE_EQ(e.watts[0], expected);
}

TEST(IoFormula, BatchWithoutMatrixEstimatesNothing) {
  IoFormula formula(periph::DiskParams{}, periph::NicParams{});
  // A batch with no matrix (no window completed): no rows.
  SensorBatch batch = io_batch(50.0, 10e6, 4e6);
  batch.features.reset();
  const EstimateBatch e = estimate(formula, batch);
  EXPECT_EQ(e.features, nullptr);
  EXPECT_TRUE(e.watts.empty());
}

}  // namespace
}  // namespace powerapi::api
