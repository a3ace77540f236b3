// Online calibration: the learn→deploy loop inside a running pipeline.
//
// A deliberately distorted model drifts against the PowerSpy ground truth;
// the Calibrator must detect it, refit from paired samples and swap the
// registry — after which the "powerapi-hpc" rows sit measurably closer to
// the meter, and a RegressionFormula stamps the newer model version. kManual
// runs are bit-deterministic; the threaded fleet and concurrent-publisher
// variants are the TSan targets.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "os/system.h"
#include "powerapi/calibration.h"
#include "powerapi/fleet_monitor.h"
#include "powerapi/formulas.h"
#include "powerapi/power_meter.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

namespace powerapi::api {
namespace {

using util::ms_to_ns;
using util::seconds_to_ns;

/// A model whose structure matches the machine but whose coefficients are
/// scaled by `distortion` — the "shipped profile gone stale" scenario.
model::CpuPowerModel scaled_model(double distortion) {
  std::vector<model::FrequencyFormula> formulas;
  for (const double hz : simcpu::i3_2120().frequencies_hz) {
    model::FrequencyFormula f;
    f.frequency_hz = hz;
    f.events.assign(hpc::paper_events().begin(), hpc::paper_events().end());
    f.coefficients = std::vector<double>(f.events.size(), 0.0);
    const double scale = distortion * hz / 3.3e9;
    f.coefficients[0] = 2.2e-9 * scale;
    f.coefficients[1] = 2.5e-8 * scale;
    f.coefficients[2] = 1.9e-7 * scale;
    formulas.push_back(std::move(f));
  }
  return model::CpuPowerModel(31.48, std::move(formulas));
}

std::unique_ptr<os::System> busy_host() {
  auto host = std::make_unique<os::System>(simcpu::i3_2120());
  host->spawn("app", std::make_unique<workloads::SteadyBehavior>(
                         workloads::mixed_stress(0.7, 8.0 * 1024 * 1024, 0.9), 0));
  host->spawn("mem", std::make_unique<workloads::SteadyBehavior>(
                         workloads::memory_stress(6e6), 0));
  host->run_for(ms_to_ns(10));
  return host;
}

PowerMeter::Config calibrating_config() {
  PowerMeter::Config config;
  config.period = ms_to_ns(100);
  config.with_powerspy = true;
  config.with_calibration = true;
  config.calibration.min_samples_per_fit = 12;
  config.calibration.drift_window = 8;
  config.calibration.drift_threshold_watts = 1.0;
  config.calibration.min_refit_interval = seconds_to_ns(1);
  return config;
}

struct CalibratedRun {
  std::vector<ModelUpdated> swaps;
  std::vector<AggregatedPower> rows;  ///< Every aggregated row, in report order.
  std::uint64_t final_version = 0;    ///< The registry's version after the run.
};

CalibratedRun run_calibrated(double distortion, util::DurationNs duration,
                             PowerMeter::Config config = calibrating_config()) {
  auto host = busy_host();
  PowerMeter meter(*host, scaled_model(distortion), std::move(config));

  CalibratedRun run;
  meter.pipeline().add_model_update_callback(
      [&run](const ModelUpdated& update) { run.swaps.push_back(update); });
  const MemoryReporter& memory = meter.add_memory_reporter();

  meter.run_for(duration);
  meter.finish();
  run.rows = memory.all();
  run.final_version = meter.pipeline().registry()->version();
  return run;
}

TEST(Calibration, DriftTriggersSwapAndReducesError) {
  const auto run = run_calibrated(/*distortion=*/4.0, seconds_to_ns(10));
  ASSERT_FALSE(run.swaps.empty()) << "distorted model never triggered a refit";
  EXPECT_GE(run.swaps.front().version, 2u);
  EXPECT_GT(run.swaps.front().pre_swap_error_watts, 1.0);
  EXPECT_GE(run.swaps.front().samples_used, 12u);
  EXPECT_GE(run.swaps.front().bins_refit, 1u);
  EXPECT_EQ(run.final_version, run.swaps.back().version);

  // Pair the machine rows of the regression formula with the meter per
  // timestamp and compare the error before and after the first swap. The
  // calibrator observes a tick after its regression estimate, so the swap
  // tick's own row still comes from version 1.
  std::map<util::TimestampNs, double> truth;
  for (const auto& row : run.rows) {
    if (row.formula == "powerspy") truth[row.timestamp] = row.watts;
  }
  const util::TimestampNs swap_at = run.swaps.front().timestamp;
  double pre_error = 0.0, post_error = 0.0;
  std::size_t pre_n = 0, post_n = 0;
  for (const auto& row : run.rows) {
    if (row.formula != "powerapi-hpc") continue;
    const auto it = truth.find(row.timestamp);
    if (it == truth.end()) continue;
    const double error = std::abs(row.watts - it->second);
    if (row.timestamp <= swap_at) {
      pre_error += error;
      ++pre_n;
    } else {
      post_error += error;
      ++post_n;
    }
  }
  ASSERT_GT(pre_n, 0u);
  ASSERT_GT(post_n, 0u);
  EXPECT_LT(post_error / static_cast<double>(post_n),
            pre_error / static_cast<double>(pre_n));
}

TEST(Calibration, SwapWithoutCallbackCountsNoDeadLetter) {
  // Swaps reach update callbacks by direct call: with none registered, a
  // swap must not count a bus dead letter (nor warn about one).
  auto host = busy_host();
  PowerMeter meter(*host, scaled_model(4.0), calibrating_config());
  const MemoryReporter& memory = meter.add_memory_reporter();
  meter.run_for(seconds_to_ns(10));
  meter.finish();
  EXPECT_GE(meter.pipeline().registry()->version(), 2u) << "no swap landed";
  EXPECT_FALSE(memory.series("powerapi-hpc").empty());
  EXPECT_EQ(meter.bus().dead_letter_count(), 0u);
}

/// A 1-row machine-scope HPC batch at 3.3 GHz with the paper's three
/// counters' rates set.
SensorBatch machine_hpc_batch() {
  auto matrix = std::make_shared<model::FeatureMatrix>();
  matrix->frequency_hz = 3.3e9;
  matrix->resize(1);
  matrix->pids()[0] = kMachinePid;
  double rate = 1e9;
  for (const hpc::EventId event : hpc::paper_events()) {
    matrix->rate_lane(event)[0] = rate;
    rate /= 20.0;
  }
  SensorBatch batch;
  batch.timestamp = seconds_to_ns(1);
  batch.features = std::move(matrix);
  return batch;
}

/// The watts `model` gives every row of `features` (idle + activity on
/// machine rows, activity only on process rows).
std::vector<double> expected_watts(const model::CpuPowerModel& model,
                                   const model::FeatureMatrix& features) {
  std::vector<double> watts(features.rows(), 0.0);
  model.estimate_activity_rows(features, watts);
  for (std::size_t r = 0; r < watts.size(); ++r) {
    if (features.pid(r) < 0) watts[r] = model.idle_watts() + watts[r];
  }
  return watts;
}

TEST(Calibration, EstimatesCarryTheModelVersionThatProducedThem) {
  // One RegressionFormula on each side of a registry publish: the first
  // estimate carries version 1 and its watts, the next version 2 and its.
  const auto registry = std::make_shared<model::ModelRegistry>(scaled_model(1.0));
  RegressionFormula formula(registry);
  const SensorBatch batch = machine_hpc_batch();

  const EstimateBatch before = estimate(formula, batch);
  EXPECT_EQ(before.model_version, 1u);
  EXPECT_EQ(before.watts, expected_watts(scaled_model(1.0), *batch.features));

  ASSERT_EQ(registry->publish(scaled_model(2.0)), 2u);
  const EstimateBatch after = estimate(formula, batch);
  EXPECT_EQ(after.model_version, 2u);
  EXPECT_EQ(after.watts, expected_watts(scaled_model(2.0), *batch.features));
  EXPECT_NE(after.watts, before.watts);

  // Meter pass-through estimates never claim a model version.
  EXPECT_EQ(estimate(MeterFormula("powerspy"), batch).model_version, 0u);
}

TEST(Calibration, WarmupGateHoldsBackUnderdeterminedFits) {
  auto config = calibrating_config();
  config.calibration.min_samples_per_fit = 100000;  // Never enough samples.
  const auto run = run_calibrated(/*distortion=*/4.0, seconds_to_ns(5), config);
  EXPECT_TRUE(run.swaps.empty());
  EXPECT_EQ(run.final_version, 1u);
}

TEST(Calibration, DriftThresholdGatesRefits) {
  // With the tolerance set above any plausible error, even a grossly
  // distorted model is left alone: drift detection, not sample count, is
  // what pulls the trigger.
  auto config = calibrating_config();
  config.calibration.drift_threshold_watts = 1e6;
  const auto run = run_calibrated(/*distortion=*/4.0, seconds_to_ns(5), config);
  EXPECT_TRUE(run.swaps.empty());
  EXPECT_EQ(run.final_version, 1u);
}

TEST(Calibration, ManualModeIsDeterministicAcrossRuns) {
  const auto first = run_calibrated(/*distortion=*/4.0, seconds_to_ns(8));
  const auto second = run_calibrated(/*distortion=*/4.0, seconds_to_ns(8));
  ASSERT_EQ(first.swaps.size(), second.swaps.size());
  for (std::size_t i = 0; i < first.swaps.size(); ++i) {
    EXPECT_EQ(first.swaps[i].timestamp, second.swaps[i].timestamp);
    EXPECT_EQ(first.swaps[i].version, second.swaps[i].version);
    EXPECT_DOUBLE_EQ(first.swaps[i].pre_swap_error_watts,
                     second.swaps[i].pre_swap_error_watts);
  }
  ASSERT_EQ(first.rows.size(), second.rows.size());
  for (std::size_t i = 0; i < first.rows.size(); ++i) {
    EXPECT_EQ(first.rows[i].timestamp, second.rows[i].timestamp);
    EXPECT_EQ(first.rows[i].formula, second.rows[i].formula);
    EXPECT_EQ(first.rows[i].watts, second.rows[i].watts);
  }
}

TEST(Calibration, ThreadedFleetCalibratesEveryHostIndependently) {
  // The TSan target: registry swaps race against formula reads across
  // parallel host slices. Each host owns a private registry (spec.model
  // is wrapped per pipeline), so versions advance per host.
  constexpr std::size_t kHosts = 4;
  std::vector<std::unique_ptr<os::System>> hosts;
  for (std::size_t i = 0; i < kHosts; ++i) hosts.push_back(busy_host());

  FleetMonitor::Options options;
  options.mode = actors::ActorSystem::Mode::kThreaded;
  options.workers = 4;
  FleetMonitor fleet(options);
  for (auto& host : hosts) {
    PipelineSpec spec = calibrating_config();
    spec.model = scaled_model(4.0);
    fleet.add_host(*host, spec);
  }
  fleet.run_for(seconds_to_ns(8));
  fleet.finish();

  for (std::size_t i = 0; i < kHosts; ++i) {
    ASSERT_NE(fleet.pipeline(i).registry(), nullptr);
    EXPECT_GE(fleet.pipeline(i).registry()->version(), 2u)
        << "host " << i << " never calibrated";
  }
}

/// A fleet of kHosts busy hosts whose formulas all read one registry. Each
/// host reports per-pid rows, so every regression batch's machine row is
/// reported on the tick that estimated it; `watts[h]` keeps host h's.
struct SharedRegistryFleet {
  static constexpr std::size_t kHosts = 4;

  SharedRegistryFleet(actors::ActorSystem::Mode mode,
                      std::shared_ptr<model::ModelRegistry> shared)
      : registry(std::move(shared)), watts(kHosts) {
    FleetMonitor::Options options;
    options.mode = mode;
    options.workers = 3;
    fleet = std::make_unique<FleetMonitor>(options);
    for (std::size_t i = 0; i < kHosts; ++i) {
      hosts.push_back(busy_host());
      PipelineSpec spec;
      spec.period = ms_to_ns(10);
      spec.registry = registry;
      spec.dimension = AggregationDimension::kPid;
      const std::size_t index = fleet->add_host(*hosts.back(), spec);
      fleet->add_callback_reporter(index, [out = &watts[i]](const AggregatedPower& row) {
        if (row.formula == "powerapi-hpc") out->push_back(row.watts);
      });
    }
  }

  std::shared_ptr<model::ModelRegistry> registry;
  std::vector<std::vector<double>> watts;
  std::vector<std::unique_ptr<os::System>> hosts;
  std::unique_ptr<FleetMonitor> fleet;
};

TEST(Calibration, SharedRegistrySwapReachesEveryHostsNextBatch) {
  // One registry behind a threaded fleet's formulas: a publish between two
  // run_for calls must show up in every host's very next batch, with
  // exactly kManual's watts. A kManual fleet that never publishes marks
  // which batches the publish changed.
  const auto run = [](actors::ActorSystem::Mode mode, bool publish) {
    auto fleet = std::make_unique<SharedRegistryFleet>(
        mode, std::make_shared<model::ModelRegistry>(scaled_model(1.0)));
    fleet->fleet->run_for(seconds_to_ns(1));
    std::vector<std::size_t> before;
    for (const auto& host : fleet->watts) before.push_back(host.size());
    if (publish) {
      EXPECT_EQ(fleet->registry->publish(scaled_model(2.0)), 2u);
    }
    fleet->fleet->run_for(seconds_to_ns(1));
    fleet->fleet->finish();
    return std::make_pair(std::move(fleet), before);
  };
  const auto [threaded, split] = run(actors::ActorSystem::Mode::kThreaded, true);
  const auto [manual, manual_split] = run(actors::ActorSystem::Mode::kManual, true);
  const auto [unswapped, unswapped_split] = run(actors::ActorSystem::Mode::kManual, false);
  EXPECT_EQ(split, manual_split);
  EXPECT_EQ(split, unswapped_split);

  for (std::size_t h = 0; h < SharedRegistryFleet::kHosts; ++h) {
    const auto& got = threaded->watts[h];
    const auto& want = manual->watts[h];
    const auto& old = unswapped->watts[h];
    ASSERT_GT(split[h], 0u);
    ASSERT_GT(got.size(), split[h]) << "host " << h << " ran nothing after the publish";
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(got.size(), old.size());
    for (std::size_t b = 0; b < got.size(); ++b) {
      // Bit for bit, not approximately.
      EXPECT_EQ(got[b], want[b]) << "host " << h << " batch " << b;
      if (b < split[h]) {
        EXPECT_EQ(got[b], old[b]) << "host " << h << " batch " << b;
      }
    }
    // The very next batch after the publish read the new model.
    EXPECT_NE(got[split[h]], old[split[h]]) << "host " << h;
  }
}

TEST(Calibration, ConcurrentPublisherNeverShowsAFormulaAnOlderModel) {
  // The TSan target for the read side: a publisher thread swaps models while
  // reader threads — each owning a RegressionFormula over the shared
  // registry, as each host slice does — estimate. Per reader, versions
  // never go back, and every estimate carries exactly the watts its stamped
  // version's model gives.
  std::vector<model::CpuPowerModel> models;  // models[v - 1] is version v.
  for (int k = 0; k < 64; ++k) models.push_back(scaled_model(1.0 + 0.05 * k));
  const auto registry = std::make_shared<model::ModelRegistry>(models.front());
  const SensorBatch batch = machine_hpc_batch();

  constexpr std::size_t kReaders = 3;
  struct Seen {
    std::uint64_t version = 0;
    double watts = 0.0;
  };
  std::vector<std::vector<Seen>> seen(kReaders);
  std::atomic<bool> published_all{false};
  {
    std::vector<std::jthread> readers;
    for (std::size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        RegressionFormula formula(registry);
        const auto read = [&] {
          const EstimateBatch e = estimate(formula, batch);
          seen[r].push_back({e.model_version, e.watts.at(0)});
        };
        while (!published_all.load()) {
          read();
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        read();  // Every reader reads the last publish once.
      });
    }
    for (std::size_t v = 2; v <= models.size(); ++v) {
      EXPECT_EQ(registry->publish(models[v - 1]), v);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    published_all = true;
  }

  for (std::size_t r = 0; r < kReaders; ++r) {
    std::uint64_t last = 1;
    ASSERT_FALSE(seen[r].empty());
    for (const Seen& s : seen[r]) {
      ASSERT_GE(s.version, last) << "reader " << r << " went back";
      ASSERT_LE(s.version, models.size());
      last = s.version;
      ASSERT_EQ(s.watts, expected_watts(models[s.version - 1], *batch.features).front())
          << "reader " << r << " version " << s.version;
    }
    EXPECT_EQ(last, models.size()) << "reader " << r << " never read the last publish";
  }
}

TEST(Calibration, RequiresAGroundTruthMeter) {
  auto host = busy_host();
  PowerMeter::Config config = calibrating_config();
  config.with_powerspy = false;
  config.with_rapl = false;
  EXPECT_THROW(PowerMeter(*host, scaled_model(1.0), config), std::invalid_argument);
}

TEST(Calibration, CallbackRequiresCalibrationEnabled) {
  auto host = busy_host();
  PowerMeter meter(*host, scaled_model(1.0));  // Default config: no calibration.
  EXPECT_THROW(meter.pipeline().add_model_update_callback([](const ModelUpdated&) {}),
               std::logic_error);
}

TEST(Calibration, ColdStartLearnsFromNothing) {
  // No shipped model at all: the pipeline bootstraps an empty registry and
  // estimates the idle floor (0 W) until calibration fills in formulas.
  auto host = busy_host();
  PowerMeter::Config config = calibrating_config();
  config.calibration.drift_threshold_watts = 0.5;
  PowerMeter meter(*host, model::CpuPowerModel(), std::move(config));
  std::vector<ModelUpdated> swaps;
  meter.pipeline().add_model_update_callback(
      [&swaps](const ModelUpdated& update) { swaps.push_back(update); });
  meter.run_for(seconds_to_ns(6));
  meter.finish();
  ASSERT_FALSE(swaps.empty()) << "cold start never learned a model";
  ASSERT_NE(meter.pipeline().registry(), nullptr);
  EXPECT_GE(meter.pipeline().registry()->version(), 2u);
}

}  // namespace
}  // namespace powerapi::api
