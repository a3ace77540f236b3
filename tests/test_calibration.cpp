// Online calibration: the learn→deploy loop inside a running pipeline.
//
// A deliberately distorted model drifts against the PowerSpy ground truth;
// the CalibrationActor must detect it, refit from paired samples and swap
// the registry — after which the "powerapi-hpc" estimates carry a newer
// model version and sit measurably closer to the meter. kManual runs are
// bit-deterministic; the threaded fleet variant is the TSan target.
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
#include "powerapi/power_meter.h"
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
    if (const T* value = envelope.payload.get<T>()) items.push_back(*value);
  }
  std::vector<T> items;
};

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
  std::vector<EstimateBatch> estimates;  ///< Raw "power:estimate" traffic.
};

CalibratedRun run_calibrated(double distortion, util::DurationNs duration,
                             PowerMeter::Config config = calibrating_config()) {
  auto host = busy_host();
  PowerMeter meter(*host, scaled_model(distortion), std::move(config));

  CalibratedRun run;
  meter.pipeline().add_model_update_callback(
      [&run](const ModelUpdated& update) { run.swaps.push_back(update); });
  auto collector = std::make_unique<Collector<EstimateBatch>>();
  Collector<EstimateBatch>& estimates = *collector;
  meter.bus().subscribe("power:estimate",
                        meter.actor_system().spawn("collector", std::move(collector)));

  meter.run_for(duration);
  meter.finish();
  run.estimates = estimates.items;
  return run;
}

TEST(Calibration, DriftTriggersSwapAndReducesError) {
  const auto run = run_calibrated(/*distortion=*/4.0, seconds_to_ns(10));
  ASSERT_FALSE(run.swaps.empty()) << "distorted model never triggered a refit";
  EXPECT_GE(run.swaps.front().version, 2u);
  EXPECT_GT(run.swaps.front().pre_swap_error_watts, 1.0);
  EXPECT_GE(run.swaps.front().samples_used, 12u);
  EXPECT_GE(run.swaps.front().bins_refit, 1u);

  // Pair the regression estimates with the meter per timestamp and compare
  // the error of version-1 (pre-swap) rows against post-swap rows.
  std::map<util::TimestampNs, double> truth;
  for (const auto& e : run.estimates) {
    if (e.formula == "powerspy") truth[e.timestamp] = e.watts.at(0);
  }
  double pre_error = 0.0, post_error = 0.0;
  std::size_t pre_n = 0, post_n = 0;
  for (const auto& e : run.estimates) {
    if (e.formula != "powerapi-hpc") continue;
    const std::size_t machine = e.features->find_machine_row();
    if (machine == e.features->rows()) continue;
    const auto it = truth.find(e.timestamp);
    if (it == truth.end()) continue;
    const double error = std::abs(e.watts.at(machine) - it->second);
    if (e.model_version <= 1) {
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

TEST(Calibration, EstimatesCarryTheModelVersionThatProducedThem) {
  const auto run = run_calibrated(/*distortion=*/4.0, seconds_to_ns(10));
  ASSERT_FALSE(run.swaps.empty());
  const util::TimestampNs swap_at = run.swaps.front().timestamp;
  for (const auto& e : run.estimates) {
    if (e.formula != "powerapi-hpc") continue;
    // The swap tick itself is ambiguous (estimate and swap race within one
    // drain); every other tick must be on the right side of the boundary.
    if (e.timestamp < swap_at) {
      EXPECT_EQ(e.model_version, 1u) << "t=" << e.timestamp;
    } else if (e.timestamp > swap_at) {
      EXPECT_GE(e.model_version, 2u) << "t=" << e.timestamp;
    }
  }
  // Meter pass-through estimates never claim a model version.
  for (const auto& e : run.estimates) {
    if (e.formula == "powerspy") EXPECT_EQ(e.model_version, 0u);
  }
}

TEST(Calibration, WarmupGateHoldsBackUnderdeterminedFits) {
  auto config = calibrating_config();
  config.calibration.min_samples_per_fit = 100000;  // Never enough samples.
  const auto run = run_calibrated(/*distortion=*/4.0, seconds_to_ns(5), config);
  EXPECT_TRUE(run.swaps.empty());
  for (const auto& e : run.estimates) {
    if (e.formula == "powerapi-hpc") EXPECT_EQ(e.model_version, 1u);
  }
}

TEST(Calibration, DriftThresholdGatesRefits) {
  // With the tolerance set above any plausible error, even a grossly
  // distorted model is left alone: drift detection, not sample count, is
  // what pulls the trigger.
  auto config = calibrating_config();
  config.calibration.drift_threshold_watts = 1e6;
  const auto run = run_calibrated(/*distortion=*/4.0, seconds_to_ns(5), config);
  EXPECT_TRUE(run.swaps.empty());
  for (const auto& e : run.estimates) {
    if (e.formula == "powerapi-hpc") EXPECT_EQ(e.model_version, 1u);
  }
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
  ASSERT_EQ(first.estimates.size(), second.estimates.size());
  for (std::size_t i = 0; i < first.estimates.size(); ++i) {
    EXPECT_EQ(first.estimates[i].timestamp, second.estimates[i].timestamp);
    EXPECT_EQ(first.estimates[i].model_version, second.estimates[i].model_version);
    EXPECT_EQ(first.estimates[i].watts, second.estimates[i].watts);
  }
}

TEST(Calibration, ThreadedFleetCalibratesEveryHostIndependently) {
  // The TSan target: registry swaps race against formula reads across a
  // work-stealing dispatcher. Each host owns a private registry (spec.model
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

  EXPECT_EQ(fleet.actor_system().failures(), 0u);
  for (std::size_t i = 0; i < kHosts; ++i) {
    ASSERT_NE(fleet.pipeline(i).registry(), nullptr);
    EXPECT_GE(fleet.pipeline(i).registry()->version(), 2u)
        << "host " << i << " never calibrated";
  }
}

/// Keeps every "powerapi-hpc" batch one host's formula published.
class HpcBatchCollector final : public actors::Actor {
 public:
  void receive(actors::Envelope& envelope) override {
    const auto* batch = envelope.payload.get<EstimateBatch>();
    if (batch != nullptr && batch->formula == "powerapi-hpc") batches.push_back(*batch);
  }
  std::vector<EstimateBatch> batches;
};

/// A fleet of kHosts busy hosts whose formulas all read one registry, with
/// one batch collector per host (fleet-level, so they drain on the caller).
struct SharedRegistryFleet {
  static constexpr std::size_t kHosts = 4;

  SharedRegistryFleet(actors::ActorSystem::Mode mode,
                      std::shared_ptr<model::ModelRegistry> shared)
      : registry(std::move(shared)) {
    FleetMonitor::Options options;
    options.mode = mode;
    options.workers = 3;
    fleet = std::make_unique<FleetMonitor>(options);
    for (std::size_t i = 0; i < kHosts; ++i) {
      hosts.push_back(busy_host());
      PipelineSpec spec;
      spec.period = ms_to_ns(10);
      spec.registry = registry;
      fleet->add_host(*hosts.back(), spec);
      auto owned = std::make_unique<HpcBatchCollector>();
      collectors.push_back(owned.get());
      fleet->bus().subscribe("h" + std::to_string(i) + "/power:estimate",
                             fleet->actor_system().spawn("collector", std::move(owned)));
    }
  }

  std::shared_ptr<model::ModelRegistry> registry;
  std::vector<std::unique_ptr<os::System>> hosts;
  std::unique_ptr<FleetMonitor> fleet;
  std::vector<HpcBatchCollector*> collectors;
};

TEST(Calibration, SharedRegistrySwapReachesEveryHostsNextBatch) {
  // One registry behind a threaded fleet's formulas: a publish between two
  // run_for calls must show up in every host's very next batch, with the
  // new version and exactly kManual's watts.
  const auto run = [](actors::ActorSystem::Mode mode) {
    auto fleet = std::make_unique<SharedRegistryFleet>(
        mode, std::make_shared<model::ModelRegistry>(scaled_model(1.0)));
    fleet->fleet->run_for(seconds_to_ns(1));
    std::vector<std::size_t> before;
    for (const HpcBatchCollector* c : fleet->collectors) before.push_back(c->batches.size());
    EXPECT_EQ(fleet->registry->publish(scaled_model(2.0)), 2u);
    fleet->fleet->run_for(seconds_to_ns(1));
    fleet->fleet->finish();
    return std::make_pair(std::move(fleet), before);
  };
  const auto [threaded, split] = run(actors::ActorSystem::Mode::kThreaded);
  const auto [manual, manual_split] = run(actors::ActorSystem::Mode::kManual);
  EXPECT_EQ(split, manual_split);

  for (std::size_t h = 0; h < SharedRegistryFleet::kHosts; ++h) {
    const auto& got = threaded->collectors[h]->batches;
    const auto& want = manual->collectors[h]->batches;
    ASSERT_GT(split[h], 0u);
    ASSERT_GT(got.size(), split[h]) << "host " << h << " ran nothing after the publish";
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t b = 0; b < got.size(); ++b) {
      EXPECT_EQ(got[b].model_version, b < split[h] ? 1u : 2u) << "host " << h << " batch " << b;
      EXPECT_EQ(got[b].model_version, want[b].model_version);
      EXPECT_EQ(got[b].timestamp, want[b].timestamp);
      ASSERT_EQ(got[b].watts.size(), want[b].watts.size());
      for (std::size_t r = 0; r < got[b].watts.size(); ++r) {
        // Bit for bit, not approximately.
        EXPECT_EQ(got[b].watts[r], want[b].watts[r]) << "host " << h << " batch " << b;
      }
    }
    // The publish actually changed the estimate.
    EXPECT_NE(got[split[h]].watts.front(), got[split[h] - 1].watts.front());
  }
}

TEST(Calibration, ConcurrentPublisherNeverShowsAHostAnOlderModel) {
  // The TSan target for the read side: a publisher thread swaps models while
  // the slices read them. Per host, versions never go back, and every batch
  // carries exactly the watts its stamped version's model gives.
  std::vector<model::CpuPowerModel> models;  // models[v - 1] is version v.
  for (int k = 0; k < 64; ++k) models.push_back(scaled_model(1.0 + 0.05 * k));
  SharedRegistryFleet shared(actors::ActorSystem::Mode::kThreaded,
                             std::make_shared<model::ModelRegistry>(models.front()));
  std::atomic<bool> published_all{false};
  std::jthread publisher([&] {
    for (std::size_t v = 2; v <= models.size(); ++v) {
      EXPECT_EQ(shared.registry->publish(models[v - 1]), v);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    published_all = true;
  });
  // Keep the fleet running until the publisher is done, then once more so
  // every host reads the last version.
  while (!published_all) shared.fleet->run_for(ms_to_ns(100));
  shared.fleet->run_for(ms_to_ns(100));
  shared.fleet->finish();

  std::size_t checked = 0;
  for (std::size_t h = 0; h < SharedRegistryFleet::kHosts; ++h) {
    std::uint64_t last = 1;
    for (const EstimateBatch& batch : shared.collectors[h]->batches) {
      ASSERT_GE(batch.model_version, last) << "host " << h << " went back";
      ASSERT_LE(batch.model_version, models.size());
      last = batch.model_version;
      const model::CpuPowerModel& model = models[batch.model_version - 1];
      std::vector<double> expected(batch.features->rows(), 0.0);
      model.estimate_activity_rows(*batch.features, expected);
      for (std::size_t r = 0; r < expected.size(); ++r) {
        if (batch.features->pid(r) < 0) expected[r] = model.idle_watts() + expected[r];
        ASSERT_EQ(batch.watts[r], expected[r]) << "host " << h << " version " << last;
        ++checked;
      }
    }
    EXPECT_EQ(last, models.size()) << "host " << h << " never read the last publish";
  }
  EXPECT_GT(checked, 0u);
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
  EXPECT_EQ(meter.actor_system().failures(), 0u);
  ASSERT_FALSE(swaps.empty()) << "cold start never learned a model";
  ASSERT_NE(meter.pipeline().registry(), nullptr);
  EXPECT_GE(meter.pipeline().registry()->version(), 2u);
}

}  // namespace
}  // namespace powerapi::api
