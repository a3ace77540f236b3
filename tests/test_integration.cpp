// Cross-module integration scenarios: train → serialize → monitor
// equivalence, turbo-bin learning, peripherals vs CPU-only estimation,
// baseline formulas through the actor pipeline, and whole-stack determinism.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "baselines/cpuload_model.h"
#include "model/model_io.h"
#include "model/trainer.h"
#include "os/system.h"
#include "powerapi/power_meter.h"
#include "util/stats.h"
#include "workloads/behaviors.h"
#include "workloads/specjbb.h"
#include "workloads/stress.h"

namespace powerapi {
namespace {

using util::ms_to_ns;
using util::seconds_to_ns;

model::TrainerOptions quick_options() {
  model::TrainerOptions options;
  options.grid.intensities = {1.0};
  options.grid.memory_shares = {0.0, 1.0};
  options.grid.working_sets = {24.0 * 1024 * 1024};
  options.grid.thread_counts = {1, 4};
  options.idle_duration = seconds_to_ns(2);
  options.point_duration = seconds_to_ns(1);
  return options;
}

simcpu::CpuSpec small_i3() {
  simcpu::CpuSpec spec = simcpu::i3_2120();
  spec.frequencies_hz = {1.6e9, 3.3e9};
  return spec;
}

TEST(Integration, TrainerLearnsTurboBinFormulas) {
  // Reduced i7: two pinnable points plus two turbo bins. Single-thread grid
  // cells at the nominal max run turbo'd, so the collector must populate
  // turbo buckets — "including the TurboBoost ones when available".
  simcpu::CpuSpec spec = simcpu::i7_2600();
  spec.frequencies_hz = {1.6e9, 3.4e9};
  spec.turbo_frequencies_hz = {3.5e9, 3.8e9};
  spec.validate();

  model::Trainer trainer(spec, simcpu::GroundTruthParams{}, quick_options());
  const model::SampleSet samples = trainer.collect();

  // At least one turbo bucket must have survived thinning.
  bool has_turbo_bucket = false;
  for (const double hz : samples.frequencies_hz) {
    if (hz > 3.45e9) has_turbo_bucket = true;
  }
  ASSERT_TRUE(has_turbo_bucket);

  const model::TrainingResult result = trainer.fit(samples);
  const auto* turbo_formula = result.model.formula_for(3.8e9);
  ASSERT_NE(turbo_formula, nullptr);
  EXPECT_GT(turbo_formula->frequency_hz, 3.45e9);
  // Turbo instruction energy exceeds the nominal-max one (V²f above 1).
  const auto* nominal = result.model.formula_for(3.4e9);
  EXPECT_GT(turbo_formula->coefficients[0], nominal->coefficients[0]);
}

/// model_to_string() of the quick_options() model trained on the full
/// i3-2120 ladder.
constexpr std::string_view kPinnedI3Model = R"(powerapi-model v2
idle 28.709843040000003
frequency 1600000000
r2 0.96524638868382961
instructions 7.1391937543779388e-10
cache-references 2.0544509353708818e-07
cache-misses 0
frequency 1800000000
r2 0.9679308214802026
instructions 7.4587414449878158e-10
cache-references 2.1249339275146504e-07
cache-misses 0
frequency 2000000000
r2 0.95952894236723618
instructions 8.6285679172835246e-10
cache-references 2.1567316762471041e-07
cache-misses 0
frequency 2200000000
r2 0.95475148387844111
instructions 9.4535827911551099e-10
cache-references 2.2034737532489044e-07
cache-misses 0
frequency 2400000000.0000005
r2 0.94858758899662066
instructions 1.0535462290961851e-09
cache-references 2.2410971223469142e-07
cache-misses 0
frequency 2600000000.0000005
r2 0.9403098874771203
instructions 1.1841541387281063e-09
cache-references 2.2862204375325895e-07
cache-misses 0
frequency 2800000000.0000005
r2 0.93151803733381711
instructions 1.3041789106966096e-09
cache-references 2.3342226881861076e-07
cache-misses 0
frequency 3000000000.000001
r2 0.9192594393556841
instructions 1.4605682598139625e-09
cache-references 2.38301100956895e-07
cache-misses 0
frequency 3200000000.000001
r2 0.90842558792835126
instructions 1.6037510249043588e-09
cache-references 2.4447078465337454e-07
cache-misses 0
frequency 3300000000
r2 0.89872752192596916
instructions 1.7137213727264912e-09
cache-references 2.4721334581633437e-07
cache-misses 0
# crc32c 7e96c015
)";

TEST(Integration, TrainedModelBytesArePinned) {
  // The whole i3-2120 ladder: the idle floor plus ten sampled frequencies.
  // The saved bytes (coefficients, r2 and the crc32c footer) must not
  // depend on how collect() schedules those jobs.
  model::Trainer trainer(simcpu::i3_2120(), simcpu::GroundTruthParams{}, quick_options());
  const std::string text = model::model_to_string(trainer.train().model);
  EXPECT_EQ(text, kPinnedI3Model);
}

TEST(Integration, TrainerRethrowsAFailedJobsException) {
  // No idle window: the idle-floor job throws while the ladder jobs run
  // on the other threads; collect() rethrows it once they are done.
  model::TrainerOptions options = quick_options();
  options.idle_duration = 0;
  model::Trainer trainer(simcpu::i3_2120(), simcpu::GroundTruthParams{}, options);
  EXPECT_THROW(
      {
        try {
          trainer.collect();
        } catch (const std::runtime_error& error) {
          EXPECT_NE(std::string(error.what()).find("no idle samples"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(Integration, SavedModelMonitorsIdenticallyToFreshOne) {
  const auto spec = small_i3();
  model::Trainer trainer(spec, simcpu::GroundTruthParams{}, quick_options());
  const model::CpuPowerModel fresh = trainer.train().model;

  // Round-trip through the text format.
  const auto restored = model::model_from_string(model::model_to_string(fresh));
  ASSERT_TRUE(restored.ok()) << restored.error_message();

  auto monitor_with = [&spec](const model::CpuPowerModel& m) {
    os::System system(spec);
    system.spawn("app", std::make_unique<workloads::SteadyBehavior>(
                            workloads::mixed_stress(0.6, 16e6), 0));
    api::PowerMeter meter(system, m);
    auto& memory = meter.add_memory_reporter();
    meter.run_for(seconds_to_ns(3));
    meter.finish();
    return api::MemoryReporter::watts_of(memory.series("powerapi-hpc"));
  };
  const auto a = monitor_with(fresh);
  const auto b = monitor_with(restored.value());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Integration, EndToEndEstimationErrorIsBounded) {
  const auto spec = small_i3();
  model::Trainer trainer(spec, simcpu::GroundTruthParams{}, quick_options());
  const model::CpuPowerModel m = trainer.train().model;

  os::System system(spec);
  util::Rng rng(8);
  system.spawn("kdaemon", workloads::make_background_daemon(rng.fork(1)));
  workloads::SpecJbbOptions jbb;
  jbb.warmup = seconds_to_ns(2);
  jbb.staircase_step = seconds_to_ns(2);
  jbb.search_phase = seconds_to_ns(6);
  jbb.cooldown = seconds_to_ns(2);
  system.spawn("specjbb", workloads::make_specjbb(jbb, rng.fork(2)));

  api::PowerMeter meter(system, m);
  auto& memory = meter.add_memory_reporter();
  meter.run_for(workloads::specjbb_duration(jbb));
  meter.finish();

  const auto est = api::MemoryReporter::watts_of(memory.series("powerapi-hpc"));
  const auto ref = api::MemoryReporter::watts_of(memory.series("powerspy"));
  const std::size_t n = std::min(est.size(), ref.size());
  ASSERT_GT(n, 20u);
  const double err = util::median_ape(std::span(ref).subspan(0, n),
                                      std::span(est).subspan(0, n));
  // Double-digit but bounded: the Figure-3 regime.
  EXPECT_LT(err, 30.0);
}

TEST(Integration, PeripheralsWidenTheWallGapCpuModelsCannotSee) {
  const auto spec = small_i3();
  model::Trainer trainer(spec, simcpu::GroundTruthParams{}, quick_options());
  const model::CpuPowerModel m = trainer.train().model;

  auto run = [&spec, &m](bool with_io) {
    os::System::Options options;
    options.with_peripherals = true;
    os::System system(spec, std::move(options));
    // Identical CPU behaviour in both runs; only the IO demand differs, so
    // the gap difference isolates peripheral power.
    const auto profile = with_io ? workloads::io_stress(150, 100, 1.0)
                                 : workloads::io_stress(0, 0, 1.0);
    system.spawn("app", std::make_unique<workloads::SteadyBehavior>(profile, 0));
    api::PowerMeter meter(system, m);
    auto& memory = meter.add_memory_reporter();
    meter.run_for(seconds_to_ns(4));
    meter.finish();
    const auto est = api::MemoryReporter::watts_of(memory.series("powerapi-hpc"));
    const auto ref = api::MemoryReporter::watts_of(memory.series("powerspy"));
    const std::size_t n = std::min(est.size(), ref.size());
    return util::mean(std::span(ref).subspan(0, n)) -
           util::mean(std::span(est).subspan(0, n));
  };
  const double gap_io = run(true);
  const double gap_cpu = run(false);
  // The CPU-trained model cannot attribute disk/NIC activity: the measured-
  // minus-estimated gap must grow by the IO activity watts (~1.5-2 W at
  // these rates).
  EXPECT_GT(gap_io, gap_cpu + 1.0);
}

TEST(Integration, IoFormulaTracksPeripheralPower) {
  const auto spec = small_i3();
  os::System::Options options;
  options.with_peripherals = true;
  os::System system(spec, std::move(options));
  system.spawn("fileserver", std::make_unique<workloads::SteadyBehavior>(
                                 workloads::io_stress(80, 50, 1.0), 0));

  api::PowerMeter::Config config;
  config.with_io = true;
  api::PowerMeter meter(system, model::CpuPowerModel{}, config);
  auto& memory = meter.add_memory_reporter();
  meter.run_for(seconds_to_ns(3));
  meter.finish();

  const auto io_series = memory.series("io-datasheet");
  ASSERT_GT(io_series.size(), 5u);
  // Component split: the IO formula's estimate must track the true
  // peripheral power within ~15% (datasheet model vs exact state machine).
  const double estimated = util::mean(api::MemoryReporter::watts_of(io_series));
  const double actual = system.disk()->last_power_watts() + system.nic()->last_power_watts();
  EXPECT_NEAR(estimated, actual, actual * 0.15);
  EXPECT_GT(estimated, system.disk()->params().idle_spinning_watts);
}

TEST(Integration, IoSensorSilentWithoutPeripherals) {
  const auto spec = small_i3();
  os::System system(spec);
  api::PowerMeter::Config config;
  config.with_io = true;  // Requested, but the system has no peripherals.
  api::PowerMeter meter(system, model::CpuPowerModel{}, config);
  auto& memory = meter.add_memory_reporter();
  meter.run_for(seconds_to_ns(1));
  meter.finish();
  EXPECT_TRUE(memory.series("io-datasheet").empty());
}

TEST(Integration, BaselineFormulaFlowsThroughThePipeline) {
  const auto spec = small_i3();
  model::Trainer trainer(spec, simcpu::GroundTruthParams{}, quick_options());
  const model::TrainingResult trained = trainer.train();
  const auto cpuload = std::make_shared<baselines::CpuLoadModel>(
      baselines::CpuLoadModel::train(trained.samples));

  os::System system(spec);
  system.spawn("app", std::make_unique<workloads::SteadyBehavior>(
                          workloads::cpu_stress(0.8), 0));
  api::PowerMeter meter(system, trained.model);
  meter.add_estimator(cpuload);
  auto& memory = meter.add_memory_reporter();
  meter.run_for(seconds_to_ns(3));
  meter.finish();

  const auto series = memory.series("cpu-load");
  ASSERT_GT(series.size(), 5u);
  for (const auto& row : series) {
    EXPECT_GT(row.watts, 20.0);
    EXPECT_LT(row.watts, 80.0);
  }
}

TEST(Integration, GovernorDrivenFrequencySelectsMatchingFormulas) {
  const auto spec = small_i3();
  model::Trainer trainer(spec, simcpu::GroundTruthParams{}, quick_options());
  const model::CpuPowerModel m = trainer.train().model;

  os::System::Options options;
  options.use_ondemand_governor = true;
  os::System system(spec, std::move(options));
  util::Rng rng(12);
  // Load that swings the governor between min and max.
  system.spawn("bursty", std::make_unique<workloads::BurstyBehavior>(
                             workloads::cpu_stress(), seconds_to_ns(1),
                             seconds_to_ns(1), 0, rng.fork(1)));
  system.spawn("bursty2", std::make_unique<workloads::BurstyBehavior>(
                              workloads::cpu_stress(), seconds_to_ns(1),
                              seconds_to_ns(1), 0, rng.fork(2)));

  api::PowerMeter meter(system, m);
  auto& memory = meter.add_memory_reporter();
  meter.run_for(seconds_to_ns(10));
  meter.finish();

  const auto est = api::MemoryReporter::watts_of(memory.series("powerapi-hpc"));
  const auto ref = api::MemoryReporter::watts_of(memory.series("powerspy"));
  const std::size_t n = std::min(est.size(), ref.size());
  ASSERT_GT(n, 20u);
  EXPECT_LT(util::mape(std::span(ref).subspan(0, n), std::span(est).subspan(0, n)), 25.0);
}

TEST(Integration, WholeStackIsDeterministic) {
  auto run = [] {
    const auto spec = small_i3();
    model::TrainerOptions options = quick_options();
    options.grid.thread_counts = {4};
    model::Trainer trainer(spec, simcpu::GroundTruthParams{}, options);
    const model::CpuPowerModel m = trainer.train().model;
    os::System system(spec);
    util::Rng rng(99);
    system.spawn("kdaemon", workloads::make_background_daemon(rng.fork(1)));
    system.spawn("app", std::make_unique<workloads::SteadyBehavior>(
                            workloads::memory_stress(24e6, 0.7), 0));
    api::PowerMeter meter(system, m);
    auto& memory = meter.add_memory_reporter();
    meter.run_for(seconds_to_ns(3));
    meter.finish();
    double sum = 0;
    for (const auto& row : memory.all()) sum += row.watts;
    return sum;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace powerapi
