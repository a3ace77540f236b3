// Tests for the model layer: the per-frequency power model, its text
// serialization, and the Figure-1 training pipeline end to end (on reduced
// grids so the suite stays fast).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "model/model_io.h"
#include "model/model_registry.h"
#include "model/power_model.h"
#include "model/trainer.h"
#include "simcpu/cpu_spec.h"

namespace powerapi::model {
namespace {

FrequencyFormula make_formula(double hz, double ci, double cr, double cm) {
  FrequencyFormula f;
  f.frequency_hz = hz;
  f.events = {hpc::EventId::kInstructions, hpc::EventId::kCacheReferences,
              hpc::EventId::kCacheMisses};
  f.coefficients = {ci, cr, cm};
  return f;
}

CpuPowerModel paper_model() {
  // The paper's published i3-2120 model at 3.3 GHz + a second point.
  return CpuPowerModel(31.48, {make_formula(3.3e9, 2.22e-9, 2.48e-8, 1.87e-7),
                               make_formula(1.6e9, 1.0e-9, 2.4e-8, 1.8e-7)});
}

TEST(PowerModel, EstimateMatchesPaperFormula) {
  const CpuPowerModel model = paper_model();
  EventRates rates{};
  set_rate(rates, hpc::EventId::kInstructions, 1e9);
  set_rate(rates, hpc::EventId::kCacheReferences, 1e8);
  set_rate(rates, hpc::EventId::kCacheMisses, 1e7);
  const double expected = 2.22e-9 * 1e9 + 2.48e-8 * 1e8 + 1.87e-7 * 1e7;
  EXPECT_NEAR(model.estimate_activity(3.3e9, rates), expected, 1e-9);
  EXPECT_NEAR(model.estimate_machine(3.3e9, rates), 31.48 + expected, 1e-9);
}

TEST(PowerModel, PicksNearestFrequencyFormula) {
  const CpuPowerModel model = paper_model();
  EXPECT_DOUBLE_EQ(model.formula_for(3.2e9)->frequency_hz, 3.3e9);
  EXPECT_DOUBLE_EQ(model.formula_for(1.0e9)->frequency_hz, 1.6e9);
  EXPECT_DOUBLE_EQ(model.formula_for(2.44e9)->frequency_hz, 1.6e9);
  const CpuPowerModel empty;
  EXPECT_EQ(empty.formula_for(1e9), nullptr);
  EXPECT_TRUE(empty.empty());
  EventRates rates{};
  EXPECT_THROW(empty.estimate_activity(1e9, rates), std::logic_error);
}

TEST(PowerModel, ValidatesConstruction) {
  EXPECT_THROW(CpuPowerModel(-1.0, {}), std::invalid_argument);
  FrequencyFormula broken = make_formula(1e9, 1, 2, 3);
  broken.coefficients.pop_back();
  EXPECT_THROW(CpuPowerModel(10.0, {broken}), std::invalid_argument);
}

TEST(PowerModel, DescribeShowsPaperNotation) {
  const std::string text = paper_model().describe();
  EXPECT_NE(text.find("31.48"), std::string::npos);
  EXPECT_NE(text.find("instructions"), std::string::npos);
  EXPECT_NE(text.find("Power_3.3GHz"), std::string::npos);
}

TEST(RatesFromDelta, DividesByWindow) {
  hpc::EventValues delta;
  delta[hpc::EventId::kInstructions] = 500;
  const auto rates = rates_from_delta(delta, 0.25);
  EXPECT_DOUBLE_EQ(rate_of(rates, hpc::EventId::kInstructions), 2000.0);
  EXPECT_THROW(rates_from_delta(delta, 0.0), std::invalid_argument);
}

// --- ModelRegistry ---

TEST(ModelRegistry, RefreshWritesNothingUntilAPublish) {
  ModelRegistry registry(paper_model());
  std::shared_ptr<const ModelRegistry::Snapshot> pinned;
  const ModelRegistry::Snapshot& first = registry.refresh(pinned);
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(&first, pinned.get());
  EXPECT_EQ(first.version, 1u);
  // With no publish the pin is neither replaced nor re-counted.
  const ModelRegistry::Snapshot* const held = pinned.get();
  const long uses = pinned.use_count();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(&registry.refresh(pinned), held);
    ASSERT_EQ(pinned.get(), held);
    ASSERT_EQ(pinned.use_count(), uses);
  }
  // The first refresh after a publish re-pins to the new snapshot.
  const ModelRegistry::Version published = registry.publish(CpuPowerModel());
  EXPECT_EQ(published, 2u);
  EXPECT_EQ(registry.version(), 2u);
  const ModelRegistry::Snapshot& next = registry.refresh(pinned);
  EXPECT_NE(pinned.get(), held);
  EXPECT_EQ(next.version, 2u);
  EXPECT_TRUE(next.model.empty());
  EXPECT_EQ(registry.current().get(), pinned.get());
}

TEST(ModelRegistry, ConcurrentPublishersNeverMoveTheVersionBack) {
  // Every publish gets a distinct version one past the snapshot it
  // replaced, so the published sequence is 2..N+1 with no gaps, and the
  // registry ends on the highest.
  ModelRegistry registry(paper_model());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::vector<ModelRegistry::Version>> versions(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &mine = versions[static_cast<std::size_t>(t)]] {
      for (int i = 0; i < kPerThread; ++i) mine.push_back(registry.publish(CpuPowerModel()));
    });
  }
  std::shared_ptr<const ModelRegistry::Snapshot> pinned;
  ModelRegistry::Version seen = 0;
  for (int i = 0; i < 2000; ++i) {
    const ModelRegistry::Version now = registry.refresh(pinned).version;
    ASSERT_GE(now, seen);
    seen = now;
  }
  for (auto& thread : threads) thread.join();
  std::vector<bool> taken(kThreads * kPerThread + 2, false);
  for (const auto& mine : versions) {
    for (std::size_t i = 0; i < mine.size(); ++i) {
      ASSERT_GE(mine[i], 2u);
      ASSERT_LT(mine[i], taken.size());
      EXPECT_FALSE(taken[mine[i]]) << "version " << mine[i] << " published twice";
      taken[mine[i]] = true;
      if (i != 0) {
        EXPECT_GT(mine[i], mine[i - 1]);
      }
    }
  }
  const ModelRegistry::Version last = kThreads * kPerThread + 1;
  EXPECT_EQ(registry.version(), last);
  EXPECT_EQ(registry.current()->version, last);
  EXPECT_EQ(registry.refresh(pinned).version, last);
}

// --- model_io ---

TEST(ModelIo, RoundTripsThroughText) {
  const CpuPowerModel original = paper_model();
  const std::string text = model_to_string(original);
  const auto parsed = model_from_string(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  const CpuPowerModel& restored = parsed.value();
  EXPECT_DOUBLE_EQ(restored.idle_watts(), original.idle_watts());
  ASSERT_EQ(restored.formulas().size(), original.formulas().size());
  for (std::size_t i = 0; i < restored.formulas().size(); ++i) {
    EXPECT_DOUBLE_EQ(restored.formulas()[i].frequency_hz,
                     original.formulas()[i].frequency_hz);
    EXPECT_EQ(restored.formulas()[i].events, original.formulas()[i].events);
    for (std::size_t c = 0; c < restored.formulas()[i].coefficients.size(); ++c) {
      EXPECT_DOUBLE_EQ(restored.formulas()[i].coefficients[c],
                       original.formulas()[i].coefficients[c]);
    }
  }
}

TEST(ModelIo, AcceptsCommentsAndBlankLines) {
  const std::string text =
      "powerapi-model v1\n"
      "# a comment\n"
      "\n"
      "idle 30\n"
      "frequency 1e9\n"
      "instructions 2e-9\n";
  const auto parsed = model_from_string(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  EXPECT_DOUBLE_EQ(parsed.value().idle_watts(), 30.0);
}

TEST(ModelIo, RejectsMalformedInput) {
  const char* bad_inputs[] = {
      "",                                             // Empty.
      "not-a-model\nidle 3\n",                        // Wrong header.
      "powerapi-model v1\nfrequency 1e9\ncycles 1\n", // Missing idle.
      "powerapi-model v1\nidle 3\n",                  // No formulas.
      "powerapi-model v1\nidle 3\nfrequency 1e9\n",   // Empty formula block.
      "powerapi-model v1\nidle -3\nfrequency 1e9\ncycles 1\n",     // Negative idle.
      "powerapi-model v1\nidle 3\ncycles 1\n",        // Coefficient before frequency.
      "powerapi-model v1\nidle 3\nfrequency 1e9\nwarp-cores 1\n",  // Unknown event.
      "powerapi-model v1\nidle x\nfrequency 1e9\ncycles 1\n",      // Bad number.
      "powerapi-model v1\nidle 3\nidle 4\nfrequency 1e9\ncycles 1\n",  // Dup idle.
  };
  for (const char* text : bad_inputs) {
    const auto parsed = model_from_string(text);
    EXPECT_FALSE(parsed.ok()) << "should reject: " << text;
  }
}

TEST(ModelIo, RoundTripsFitDiagnostics) {
  CpuPowerModel original = paper_model();
  // paper_model ships with default r_squared; give each formula a distinct
  // diagnostic so the round trip is actually exercised.
  std::vector<FrequencyFormula> formulas = original.formulas();
  for (std::size_t i = 0; i < formulas.size(); ++i) {
    formulas[i].r_squared = 0.9 + 0.01 * static_cast<double>(i);
  }
  original = CpuPowerModel(original.idle_watts(), std::move(formulas));

  const std::string text = model_to_string(original);
  EXPECT_NE(text.find("powerapi-model v2"), std::string::npos);
  EXPECT_NE(text.find("r2 "), std::string::npos);

  const auto parsed = model_from_string(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  ASSERT_EQ(parsed.value().formulas().size(), original.formulas().size());
  for (std::size_t i = 0; i < original.formulas().size(); ++i) {
    EXPECT_DOUBLE_EQ(parsed.value().formulas()[i].r_squared,
                     original.formulas()[i].r_squared);
  }
}

TEST(ModelIo, RejectsUnknownFormatVersions) {
  const char* bad_headers[] = {
      "powerapi-model v3\nidle 3\nfrequency 1e9\ncycles 1\n",   // Future version.
      "powerapi-model v99\nidle 3\nfrequency 1e9\ncycles 1\n",  // Far future.
      "powerapi-model v0\nidle 3\nfrequency 1e9\ncycles 1\n",   // Nonsense.
      "powerapi-model v1.5\nidle 3\nfrequency 1e9\ncycles 1\n", // Non-integer.
      "powerapi-model 2\nidle 3\nfrequency 1e9\ncycles 1\n",    // Missing 'v'.
      "powerapi-model vx\nidle 3\nfrequency 1e9\ncycles 1\n",   // Not a number.
  };
  for (const char* text : bad_headers) {
    const auto parsed = model_from_string(text);
    EXPECT_FALSE(parsed.ok()) << "should reject: " << text;
  }
  // The v3 error must tell the operator what this build can read.
  const auto v3 = model_from_string(bad_headers[0]);
  EXPECT_NE(v3.error_message().find("unsupported format version"), std::string::npos);
  EXPECT_NE(v3.error_message().find("v2"), std::string::npos);
}

TEST(ModelIo, V1FilesStillLoadButMayNotUseDiagnostics) {
  // A v1 file (no r2 lines) parses; an r2 line inside a v1 file is invalid.
  const auto v1 = model_from_string(
      "powerapi-model v1\nidle 30\nfrequency 1e9\ninstructions 2e-9\n");
  ASSERT_TRUE(v1.ok()) << v1.error_message();
  const auto v1_with_r2 = model_from_string(
      "powerapi-model v1\nidle 30\nfrequency 1e9\nr2 0.9\ninstructions 2e-9\n");
  EXPECT_FALSE(v1_with_r2.ok());
}

TEST(ModelIo, SavedFilesCarryAChecksumFooter) {
  const std::string text = model_to_string(paper_model());
  // Last line is "# crc32c XXXXXXXX".
  const std::size_t footer_at = text.rfind("# crc32c ");
  ASSERT_NE(footer_at, std::string::npos);
  EXPECT_EQ(text.find('\n', footer_at), text.size() - 1);  // Footer is last.
  ASSERT_TRUE(model_from_string(text).ok());
}

TEST(ModelIo, CorruptedFileFailsChecksum) {
  std::string text = model_to_string(paper_model());
  // Flip one digit of the idle power: content no longer matches the footer.
  const std::size_t idle_at = text.find("idle 31.48");
  ASSERT_NE(idle_at, std::string::npos);
  text[idle_at + 5] = '4';
  const auto parsed = model_from_string(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error_message().find("checksum mismatch"), std::string::npos);
}

TEST(ModelIo, MalformedChecksumFooterRejected) {
  std::string text = model_to_string(paper_model());
  const std::size_t footer_at = text.rfind("# crc32c ");
  ASSERT_NE(footer_at, std::string::npos);
  // Truncate the hex digits: a present footer must be well-formed.
  std::string truncated = text.substr(0, footer_at) + "# crc32c 12ab\n";
  const auto parsed = model_from_string(truncated);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error_message().find("malformed crc32c footer"),
            std::string::npos);
}

TEST(ModelIo, FilesWithoutFooterLoadUnchecked) {
  // v1 files and hand-written files never carry a footer; they still load.
  const auto parsed = model_from_string(
      "powerapi-model v2\nidle 30\nfrequency 1e9\ninstructions 2e-9\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  EXPECT_DOUBLE_EQ(parsed.value().idle_watts(), 30.0);
}

// --- Trainer (reduced grid for speed) ---

TrainerOptions quick_options() {
  TrainerOptions options;
  options.grid.intensities = {1.0};
  options.grid.memory_shares = {0.0, 1.0};
  options.grid.working_sets = {24.0 * 1024 * 1024};
  options.grid.thread_counts = {1, 4};
  options.idle_duration = util::seconds_to_ns(2);
  options.point_duration = util::seconds_to_ns(1);
  return options;
}

simcpu::CpuSpec two_point_spec() {
  simcpu::CpuSpec spec = simcpu::i3_2120();
  spec.frequencies_hz = {1.6e9, 3.3e9};  // Two points keep the test fast.
  return spec;
}

TEST(Trainer, LearnsSaneModelEndToEnd) {
  const auto spec = two_point_spec();
  Trainer trainer(spec, simcpu::GroundTruthParams{}, quick_options());
  const TrainingResult result = trainer.train();

  // Idle lands near platform + near-idle cores (25.6 + ~2x2.6..3.7 W).
  EXPECT_GT(result.model.idle_watts(), 26.0);
  EXPECT_LT(result.model.idle_watts(), 34.0);

  ASSERT_EQ(result.model.formulas().size(), 2u);
  for (const auto& report : result.reports) {
    EXPECT_GT(report.r_squared, 0.85) << "poor fit at " << report.frequency_hz;
  }

  // Coefficients are non-negative and the instruction coefficient grows
  // with frequency (V²f scaling).
  const auto* slow = result.model.formula_for(1.6e9);
  const auto* fast = result.model.formula_for(3.3e9);
  for (double c : slow->coefficients) EXPECT_GE(c, 0.0);
  EXPECT_GT(fast->coefficients[0], slow->coefficients[0]);

  // The max-frequency instruction coefficient is in the paper's order of
  // magnitude (nJ per instruction).
  EXPECT_GT(fast->coefficients[0], 0.5e-9);
  EXPECT_LT(fast->coefficients[0], 8e-9);
}

TEST(Trainer, AutoSelectionPicksPowerCorrelatedEvents) {
  const auto spec = two_point_spec();
  TrainerOptions options = quick_options();
  options.auto_select_events = true;
  options.selection.max_features = 3;
  Trainer trainer(spec, simcpu::GroundTruthParams{}, options);
  const TrainingResult result = trainer.train();
  EXPECT_FALSE(result.selected_events.empty());
  EXPECT_LE(result.selected_events.size(), 3u);
  // Whatever was picked, the fit must be good.
  for (const auto& report : result.reports) EXPECT_GT(report.r_squared, 0.75);
}

TEST(Trainer, FitRejectsDegenerateInputs) {
  const auto spec = two_point_spec();
  Trainer trainer(spec, simcpu::GroundTruthParams{}, quick_options());
  SampleSet empty;
  EXPECT_THROW(trainer.fit(empty), std::invalid_argument);

  SampleSet tiny;
  tiny.idle_watts = 30;
  tiny.frequencies_hz = {1.6e9};
  tiny.by_frequency.push_back({TrainingSample{}});  // 1 sample < events + 2.
  EXPECT_THROW(trainer.fit(tiny), std::runtime_error);
}

TEST(Trainer, PaperOptionsUseThreeGenericCounters) {
  const TrainerOptions options = paper_trainer_options();
  ASSERT_EQ(options.events.size(), 3u);
  EXPECT_EQ(options.events[0], hpc::EventId::kInstructions);
  EXPECT_EQ(options.grid.intensities, std::vector<double>{1.0});
  EXPECT_FALSE(options.auto_select_events);
}

TEST(Trainer, CollectIsDeterministicForFixedSeed) {
  const auto spec = two_point_spec();
  TrainerOptions options = quick_options();
  options.grid.thread_counts = {1};
  Trainer a(spec, simcpu::GroundTruthParams{}, options);
  Trainer b(spec, simcpu::GroundTruthParams{}, options);
  const SampleSet sa = a.collect();
  const SampleSet sb = b.collect();
  ASSERT_EQ(sa.total_samples(), sb.total_samples());
  EXPECT_DOUBLE_EQ(sa.idle_watts, sb.idle_watts);
  for (std::size_t f = 0; f < sa.by_frequency.size(); ++f) {
    for (std::size_t i = 0; i < sa.by_frequency[f].size(); ++i) {
      EXPECT_DOUBLE_EQ(sa.by_frequency[f][i].watts, sb.by_frequency[f][i].watts);
    }
  }
}

}  // namespace
}  // namespace powerapi::model
