// Golden determinism: the kManual fleet output is pinned bit-for-bit.
//
// The committed CSVs under tests/golden/ were produced by the per-actor
// (pre-SoA) tick path; the batched SoA hot path must reproduce every watt
// bit-for-bit (doubles are serialized as C99 hexfloats, so a single-ulp
// drift fails the diff). Three seeds sweep heterogeneous fleets — mixed CPU
// specs (different core/SMT counts in one fleet), a fleet size that does
// not divide evenly into host slices, and a per-pid pipeline.
//
// A fourth golden, pipeline_every_stage.csv, pins every sensor and formula
// kind on one host — PowerSpy, RAPL, IO, the HPC regression with online
// calibration swapping the model mid-run, and a baseline estimator — under
// the group dimension, in arrival order.
//
// Regenerate (only when an intentional semantic change lands) with:
//   POWERAPI_GOLDEN_REGEN=1 ./test_golden_determinism
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/cpuload_model.h"
#include "os/system.h"
#include "powerapi/fleet_monitor.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

namespace powerapi::api {
namespace {

using util::ms_to_ns;

/// Bit-exact double serialization (C99 hexfloat via libc).
std::string hex_double(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

/// Seed-parameterized per-frequency model over the i3-2120 ladder;
/// formula_for() snaps other specs' frequencies to the nearest entry.
model::CpuPowerModel golden_model(std::uint64_t seed) {
  std::vector<model::FrequencyFormula> formulas;
  std::size_t k = 0;
  for (const double hz : simcpu::i3_2120().frequencies_hz) {
    model::FrequencyFormula f;
    f.frequency_hz = hz;
    f.events = {hpc::EventId::kInstructions, hpc::EventId::kCacheReferences,
                hpc::EventId::kCacheMisses};
    const double scale = hz / 3.3e9;
    const double jitter = 1.0 + 0.01 * static_cast<double>((seed + k) % 5);
    f.coefficients = {2.22e-9 * scale * jitter, 2.48e-8 * scale, 1.87e-7 * jitter};
    formulas.push_back(std::move(f));
    ++k;
  }
  return model::CpuPowerModel(30.0 + static_cast<double>(seed % 4), std::move(formulas));
}

simcpu::CpuSpec spec_for(std::size_t index) {
  switch (index % 4) {
    case 0: return simcpu::i3_2120();
    case 1: return simcpu::i7_2600();
    case 2: return simcpu::quad_core();
    default: return simcpu::i3_2120_no_smt();
  }
}

/// Deterministic host: spec cycles through heterogeneous core/SMT counts,
/// workload intensity derives from (seed, index). Every host runs exactly
/// two processes so the per-tick message counts stay symmetric across the
/// fleet (the fleet dimension's summation order is host order).
std::unique_ptr<os::System> make_host(std::uint64_t seed, std::size_t index) {
  auto host = std::make_unique<os::System>(spec_for(index));
  const double duty = 0.15 + 0.1 * static_cast<double>((seed + index) % 7);
  const double working_set = 4e6 * static_cast<double>(1 + (seed + index) % 4);
  host->spawn("app", std::make_unique<workloads::SteadyBehavior>(
                         workloads::cpu_stress(duty), 0));
  host->spawn("mem", std::make_unique<workloads::SteadyBehavior>(
                         workloads::memory_stress(working_set, 0.8), 0));
  return host;
}

void serialize(std::ostream& out, const std::string& label, const std::string& formula,
               const std::vector<AggregatedPower>& rows) {
  for (const auto& row : rows) {
    out << label << ',' << formula << ',' << row.timestamp << ',' << row.pid << ','
        << row.group << ',' << hex_double(row.watts) << '\n';
  }
}

const char* const kFormulas[] = {"powerapi-hpc", "powerspy"};

/// Config A: five heterogeneous hosts, timestamp dimension, fleet dimension
/// on.
void run_fleet_case(std::uint64_t seed, std::ostream& out,
                    actors::ActorSystem::Mode mode = actors::ActorSystem::Mode::kManual) {
  constexpr std::size_t kHosts = 5;
  std::vector<std::unique_ptr<os::System>> hosts;
  for (std::size_t i = 0; i < kHosts; ++i) hosts.push_back(make_host(seed, i));

  FleetMonitor::Options options;
  options.mode = mode;
  FleetMonitor fleet(options);
  std::vector<MemoryReporter*> memory;
  for (std::size_t i = 0; i < kHosts; ++i) {
    PipelineSpec spec;
    spec.period = ms_to_ns(25);
    spec.model = golden_model(seed);
    spec.seed = seed * 1000 + i;
    const std::size_t index = fleet.add_host(*hosts[i], std::move(spec));
    memory.push_back(&fleet.add_memory_reporter(index));
    fleet.monitor_all(index);
  }
  auto& fleet_memory = fleet.add_fleet_reporter();
  fleet.run_for(ms_to_ns(600));
  fleet.finish();

  for (std::size_t i = 0; i < kHosts; ++i) {
    for (const char* formula : kFormulas) {
      serialize(out, "A:h" + std::to_string(i), formula, memory[i]->series(formula));
    }
  }
  for (const char* formula : kFormulas) {
    serialize(out, "A:fleet", formula, fleet_memory.group_series(formula, "(fleet)"));
  }
}

/// Config B: one host under the per-pid dimension — pins per-process rows
/// (activity-only attribution) in addition to machine rows.
void run_per_pid_case(std::uint64_t seed, std::ostream& out) {
  auto host = std::make_unique<os::System>(simcpu::i3_2120());
  const double duty = 0.2 + 0.1 * static_cast<double>(seed % 5);
  host->spawn("app", std::make_unique<workloads::SteadyBehavior>(
                         workloads::cpu_stress(duty), 0));
  host->spawn("mem", std::make_unique<workloads::SteadyBehavior>(
                         workloads::memory_stress(8e6, 0.7), 0));
  host->spawn("mix", std::make_unique<workloads::SteadyBehavior>(
                         workloads::mixed_stress(0.5, 2e6, 0.9), 0));

  FleetMonitor::Options options;
  options.mode = actors::ActorSystem::Mode::kManual;
  FleetMonitor fleet(options);
  PipelineSpec spec;
  spec.period = ms_to_ns(25);
  spec.model = golden_model(seed);
  spec.seed = seed * 7919;
  spec.dimension = AggregationDimension::kPid;
  const std::size_t index = fleet.add_host(*host, std::move(spec));
  auto& memory = fleet.add_memory_reporter(index);
  fleet.monitor_all(index);
  fleet.run_for(ms_to_ns(600));
  fleet.finish();

  for (const char* formula : kFormulas) {
    for (const std::int64_t pid : {kMachinePid, std::int64_t{1}, std::int64_t{2},
                                   std::int64_t{3}}) {
      serialize(out, "B:pid", formula, memory.series(formula, pid));
    }
  }
}

std::string run_case(std::uint64_t seed) {
  std::ostringstream out;
  out << "config:host,formula,timestamp_ns,pid,group,watts_hex\n";
  run_fleet_case(seed, out);
  run_per_pid_case(seed, out);
  return out.str();
}

std::string golden_path(const std::string& name) {
  return std::string(POWERAPI_GOLDEN_DIR) + "/" + name + ".csv";
}

std::string golden_path(std::uint64_t seed) {
  return golden_path("fleet_kmanual_seed" + std::to_string(seed));
}

/// Compares `actual` with the committed golden at `path` line by line (a
/// readable first divergence), or rewrites it under POWERAPI_GOLDEN_REGEN.
void expect_matches_golden(const std::string& actual, const std::string& path) {
  if (std::getenv("POWERAPI_GOLDEN_REGEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run with POWERAPI_GOLDEN_REGEN=1";
  std::ostringstream expected;
  expected << in.rdbuf();

  std::istringstream actual_lines(actual), expected_lines(expected.str());
  std::string a, e;
  std::size_t line = 0;
  while (std::getline(expected_lines, e)) {
    ++line;
    ASSERT_TRUE(std::getline(actual_lines, a))
        << "output truncated at golden line " << line;
    ASSERT_EQ(a, e) << "first divergence at line " << line;
  }
  EXPECT_FALSE(std::getline(actual_lines, a)) << "extra rows beyond the golden file";
}

class GoldenDeterminism : public testing::TestWithParam<std::uint64_t> {};

TEST_P(GoldenDeterminism, MatchesCommittedCsvBitForBit) {
  const std::uint64_t seed = GetParam();
  const std::string actual = run_case(seed);
  ASSERT_GT(actual.size(), 1000u) << "suspiciously small output";
  expect_matches_golden(actual, golden_path(seed));
}

TEST_P(GoldenDeterminism, RunTwiceIsIdentical) {
  const std::uint64_t seed = GetParam();
  EXPECT_EQ(run_case(seed), run_case(seed));
}

// The fleet dimension closes a bucket a host skipped (a dropped meter
// sample) when a later timestamp of that formula completes, so each
// formula's "(fleet)" rows come out in strictly increasing timestamp order.
TEST_P(GoldenDeterminism, FleetRowsAreInTimestampOrderPerFormula) {
  std::ostringstream out;
  run_fleet_case(GetParam(), out);
  std::istringstream lines(out.str());
  std::map<std::string, std::int64_t> last;
  std::size_t rows = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("A:fleet,", 0) != 0) continue;
    std::istringstream fields(line);
    std::string label, formula, timestamp;
    std::getline(fields, label, ',');
    std::getline(fields, formula, ',');
    std::getline(fields, timestamp, ',');
    const std::int64_t t = std::stoll(timestamp);
    const auto it = last.find(formula);
    if (it != last.end()) {
      EXPECT_LT(it->second, t) << line;
    }
    last[formula] = t;
    ++rows;
  }
  EXPECT_GT(rows, 20u);
}

// Threaded-fleet equivalence (the TSan target in CI): host slices run in
// parallel, but every host's pipeline drains on its slice's thread and the
// fleet dimension folds in host order after each step, so the whole output
// — per-host series and fleet rows — must match the kManual run bit for
// bit.
TEST_P(GoldenDeterminism, ThreadedFleetMatchesManual) {
  const std::uint64_t seed = GetParam();
  std::ostringstream manual, threaded;
  run_fleet_case(seed, manual, actors::ActorSystem::Mode::kManual);
  run_fleet_case(seed, threaded, actors::ActorSystem::Mode::kThreaded);
  EXPECT_EQ(manual.str(), threaded.str());
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, GoldenDeterminism,
                         testing::Values(1u, 7u, 42u));

/// A CPU-load baseline fitted on an exact synthetic linear world
/// (watts = 28 + 14 * utilization at every ladder frequency), so the fit
/// is deterministic without a training run.
std::shared_ptr<const baselines::MachinePowerEstimator> golden_cpu_load() {
  model::SampleSet samples;
  samples.idle_watts = 28.0;
  for (const double hz : simcpu::i3_2120().frequencies_hz) {
    samples.frequencies_hz.push_back(hz);
    std::vector<model::TrainingSample> batch;
    for (int i = 1; i <= 10; ++i) {
      model::TrainingSample s;
      s.frequency_hz = hz;
      s.utilization = 0.1 * i;
      s.watts = 28.0 + 14.0 * s.utilization * (hz / 3.3e9);
      batch.push_back(s);
    }
    samples.by_frequency.push_back(std::move(batch));
  }
  return std::make_shared<baselines::CpuLoadModel>(baselines::CpuLoadModel::train(samples));
}

/// Every pipeline stage on one kManual host with peripherals: PowerSpy,
/// RAPL and IO sensors with their formulas, the regression formula fed a
/// distorted model that online calibration refits mid-run, and a CPU-load
/// baseline — all aggregated per group and serialized in arrival order.
std::string run_every_stage_case(std::uint64_t* registry_version) {
  os::System::Options host_options;
  host_options.with_peripherals = true;
  os::System host(simcpu::i3_2120(), std::move(host_options));
  const os::Pid app = host.spawn("app", std::make_unique<workloads::SteadyBehavior>(
                                            workloads::cpu_stress(0.6), 0));
  const os::Pid mem = host.spawn("mem", std::make_unique<workloads::SteadyBehavior>(
                                            workloads::memory_stress(8e6, 0.8), 0));
  const os::Pid backup = host.spawn("backup", std::make_unique<workloads::SteadyBehavior>(
                                                  workloads::io_stress(20, 10, 0.6), 0));
  host.set_group(app, "web");
  host.set_group(mem, "web");
  host.set_group(backup, "batch");

  // Distorted by 1.8x so the rolling error crosses the drift threshold
  // and a refit lands inside the run.
  model::CpuPowerModel distorted = golden_model(3);
  std::vector<model::FrequencyFormula> formulas = distorted.formulas();
  for (auto& f : formulas) {
    for (double& c : f.coefficients) c *= 1.8;
  }
  auto registry = std::make_shared<model::ModelRegistry>(
      model::CpuPowerModel(distorted.idle_watts(), std::move(formulas)));

  FleetMonitor::Options options;
  options.mode = actors::ActorSystem::Mode::kManual;
  FleetMonitor fleet(options);
  PipelineSpec spec;
  spec.period = ms_to_ns(25);
  spec.seed = 2024;
  spec.with_powerspy = true;
  spec.with_rapl = true;
  spec.with_io = true;
  spec.dimension = AggregationDimension::kGroup;
  spec.registry = registry;
  spec.with_calibration = true;
  spec.calibration.min_samples_per_fit = 8;
  spec.calibration.drift_window = 4;
  spec.calibration.min_refit_interval = ms_to_ns(200);
  spec.estimators.push_back(golden_cpu_load());
  const std::size_t index = fleet.add_host(host, std::move(spec));

  std::ostringstream out;
  out << "formula,timestamp_ns,pid,group,watts_hex\n";
  fleet.add_callback_reporter(index, [&out](const AggregatedPower& row) {
    out << row.formula << ',' << row.timestamp << ',' << row.pid << ',' << row.group << ','
        << hex_double(row.watts) << '\n';
  });
  fleet.monitor_all(index);
  fleet.run_for(ms_to_ns(1000));
  fleet.finish();
  *registry_version = registry->current()->version;
  return out.str();
}

TEST(GoldenEveryStage, MatchesCommittedCsvBitForBit) {
  std::uint64_t version = 0;
  const std::string actual = run_every_stage_case(&version);
  EXPECT_GT(version, 1u) << "no calibration swap landed inside the run";
  for (const char* formula :
       {"powerapi-hpc", "powerspy", "rapl", "io-datasheet", "cpu-load"}) {
    EXPECT_NE(actual.find(std::string("\n") + formula + ','), std::string::npos)
        << "no " << formula << " rows";
  }
  for (const char* group : {",(machine),", ",web,", ",batch,"}) {
    EXPECT_NE(actual.find(group), std::string::npos) << "no " << group << " rows";
  }
  expect_matches_golden(actual, golden_path("pipeline_every_stage"));
}

TEST(GoldenEveryStage, RunTwiceIsIdentical) {
  std::uint64_t a = 0, b = 0;
  EXPECT_EQ(run_every_stage_case(&a), run_every_stage_case(&b));
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace powerapi::api
