// Edge cases of the batched SoA feature/model hot path: batch-vs-scalar
// bit-identity, zero-delta windows, counter regression (re-prime) hitting
// one row of a chunk while the others keep reporting, heterogeneous core
// counts inside one host-chunk, and chunk sizes that do not divide the
// fleet evenly.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hpc/events.h"
#include "model/feature_matrix.h"
#include "model/power_model.h"
#include "os/system.h"
#include "powerapi/fleet_monitor.h"
#include "powerapi/sensors.h"
#include "scripted_host.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

namespace powerapi::api {
namespace {

using util::ms_to_ns;
using util::ns_to_seconds;
using util::seconds_to_ns;

// --- extract_features_rows against the scalar reference ---

/// Deterministic pseudo-values: enough spread to exercise every lane, no
/// RNG so failures reproduce.
std::uint64_t fake_counter(std::size_t lane, std::size_t row, std::uint64_t base) {
  return base + lane * 977 + row * 131071 + (lane * row) % 89;
}

TEST(FeatureBatch, BatchMatchesScalarExtractionBitForBit) {
  constexpr std::size_t kRows = 5;
  constexpr double kFreq = 3.1e9;
  constexpr std::size_t kHwThreads = 4;

  simcpu::CounterLanes prev, cur;
  prev.resize(kRows);
  cur.resize(kRows);
  std::vector<double> windows(kRows);
  std::vector<std::int64_t> pids = {kMachinePid, 10, 11, 12, 13};
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t l = 0; l < simcpu::CounterLanes::kLanes; ++l) {
      prev.lane(l)[r] = fake_counter(l, r, 1'000'000);
      cur.lane(l)[r] = fake_counter(l, r, 1'000'000) + fake_counter(l, r, 5000);
    }
    prev.cpu_time()[r] = static_cast<std::int64_t>(r) * 1'000'000;
    cur.cpu_time()[r] = static_cast<std::int64_t>(r) * 1'000'000 + 400'000 * (r + 1);
    cur.live()[r] = 1;
    windows[r] = 0.01 + 0.001 * static_cast<double>(r);
  }

  model::FeatureMatrix out;
  out.frequency_hz = kFreq;
  out.resize(kRows);
  for (std::size_t r = 0; r < kRows; ++r) out.pids()[r] = pids[r];
  model::extract_features_rows(cur, prev, windows.data(), kHwThreads, out);

  for (std::size_t r = 0; r < kRows; ++r) {
    hpc::EventValues delta;
    for (hpc::EventId id : hpc::all_events()) {
      const auto l = static_cast<std::size_t>(id);
      delta[id] = cur.lane(l)[r] - prev.lane(l)[r];
    }
    const std::uint64_t smt_delta = cur.lane(simcpu::CounterLanes::kSmtLane)[r] -
                                    prev.lane(simcpu::CounterLanes::kSmtLane)[r];
    const model::FeatureVector scalar =
        model::extract_features(delta, smt_delta, windows[r], kFreq);
    const model::FeatureVector batched = out.row(r);
    for (hpc::EventId id : hpc::all_events()) {
      EXPECT_EQ(model::rate_of(batched.rates, id), model::rate_of(scalar.rates, id))
          << "row " << r << " event " << hpc::to_string(id);
    }
    EXPECT_EQ(batched.smt_shared_cycles_per_sec, scalar.smt_shared_cycles_per_sec)
        << "row " << r;
    if (pids[r] < 0) {
      EXPECT_EQ(batched.utilization,
                model::machine_utilization(scalar.rates, kFreq, kHwThreads));
    } else {
      EXPECT_EQ(batched.utilization,
                ns_to_seconds(cur.cpu_time()[r] - prev.cpu_time()[r]) / windows[r]);
    }
    EXPECT_EQ(out.window_seconds(r), windows[r]);
  }
}

TEST(FeatureBatch, ZeroDeltaWindowYieldsAllZeroFeatures) {
  constexpr std::size_t kRows = 3;
  simcpu::CounterLanes prev, cur;
  prev.resize(kRows);
  cur.resize(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t l = 0; l < simcpu::CounterLanes::kLanes; ++l) {
      prev.lane(l)[r] = cur.lane(l)[r] = 42'000 + 7 * l + r;
    }
    prev.cpu_time()[r] = cur.cpu_time()[r] = 9'000'000;
  }
  std::vector<double> windows(kRows, 0.025);

  model::FeatureMatrix out;
  out.frequency_hz = 3.3e9;
  out.resize(kRows);
  out.pids()[0] = kMachinePid;
  out.pids()[1] = 5;
  out.pids()[2] = 6;
  model::extract_features_rows(cur, prev, windows.data(), 4, out);

  for (std::size_t r = 0; r < kRows; ++r) {
    const model::FeatureVector row = out.row(r);
    for (hpc::EventId id : hpc::all_events()) {
      EXPECT_EQ(model::rate_of(row.rates, id), 0.0) << "row " << r;
    }
    EXPECT_EQ(row.smt_shared_cycles_per_sec, 0.0);
    EXPECT_EQ(row.utilization, 0.0) << "row " << r;
  }
}

TEST(FeatureBatch, RegressedCountersSaturateToZeroInsteadOfWrapping) {
  simcpu::CounterLanes prev, cur;
  prev.resize(1);
  cur.resize(1);
  for (std::size_t l = 0; l < simcpu::CounterLanes::kLanes; ++l) {
    prev.lane(l)[0] = 3'000'000;  // Pid reuse: new process restarts near zero.
    cur.lane(l)[0] = 50'000;
  }
  const double window = 1.0;
  model::FeatureMatrix out;
  out.frequency_hz = 3.3e9;
  out.resize(1);
  out.pids()[0] = 42;
  model::extract_features_rows(cur, prev, &window, 4, out);
  for (hpc::EventId id : hpc::all_events()) {
    EXPECT_EQ(model::rate_of(out.row(0).rates, id), 0.0)
        << "an unsigned wrap would read ~1.8e19 events/s";
  }
}

// --- HpcSensor: re-prime of one row mid-chunk ---

/// Collects SensorBatch pids per tick, in row order.
struct BatchPidCollector {
  void add(const SensorBatch& batch) {
    std::vector<std::int64_t> row_pids;
    for (std::size_t i = 0; i < batch.features->rows(); ++i) {
      row_pids.push_back(batch.features->pid(i));
      rates[batch.features->pid(i)] =
          model::rate_of(batch.features->row(i).rates, hpc::EventId::kInstructions);
    }
    batches.push_back(std::move(row_pids));
  }
  std::vector<std::vector<std::int64_t>> batches;
  std::map<std::int64_t, double> rates;  ///< Last instruction rate per pid.
};

TEST(FeatureBatch, RePrimeMidChunkDropsOnlyTheRegressedRow) {
  testing::ScriptedHost host;
  constexpr std::int64_t kPidA = 7;
  constexpr std::int64_t kPidB = 8;

  BatchPidCollector seen;
  HpcSensor sensor(host);
  sensor.monitor({kPidA, kPidB});

  auto tick = [&](int second, std::uint64_t a, std::uint64_t b) {
    // Machine counters stay monotone throughout — only pid A regresses.
    host.machine.instructions = static_cast<std::uint64_t>(second) * 10'000'000;
    host.processes[kPidA].instructions = a;
    host.processes[kPidB].instructions = b;
    if (const auto batch = sensor.sample(MonitorTick{seconds_to_ns(second)})) {
      seen.add(*batch);
    }
  };

  tick(1, 1'000'000, 2'000'000);  // Primes all three rows.
  tick(2, 1'500'000, 2'600'000);  // Full batch: machine + A + B.
  ASSERT_EQ(seen.batches.size(), 1u);
  EXPECT_EQ(seen.batches[0],
            (std::vector<std::int64_t>{kMachinePid, kPidA, kPidB}));
  EXPECT_EQ(seen.rates[kPidA], 5e5);
  EXPECT_EQ(seen.rates[kPidB], 6e5);

  // Pid A's counters regress (process died, pid reused) while B and the
  // machine stay monotone: only A's row re-primes and drops out of the
  // batch — the compacted batch must carry the surviving rows' values.
  tick(3, 10'000, 3'300'000);
  ASSERT_EQ(seen.batches.size(), 2u);
  EXPECT_EQ(seen.batches[1], (std::vector<std::int64_t>{kMachinePid, kPidB}));
  EXPECT_EQ(seen.rates[kPidB], 7e5);

  // A's re-primed window completes one tick later, against the new baseline.
  tick(4, 250'000, 3'700'000);
  ASSERT_EQ(seen.batches.size(), 3u);
  EXPECT_EQ(seen.batches[2],
            (std::vector<std::int64_t>{kMachinePid, kPidA, kPidB}));
  EXPECT_EQ(seen.rates[kPidA], 240'000.0);
  EXPECT_EQ(seen.rates[kPidB], 4e5);
}

// --- Fleet chunking: heterogeneous hosts, uneven chunk sizes ---

std::string hex_double(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

model::CpuPowerModel slice_model() {
  std::vector<model::FrequencyFormula> formulas;
  for (const double hz : simcpu::i3_2120().frequencies_hz) {
    model::FrequencyFormula f;
    f.frequency_hz = hz;
    f.events = {hpc::EventId::kInstructions, hpc::EventId::kCacheMisses};
    f.coefficients = {2.2e-9 * hz / 3.3e9, 1.9e-7};
    formulas.push_back(std::move(f));
  }
  return model::CpuPowerModel(30.5, std::move(formulas));
}

simcpu::CpuSpec heterogeneous_spec(std::size_t index) {
  switch (index % 3) {
    case 0: return simcpu::i3_2120();        // 2 cores, SMT.
    case 1: return simcpu::quad_core();      // 4 cores.
    default: return simcpu::i3_2120_no_smt();  // 2 cores, no SMT.
  }
}

/// Runs `host_count` heterogeneous hosts in `mode` (threaded with `workers`
/// slice threads beside the caller) and serializes every host's
/// per-formula series and the fleet dimension bit-exactly.
std::string run_sliced_fleet(std::size_t host_count, actors::ActorSystem::Mode mode,
                             std::size_t workers) {
  std::vector<std::unique_ptr<os::System>> hosts;
  for (std::size_t i = 0; i < host_count; ++i) {
    auto host = std::make_unique<os::System>(heterogeneous_spec(i));
    host->spawn("app", std::make_unique<workloads::SteadyBehavior>(
                           workloads::cpu_stress(0.2 + 0.1 * (i % 4)), 0));
    host->spawn("mem", std::make_unique<workloads::SteadyBehavior>(
                           workloads::memory_stress(4e6 * (1 + i % 3), 0.8), 0));
    hosts.push_back(std::move(host));
  }

  FleetMonitor::Options options;
  options.mode = mode;
  options.workers = workers;
  FleetMonitor fleet(options);
  std::vector<MemoryReporter*> memory;
  for (std::size_t i = 0; i < host_count; ++i) {
    PipelineSpec spec;
    spec.period = ms_to_ns(25);
    spec.model = slice_model();
    spec.seed = 100 + i;
    const std::size_t index = fleet.add_host(*hosts[i], std::move(spec));
    memory.push_back(&fleet.add_memory_reporter(index));
    fleet.monitor_all(index);
  }
  auto& fleet_memory = fleet.add_fleet_reporter();
  fleet.run_for(ms_to_ns(300));
  fleet.finish();

  std::ostringstream out;
  for (std::size_t i = 0; i < host_count; ++i) {
    for (const char* formula : {"powerapi-hpc", "powerspy"}) {
      for (const auto& row : memory[i]->series(formula)) {
        out << 'h' << i << ',' << formula << ',' << row.timestamp << ','
            << hex_double(row.watts) << '\n';
      }
    }
  }
  for (const char* formula : {"powerapi-hpc", "powerspy"}) {
    for (const auto& row : fleet_memory.group_series(formula, "(fleet)")) {
      out << "fleet," << formula << ',' << row.timestamp << ',' << hex_double(row.watts)
          << '\n';
    }
  }
  return out.str();
}

TEST(FeatureBatch, EverySliceLayoutMatchesManual) {
  // Heterogeneous core/SMT counts share a slice, slices split the fleet
  // unevenly (5 hosts over 2 or 4 slices), and a slice count can exceed
  // the host count: every layout must reproduce kManual bit for bit, host
  // series and fleet rows alike.
  for (const std::size_t hosts : {1u, 2u, 5u, 8u, 33u}) {
    const std::string manual =
        run_sliced_fleet(hosts, actors::ActorSystem::Mode::kManual, 0);
    ASSERT_FALSE(manual.empty());
    for (const std::size_t workers : {0u, 1u, 3u}) {
      EXPECT_EQ(run_sliced_fleet(hosts, actors::ActorSystem::Mode::kThreaded, workers),
                manual)
          << hosts << " hosts, " << workers << " workers";
    }
  }
}

}  // namespace
}  // namespace powerapi::api
