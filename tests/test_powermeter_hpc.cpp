// Tests for the measurement layer: the simulated PowerSpy meter, the RAPL
// MSR emulation, the HPC event vocabulary and the perf_event_open backend.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "hpc/events.h"
#include "hpc/perf_backend.h"
#include "powermeter/powerspy.h"
#include "powermeter/rapl.h"
#include "util/stats.h"

namespace powerapi {
namespace {

using util::ms_to_ns;
using util::seconds_to_ns;

// --- PowerSpy ---

TEST(PowerSpy, MeasuresAverageTruePowerWithBoundedNoise) {
  double energy = 0.0;
  util::TimestampNs now = 0;
  powermeter::PowerSpy::Options options;
  options.noise_sigma_watts = 0.2;
  options.smoothing_alpha = 1.0;  // No EMA: test the raw chain.
  options.drop_probability = 0.0;
  powermeter::PowerSpy meter([&] { return energy; }, [&] { return now; }, util::Rng(1),
                             options);
  EXPECT_FALSE(meter.sample().has_value());  // Priming call.

  util::RunningStats stats;
  for (int i = 0; i < 500; ++i) {
    now += ms_to_ns(100);
    energy += 40.0 * 0.1;  // Constant 40 W.
    const auto s = meter.sample();
    ASSERT_TRUE(s.has_value());
    stats.add(s->watts);
  }
  EXPECT_NEAR(stats.mean(), 40.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 0.2, 0.05);
}

TEST(PowerSpy, QuantizesToAdcStep) {
  double energy = 0.0;
  util::TimestampNs now = 0;
  powermeter::PowerSpy::Options options;
  options.noise_sigma_watts = 0.0;
  options.quantum_watts = 0.5;
  options.smoothing_alpha = 1.0;
  options.drop_probability = 0.0;
  powermeter::PowerSpy meter([&] { return energy; }, [&] { return now; }, util::Rng(2),
                             options);
  meter.sample();
  now += ms_to_ns(100);
  energy += 33.33 * 0.1;
  const auto s = meter.sample();
  ASSERT_TRUE(s.has_value());
  EXPECT_DOUBLE_EQ(std::fmod(s->watts, 0.5), 0.0);
  EXPECT_NEAR(s->watts, 33.5, 0.26);
}

TEST(PowerSpy, DropsSamplesAtConfiguredRate) {
  double energy = 0.0;
  util::TimestampNs now = 0;
  powermeter::PowerSpy::Options options;
  options.drop_probability = 0.3;
  powermeter::PowerSpy meter([&] { return energy; }, [&] { return now; }, util::Rng(3),
                             options);
  meter.sample();
  int delivered = 0;
  for (int i = 0; i < 1000; ++i) {
    now += ms_to_ns(10);
    energy += 0.1;
    if (meter.sample()) ++delivered;
  }
  EXPECT_NEAR(delivered, 700, 60);
}

TEST(PowerSpy, RejectsBadConfig) {
  auto e = [] { return 0.0; };
  auto t = [] { return util::TimestampNs{0}; };
  powermeter::PowerSpy::Options options;
  options.smoothing_alpha = 0.0;
  EXPECT_THROW(powermeter::PowerSpy(e, t, util::Rng(1), options), std::invalid_argument);
  EXPECT_THROW(powermeter::PowerSpy(nullptr, t, util::Rng(1)), std::invalid_argument);
}

TEST(PowerSpy, RecordTraceCollectsSeries) {
  double energy = 0.0;
  util::TimestampNs now = 0;
  powermeter::PowerSpy::Options options;
  options.drop_probability = 0.0;
  powermeter::PowerSpy meter([&] { return energy; }, [&] { return now; }, util::Rng(4),
                             options);
  const auto trace = powermeter::record_trace(meter, ms_to_ns(100), seconds_to_ns(1),
                                              [&](util::DurationNs dt) {
                                                now += dt;
                                                energy += 25.0 * util::ns_to_seconds(dt);
                                              });
  EXPECT_EQ(trace.size(), 10u);
  for (const auto& s : trace) EXPECT_NEAR(s.watts, 25.0, 2.0);
}

// --- RAPL ---

TEST(Rapl, ReportsPackageEnergyInUnits) {
  double energy = 0.0;
  util::TimestampNs now = 0;
  powermeter::RaplMsr msr([&] { return energy; }, [&] { return now; });
  const auto r0 = msr.read_energy_status();
  energy += 10.0;  // 10 J.
  now += powermeter::RaplMsr::kUpdatePeriodNs;
  const auto r1 = msr.read_energy_status();
  EXPECT_NEAR(powermeter::RaplMsr::energy_between(r0, r1), 10.0, 1e-3);
}

TEST(Rapl, CounterWrapsAround) {
  // 2^32 units = 65536 J; wrap must still difference correctly.
  const std::uint32_t before = 0xffffff00u;
  const std::uint32_t after = 0x00000100u;
  EXPECT_NEAR(powermeter::RaplMsr::energy_between(before, after),
              512 * powermeter::RaplMsr::kJoulesPerUnit, 1e-9);
}

TEST(Rapl, QuantizesUpdatesToMsrPeriod) {
  double energy = 0.0;
  util::TimestampNs now = 0;
  powermeter::RaplMsr msr([&] { return energy; }, [&] { return now; });
  const auto r0 = msr.read_energy_status();
  energy += 5.0;
  now += powermeter::RaplMsr::kUpdatePeriodNs / 2;  // Within the same period.
  EXPECT_EQ(msr.read_energy_status(), r0);          // Cached value.
  now += powermeter::RaplMsr::kUpdatePeriodNs;
  EXPECT_NE(msr.read_energy_status(), r0);
}

TEST(Rapl, UnavailableOnOldArchitectures) {
  powermeter::RaplMsr msr([] { return 0.0; }, [] { return util::TimestampNs{0}; },
                          /*available=*/false);
  EXPECT_FALSE(msr.available());
  EXPECT_THROW(msr.read_energy_status(), std::runtime_error);
}

// --- HPC events ---

TEST(Events, NamesRoundTrip) {
  for (const hpc::EventId id : hpc::all_events()) {
    const auto name = hpc::to_string(id);
    const auto back = hpc::event_from_string(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, id);
  }
  EXPECT_FALSE(hpc::event_from_string("flux-capacitor").has_value());
}

TEST(Events, PaperEventsAreTheThreeGenericCounters) {
  const auto events = hpc::paper_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], hpc::EventId::kInstructions);
  EXPECT_EQ(events[1], hpc::EventId::kCacheReferences);
  EXPECT_EQ(events[2], hpc::EventId::kCacheMisses);
}

TEST(Events, EventValuesFromBlockAndDelta) {
  simcpu::CounterBlock block;
  block.instructions = 100;
  block.cache_misses = 7;
  const auto values = hpc::EventValues::from_block(block);
  EXPECT_EQ(values[hpc::EventId::kInstructions], 100u);
  EXPECT_EQ(values[hpc::EventId::kCacheMisses], 7u);

  simcpu::CounterBlock later = block;
  later.instructions = 150;
  const auto delta = hpc::EventValues::from_block(later).delta_since(values);
  EXPECT_EQ(delta[hpc::EventId::kInstructions], 50u);
  EXPECT_EQ(delta[hpc::EventId::kCacheMisses], 0u);
}

// --- Perf backend (graceful behavior regardless of kernel permissions) ---

TEST(PerfBackend, NegativePidIsRejected) {
  hpc::PerfBackend backend;
  const auto r = backend.read(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_message().find("monitor a pid instead"), std::string::npos);
}

TEST(PerfBackend, SelfReadWorksOrFailsGracefully) {
  hpc::PerfBackend backend;
  const auto r = backend.read(0);  // 0 = calling process.
  if (hpc::PerfBackend::available()) {
    ASSERT_TRUE(r.ok());
    // Burn some cycles, expect the counter to move.
    double sink = 0;
    for (int i = 0; i < 2'000'000; ++i) sink += i * 0.5;
    ASSERT_GT(sink, 0.0);  // Keep the loop observable.
    const auto r2 = backend.read(0);
    ASSERT_TRUE(r2.ok());
    EXPECT_GT(r2.value()[hpc::EventId::kInstructions],
              r.value()[hpc::EventId::kInstructions]);
  } else {
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.error_message().empty());
  }
}

}  // namespace
}  // namespace powerapi
