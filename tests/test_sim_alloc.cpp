// Zero-allocation gate for the steady state: after a warm-up, one kernel
// quantum (os::System::tick → simcpu::Machine::tick →
// CacheHierarchy::tick_into), one monitored host-tick (advance, sensors,
// formulas, calibration, aggregation, a callback reporter), one fleet
// fold (FleetSum), one actor-system drain, idle or after a tell, and one
// collector frame (decode → BusBridge → bus → drain) must not touch the
// heap. This binary replaces the global
// operator new/delete with counting wrappers over malloc/free, which is
// why it is its own executable: no other suite shares the hook.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "actors/event_bus.h"
#include "net/bus_bridge.h"
#include "net/wire.h"
#include "os/scheduler.h"
#include "os/system.h"
#include "powerapi/fleet_monitor.h"
#include "powerapi/reporters.h"
#include "util/rng.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace powerapi::os {
namespace {

/// The end-to-end fleet benchmark's host mix: four apps cycling through a
/// CPU-bound batch job, a bursty web server and an LLC-overflowing cache
/// scan, plus the background daemon.
std::unique_ptr<System> mixed_host(simcpu::CpuSpec spec, System::Options options = {}) {
  const util::Rng rng(7);
  auto host = std::make_unique<System>(std::move(spec), std::move(options));
  for (std::size_t app = 0; app < 4; ++app) {
    switch (app % 3) {
      case 0:
        host->spawn("batch", std::make_unique<workloads::SteadyBehavior>(
                                 workloads::cpu_stress(0.85), 0));
        break;
      case 1:
        host->spawn("web", std::make_unique<workloads::BurstyBehavior>(
                               workloads::mixed_stress(0.3, 8.0 * 1024 * 1024),
                               util::ms_to_ns(20), util::ms_to_ns(30), 0,
                               rng.fork(10 + app)));
        break;
      default:
        host->spawn("cache", std::make_unique<workloads::SteadyBehavior>(
                                 workloads::memory_stress(24.0 * 1024 * 1024), 0));
        break;
    }
  }
  host->spawn("kdaemon", workloads::make_background_daemon(rng.fork(1)));
  return host;
}

System::Options with_scheduler(std::unique_ptr<Scheduler> scheduler) {
  System::Options options;
  options.scheduler = std::move(scheduler);
  return options;
}

/// Heap allocations made by 1000 quanta after a 1 s warm-up.
std::size_t allocations_per_1000_ticks(System& host) {
  host.run_for(util::seconds_to_ns(1.0));
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) host.tick();
  return g_allocations.load() - before;
}

TEST(SimulatorAllocations, CounterSeesAllocations) {
  const std::size_t before = g_allocations.load();
  auto probe = std::make_unique<int>(1);
  EXPECT_EQ(g_allocations.load() - before, 1u);
}

TEST(SimulatorAllocations, RoundRobinQuantumAllocatesNothing) {
  auto host = mixed_host(simcpu::i3_2120(),
                         with_scheduler(std::make_unique<RoundRobinScheduler>()));
  EXPECT_EQ(allocations_per_1000_ticks(*host), 0u);
}

TEST(SimulatorAllocations, PackQuantumAllocatesNothing) {
  auto host = mixed_host(simcpu::i3_2120(), with_scheduler(std::make_unique<PackScheduler>()));
  EXPECT_EQ(allocations_per_1000_ticks(*host), 0u);
}

TEST(SimulatorAllocations, SpreadQuantumAllocatesNothing) {
  auto host =
      mixed_host(simcpu::i3_2120(), with_scheduler(std::make_unique<SpreadScheduler>()));
  EXPECT_EQ(allocations_per_1000_ticks(*host), 0u);
}

TEST(SimulatorAllocations, BigLittleQuantumAllocatesNothing) {
  auto host = mixed_host(simcpu::big_little());
  EXPECT_EQ(allocations_per_1000_ticks(*host), 0u);
}

TEST(SimulatorAllocations, TurboQuantumAllocatesNothing) {
  const simcpu::CpuSpec spec = simcpu::i7_2600();
  auto host = mixed_host(spec);
  EXPECT_EQ(allocations_per_1000_ticks(*host), 0u);
  // The mix leaves cores idle, so the clock sits in a turbo bin.
  EXPECT_GT(host->machine().last_effective_frequency_hz(), spec.max_frequency_hz());
}

TEST(SimulatorAllocations, ParkedCoreQuantumAllocatesNothing) {
  auto host = mixed_host(simcpu::i3_2120());
  ASSERT_EQ(host->set_parked_cores(1), 1u);
  EXPECT_EQ(allocations_per_1000_ticks(*host), 0u);
}

}  // namespace
}  // namespace powerapi::os

namespace powerapi::api {
namespace {

/// A powerapi-hpc model over the i3-2120 frequency ladder.
model::CpuPowerModel ladder_model() {
  std::vector<model::FrequencyFormula> formulas;
  for (const double hz : simcpu::i3_2120().frequencies_hz) {
    model::FrequencyFormula f;
    f.frequency_hz = hz;
    f.events = {hpc::EventId::kInstructions, hpc::EventId::kCacheReferences,
                hpc::EventId::kCacheMisses};
    f.coefficients = {2.2e-9 * hz / 3.3e9, 2.5e-8, 1.9e-7};
    formulas.push_back(std::move(f));
  }
  return model::CpuPowerModel(31.0, std::move(formulas));
}

/// Heap allocations of a one-host FleetMonitor over 1000 steady-state 1 ms
/// ticks after a 1 s warm-up: the powerapi-hpc formula, PowerSpy,
/// calibration and a callback reporter, every process monitored. The
/// calibrator may refit during the warm-up, never in the window (the refit
/// floor is a minute): a refit builds a new model.
std::size_t monitored_allocations_per_1000_ticks(AggregationDimension dimension) {
  auto host = os::mixed_host(simcpu::i3_2120());
  FleetMonitor::Options options;
  options.mode = actors::ActorSystem::Mode::kManual;
  FleetMonitor fleet(options);
  PipelineSpec spec;
  spec.period = util::ms_to_ns(1);
  spec.dimension = dimension;
  spec.model = ladder_model();
  spec.with_calibration = true;
  spec.calibration.min_refit_interval = util::seconds_to_ns(60);
  const std::size_t index = fleet.add_host(*host, std::move(spec));
  fleet.monitor_all(index);
  std::size_t rows = 0;
  fleet.add_callback_reporter(index, [&rows](const AggregatedPower&) { ++rows; });
  const auto& registry = fleet.pipeline(index).registry();

  fleet.run_for(util::seconds_to_ns(1.0));
  const std::uint64_t version = registry->version();
  const std::size_t rows_before = rows;
  const std::size_t before = g_allocations.load();
  fleet.run_for(util::ms_to_ns(1000));
  const std::size_t allocations = g_allocations.load() - before;
  EXPECT_EQ(registry->version(), version) << "a refit landed inside the window";
  EXPECT_GE(rows - rows_before, 990u) << "the window must monitor every tick";
  return allocations;
}

TEST(MonitoringAllocations, MachineRowTickAllocatesNothing) {
  EXPECT_EQ(monitored_allocations_per_1000_ticks(AggregationDimension::kTimestamp), 0u);
}

TEST(MonitoringAllocations, PerPidTickAllocatesNothing) {
  EXPECT_EQ(monitored_allocations_per_1000_ticks(AggregationDimension::kPid), 0u);
}

TEST(MonitoringAllocations, FleetSumFoldAllocatesNothing) {
  // 32 hosts report two formulas per step, each row dropped with
  // probability 1%; a step's completions close the buckets the drops left
  // partial. The closed rows go to a reserved vector the caller empties.
  constexpr std::size_t kHosts = 32;
  const std::array<std::string, 2> formulas = {"powerapi-hpc", "powerspy"};
  util::Rng rng(11);
  FleetSum sum;
  std::vector<AggregatedPower> out;
  out.reserve(64);
  AggregatedPower row;
  row.pid = kMachinePid;
  const auto step = [&](std::int64_t t) {
    for (std::size_t h = 0; h < kHosts; ++h) {
      for (const std::string& formula : formulas) {
        if (rng.bernoulli(0.01)) continue;
        row.formula = formula;
        row.timestamp = t;
        row.watts = 10.0 + static_cast<double>(h);
        sum.add(row, kHosts, out);
      }
    }
    out.clear();
  };
  std::int64_t t = 0;
  for (; t < 1000; ++t) step(t);
  const std::size_t before = g_allocations.load();
  for (; t < 11000; ++t) step(t);
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

}  // namespace
}  // namespace powerapi::api

namespace powerapi::actors {
namespace {

class Sink final : public Actor {
 public:
  void receive(Envelope&) override { ++received; }
  std::size_t received = 0;
};

TEST(ActorAllocations, IdleDrainAllocatesNothing) {
  // FleetMonitor::settle() drains the fleet's actors after every step, on
  // every workload, whether or not any message is waiting.
  ActorSystem system;
  system.spawn_as<Sink>("sink");
  system.drain();
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) system.drain();
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(ActorAllocations, SteadyTellAndDrainAllocateNothing) {
  ActorSystem system;
  auto owned = std::make_unique<Sink>();
  const Sink& sink = *owned;
  const ActorRef ref = system.spawn("sink", std::move(owned));
  for (int i = 0; i < 100; ++i) {
    ref.tell(i);
    system.drain();
  }
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    ref.tell(i);
    system.drain();
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(sink.received, 1100u);
}

}  // namespace
}  // namespace powerapi::actors

namespace powerapi::net {
namespace {

/// Feeds a decoder's frames to a bridge as connection 1, as a
/// CollectorServer connection does.
struct BridgeFeed final : WireSink {
  explicit BridgeFeed(BusBridge& bridge_in) : bridge(bridge_in) {}
  void on_hello(std::string_view agent_id, std::uint8_t version) override {
    bridge.on_hello(1, agent_id, version);
  }
  void on_rows(std::span<const api::AggregatedPower> rows) override {
    bridge.on_rows(1, rows);
  }
  void on_metrics_snapshot(std::int64_t, const obs::MetricsSnapshot&) override {}
  void on_spans(std::int64_t, const std::vector<RemoteSpan>&) override {}
  void on_bye() override {}
  BusBridge& bridge;
};

TEST(CollectorAllocations, SteadyFrameDecodeBridgeAndDrainAllocateNothing) {
  // remote_1ms's collector path: a frame of 16 per-process rows, decoded,
  // bridged as one RowBatch onto a per-agent topic (one reporter) and the
  // merged topic (two reporters: a fan-out), then drained. Frames are
  // encoded up front; the window decodes, publishes and drains only.
  constexpr int kFrames = 1100;
  constexpr int kWarmup = 100;
  constexpr int kRowsPerFrame = 16;
  WireEncoder encoder;
  std::vector<std::vector<std::uint8_t>> frames;
  frames.push_back(WireEncoder::hello_frame("h0"));
  for (int f = 0; f < kFrames; ++f) {
    for (int r = 0; r < kRowsPerFrame; ++r) {
      api::AggregatedPower row;
      row.timestamp = util::ms_to_ns(f);
      row.pid = r < 2 ? api::kMachinePid : 100 + r;
      row.formula = r % 2 == 0 ? "powerapi-hpc-per-frequency" : "powerspy";
      row.watts = 10.0 + r;
      encoder.add(row);
    }
    frames.push_back(encoder.take_batch_frame());
  }

  actors::ActorSystem system;
  actors::EventBus bus(system);
  BusBridge bridge(bus);
  std::size_t rows = 0;
  const auto count = [&rows](const api::AggregatedPower&) { ++rows; };
  bus.subscribe(bridge.aggregated_topic(),
                system.spawn_as<api::CallbackReporter>("merged-a", count));
  bus.subscribe(bridge.aggregated_topic(),
                system.spawn_as<api::CallbackReporter>("merged-b", count));
  bus.subscribe("remote/h0/power:aggregated",
                system.spawn_as<api::CallbackReporter>("agent", count));
  FrameDecoder decoder;
  BridgeFeed feed(bridge);
  bridge.on_connect(1);

  const auto step = [&](const std::vector<std::uint8_t>& frame) {
    ASSERT_TRUE(decoder.consume(frame.data(), frame.size(), feed)) << decoder.error();
    system.drain();
  };
  std::size_t next = 0;
  for (; next <= kWarmup; ++next) step(frames[next]);
  const std::size_t before = g_allocations.load();
  for (; next < frames.size(); ++next) step(frames[next]);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(rows, std::size_t{3} * kFrames * kRowsPerFrame);
}

}  // namespace
}  // namespace powerapi::net
