// FleetMonitor: N hosts on one actor system. The load-bearing property is
// host-level isolation — a host monitored inside a fleet (threaded, hosts
// stepped on parallel slices) or under a one-host PowerMeter must produce
// exactly the rows of an identically constructed host's Pipeline stepped by
// hand — and the fleet dimension, folded in host order, must not depend on
// threading.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "os/system.h"
#include "powerapi/fleet_monitor.h"
#include "powerapi/power_meter.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

namespace powerapi::api {
namespace {

using util::ms_to_ns;
using util::seconds_to_ns;

model::CpuPowerModel fleet_model() {
  std::vector<model::FrequencyFormula> formulas;
  for (const double hz : simcpu::i3_2120().frequencies_hz) {
    model::FrequencyFormula f;
    f.frequency_hz = hz;
    f.events = {hpc::EventId::kInstructions, hpc::EventId::kCacheMisses};
    const double scale = hz / 3.3e9;
    f.coefficients = {2.2e-9 * scale, 1.6e-7};
    formulas.push_back(std::move(f));
  }
  return model::CpuPowerModel(31.0, std::move(formulas));
}

/// Deterministic host construction keyed by index: every call with the same
/// index yields a bit-identical simulated machine and workload.
std::unique_ptr<os::System> make_host(std::size_t index) {
  auto host = std::make_unique<os::System>(simcpu::i3_2120());
  const double duty = 0.2 + 0.1 * static_cast<double>(index % 8);
  host->spawn("app", std::make_unique<workloads::SteadyBehavior>(
                         workloads::cpu_stress(duty), 0));
  host->spawn("mem", std::make_unique<workloads::SteadyBehavior>(
                         workloads::memory_stress(4e6 * (1 + index % 3)), 0));
  return host;
}

PipelineSpec fleet_spec() {
  PipelineSpec spec;
  spec.model = fleet_model();
  return spec;
}

/// Slices a threaded fleet runs: FleetMonitor never runs more than CPUs.
std::size_t threaded_slices(std::size_t hosts, std::size_t workers) {
  const std::size_t cpus = std::max(1u, std::thread::hardware_concurrency());
  return std::min({hosts, workers + 1, cpus});
}

/// A make_host() machine whose next advance() throws or stalls when armed.
class ScriptedHost final : public os::MonitorableHost {
 public:
  explicit ScriptedHost(std::size_t index) : inner_(make_host(index)) {}

  // Set on the caller between steps; the next advance() acts and clears it.
  bool fail_next_advance = false;
  bool stall_next_advance = false;  ///< Sleeps 300 us, then advances.

  std::vector<os::Pid> pids() const override { return inner_->pids(); }
  std::optional<os::ProcStat> proc_stat(os::Pid pid) const override {
    return inner_->proc_stat(pid);
  }
  os::SystemStat system_stat() const override { return inner_->system_stat(); }
  util::TimestampNs now_ns() const override { return inner_->now_ns(); }
  const simcpu::CounterBlock& machine_counters() const override {
    return inner_->machine_counters();
  }
  std::size_t hw_threads() const override { return inner_->hw_threads(); }
  double total_energy_joules() const override { return inner_->total_energy_joules(); }
  double package_energy_joules() const override {
    return inner_->package_energy_joules();
  }
  const os::IoTotals& io_totals() const override { return inner_->io_totals(); }
  const periph::DiskModel* disk() const override { return inner_->disk(); }
  const periph::NicModel* nic() const override { return inner_->nic(); }
  void gather_counter_lanes(std::span<const os::Pid> targets,
                            simcpu::CounterLanes& out) const override {
    inner_->gather_counter_lanes(targets, out);
  }
  void advance(util::DurationNs duration) override {
    if (fail_next_advance) {
      fail_next_advance = false;
      throw std::runtime_error("advance failed");
    }
    if (stall_next_advance) {
      stall_next_advance = false;
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    inner_->advance(duration);
  }

 private:
  std::unique_ptr<os::System> inner_;
};

void expect_same_rows(const std::vector<AggregatedPower>& actual,
                      const std::vector<AggregatedPower>& expected, const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].formula, expected[i].formula) << what << " row " << i;
    EXPECT_EQ(actual[i].timestamp, expected[i].timestamp) << what << " row " << i;
    EXPECT_EQ(actual[i].pid, expected[i].pid) << what << " row " << i;
    EXPECT_EQ(actual[i].watts, expected[i].watts) << what << " row " << i;
  }
}

/// The reference that shares no driver code with FleetMonitor: one host's
/// Pipeline stepped by hand (advance by one period, then run the due ticks)
/// and finished, on a bus of its own.
std::vector<AggregatedPower> hand_driven_rows(std::size_t index, util::DurationNs duration) {
  auto host = make_host(index);
  actors::ActorSystem actors(actors::ActorSystem::Mode::kManual);
  actors::EventBus bus(actors);
  Pipeline pipeline(bus, *host, fleet_spec(), "h0/");
  auto& memory = pipeline.add_memory_reporter();
  const util::DurationNs period = pipeline.ticker().period();
  for (util::DurationNs advanced = 0; advanced < duration; advanced += period) {
    host->advance(std::min(period, duration - advanced));
    pipeline.run_due_ticks();
  }
  pipeline.finish();
  return memory.all();
}

TEST(FleetMonitor, ThreadedHostsMatchStandaloneManualMetersExactly) {
  // Both drivers against a hand-driven Pipeline: a bug in FleetMonitor's
  // stepping, finish sequencing or fleet tap that every slice count shares
  // (a one-host meter runs the same code on one slice) shows here too.
  constexpr std::size_t kHosts = 8;
  constexpr util::DurationNs kDuration = seconds_to_ns(2);

  // Fleet run: 8 hosts advanced concurrently on parallel slices, with the
  // fleet dimension consumed so every host's fleet tap is set.
  std::vector<std::unique_ptr<os::System>> hosts;
  for (std::size_t i = 0; i < kHosts; ++i) hosts.push_back(make_host(i));
  FleetMonitor::Options options;
  options.mode = actors::ActorSystem::Mode::kThreaded;
  options.workers = 4;
  FleetMonitor fleet(options);
  std::vector<MemoryReporter*> fleet_memory;
  for (auto& host : hosts) {
    const std::size_t index = fleet.add_host(*host, fleet_spec());
    fleet_memory.push_back(&fleet.add_memory_reporter(index));
  }
  fleet.add_fleet_reporter();
  fleet.run_for(kDuration);
  fleet.finish();

  for (std::size_t i = 0; i < kHosts; ++i) {
    const std::vector<AggregatedPower> reference = hand_driven_rows(i, kDuration);
    ASSERT_GT(reference.size(), 3u) << "host " << i;
    const std::string host = "host " + std::to_string(i);
    expect_same_rows(fleet_memory[i]->all(), reference, (host + " in the fleet").c_str());

    // The same host alone under a one-host meter.
    auto solo_host = make_host(i);
    PowerMeter meter(*solo_host, fleet_model());
    auto& solo_memory = meter.add_memory_reporter();
    meter.run_for(kDuration);
    meter.finish();
    expect_same_rows(solo_memory.all(), reference, (host + " under a meter").c_str());
  }
}

TEST(FleetMonitor, FleetDimensionSumsMachinePowerAcrossHosts) {
  auto host_a = make_host(0);
  auto host_b = make_host(3);
  FleetMonitor::Options options;
  options.mode = actors::ActorSystem::Mode::kManual;
  FleetMonitor fleet(options);
  const auto a = fleet.add_host(*host_a, fleet_spec());
  const auto b = fleet.add_host(*host_b, fleet_spec());
  auto& mem_a = fleet.add_memory_reporter(a);
  auto& mem_b = fleet.add_memory_reporter(b);
  auto& fleet_mem = fleet.add_fleet_reporter();
  fleet.run_for(seconds_to_ns(1));
  // Attached between two runs: receives the second run's fleet rows.
  auto& late_mem = fleet.add_fleet_reporter();
  fleet.run_for(seconds_to_ns(1));
  fleet.finish();

  // The first run's last timestamp completes only when the second run's
  // first tick arrives, so the late reporter's rows start there.
  std::vector<AggregatedPower> second_run;
  for (const auto& row : fleet_mem.all()) {
    if (row.timestamp >= seconds_to_ns(1)) second_run.push_back(row);
  }
  ASSERT_GT(second_run.size(), 3u);
  expect_same_rows(late_mem.all(), second_run, "late fleet reporter");
  for (const auto& row : late_mem.all()) EXPECT_EQ(row.group, "(fleet)");

  std::map<util::TimestampNs, double> a_watts, b_watts;
  for (const auto& row : mem_a.series("powerspy")) a_watts[row.timestamp] = row.watts;
  for (const auto& row : mem_b.series("powerspy")) b_watts[row.timestamp] = row.watts;

  std::size_t fleet_rows = 0;
  for (const auto& row : fleet_mem.all()) {
    EXPECT_EQ(row.group, "(fleet)");
    EXPECT_EQ(row.pid, kMachinePid);
    if (row.formula != "powerspy") continue;
    ++fleet_rows;
    ASSERT_TRUE(a_watts.count(row.timestamp)) << "t=" << row.timestamp;
    ASSERT_TRUE(b_watts.count(row.timestamp)) << "t=" << row.timestamp;
    EXPECT_NEAR(row.watts, a_watts[row.timestamp] + b_watts[row.timestamp], 1e-9);
  }
  EXPECT_GT(fleet_rows, 3u);
  // Every timestamp both hosts reported shows up in the fleet dimension.
  EXPECT_EQ(fleet_rows, a_watts.size());
}

TEST(FleetMonitor, ThreadedFleetRowsMatchManualBitForBit) {
  const auto run = [](actors::ActorSystem::Mode mode) {
    constexpr std::size_t kHosts = 7;  // Uneven over 4 slices.
    std::vector<std::unique_ptr<os::System>> hosts;
    for (std::size_t i = 0; i < kHosts; ++i) hosts.push_back(make_host(i));
    FleetMonitor::Options options;
    options.mode = mode;
    options.workers = 3;
    FleetMonitor fleet(options);
    for (auto& host : hosts) fleet.add_host(*host, fleet_spec());
    auto& fleet_mem = fleet.add_fleet_reporter();
    fleet.run_for(seconds_to_ns(2));
    fleet.finish();
    return fleet_mem.all();
  };
  const auto manual = run(actors::ActorSystem::Mode::kManual);
  const auto threaded = run(actors::ActorSystem::Mode::kThreaded);
  ASSERT_GT(manual.size(), 6u);
  // Exact: the fold sums hosts in host order at every slice count.
  expect_same_rows(threaded, manual, "fleet");
  for (const auto& row : threaded) EXPECT_EQ(row.group, "(fleet)");
}

TEST(FleetMonitor, ManualModeIsDeterministicAcrossRuns) {
  auto run = [] {
    auto host_a = make_host(1);
    auto host_b = make_host(5);
    FleetMonitor::Options options;
    options.mode = actors::ActorSystem::Mode::kManual;
    FleetMonitor fleet(options);
    fleet.add_host(*host_a, fleet_spec());
    fleet.add_host(*host_b, fleet_spec());
    auto& fleet_mem = fleet.add_fleet_reporter();
    fleet.run_for(seconds_to_ns(2));
    fleet.finish();
    return MemoryReporter::watts_of(fleet_mem.group_series("powerapi-hpc", "(fleet)"));
  };
  const auto first = run();
  const auto second = run();
  ASSERT_GT(first.size(), 3u);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i], second[i]) << "row " << i;
  }
}

TEST(FleetMonitor, PerHostMonitoringAndNamespacesStayIsolated) {
  auto host_a = make_host(2);
  auto host_b = make_host(2);  // Identical twin, different pids monitored.
  const auto pids_a = host_a->pids();
  ASSERT_GE(pids_a.size(), 2u);

  FleetMonitor::Options options;
  options.mode = actors::ActorSystem::Mode::kManual;
  FleetMonitor fleet(options);
  PipelineSpec per_pid = fleet_spec();
  per_pid.dimension = AggregationDimension::kPid;
  const auto a = fleet.add_host(*host_a, per_pid);
  const auto b = fleet.add_host(*host_b, per_pid);
  EXPECT_EQ(fleet.pipeline(a).topic_namespace(), "h0/");
  EXPECT_EQ(fleet.pipeline(b).topic_namespace(), "h1/");
  auto& mem_a = fleet.add_memory_reporter(a);
  auto& mem_b = fleet.add_memory_reporter(b);
  fleet.monitor(a, {pids_a[0]});  // Host b monitors nothing per-pid.
  fleet.run_for(seconds_to_ns(1));
  fleet.finish();

  EXPECT_GT(mem_a.series("powerapi-hpc", pids_a[0]).size(), 1u);
  // Host b's pipeline never saw host a's monitor() call: only machine rows.
  for (const auto& row : mem_b.all()) EXPECT_EQ(row.pid, kMachinePid);
}

TEST(FleetMonitor, UnconsumedFleetDimensionCountsNoDeadLetter) {
  auto host_a = make_host(0);
  auto host_b = make_host(1);
  FleetMonitor::Options options;
  options.mode = actors::ActorSystem::Mode::kManual;
  FleetMonitor fleet(options);
  PipelineSpec spec = fleet_spec();
  spec.period = ms_to_ns(100);
  fleet.add_host(*host_a, spec);
  fleet.add_host(*host_b, spec);
  fleet.run_for(seconds_to_ns(1));
  fleet.finish();
  EXPECT_EQ(fleet.bus().dead_letter_count(), 0u);
}

TEST(FleetMonitor, BusSubscriberAloneConsumesTheFleetDimension) {
  const auto run = [](bool via_bus) {
    auto host_a = make_host(2);
    auto host_b = make_host(4);
    std::vector<AggregatedPower> bus_rows;  // Outlives the fleet's actors.
    FleetMonitor::Options options;
    options.mode = actors::ActorSystem::Mode::kManual;
    FleetMonitor fleet(options);
    fleet.add_host(*host_a, fleet_spec());
    fleet.add_host(*host_b, fleet_spec());
    MemoryReporter* memory = nullptr;
    if (via_bus) {
      fleet.bus().subscribe("fleet/power:aggregated",
                            fleet.actor_system().spawn_as<CallbackReporter>(
                                "fleet-sink", [&bus_rows](const AggregatedPower& row) {
                                  bus_rows.push_back(row);
                                }));
    } else {
      memory = &fleet.add_fleet_reporter();
    }
    fleet.run_for(seconds_to_ns(2));
    fleet.finish();
    EXPECT_EQ(fleet.bus().dead_letter_count(), 0u);
    return via_bus ? bus_rows : memory->all();
  };
  const auto reporter_rows = run(false);
  ASSERT_GT(reporter_rows.size(), 3u);
  expect_same_rows(run(true), reporter_rows, "bus subscriber");
}

TEST(FleetMonitor, ThrowingBusSubscriberSurfacesFromRunForAndLaterRunsContinue) {
  // A bus-subscribed reporter is an actor the caller drains in settle():
  // when its receive() throws, run_for rethrows, and the rows queued behind
  // the failing one reach it in the next run_for. Only that row is lost.
  auto host_a = make_host(2);
  auto host_b = make_host(4);
  std::vector<AggregatedPower> bus_rows;  // Outlives the fleet's actors.
  bool fail_next_row = false;
  FleetMonitor::Options options;
  options.mode = actors::ActorSystem::Mode::kManual;
  FleetMonitor fleet(options);
  fleet.add_host(*host_a, fleet_spec());
  fleet.add_host(*host_b, fleet_spec());
  const MemoryReporter& reference = fleet.add_fleet_reporter();
  fleet.bus().subscribe("fleet/power:aggregated",
                        fleet.actor_system().spawn_as<CallbackReporter>(
                            "fleet-sink", [&](const AggregatedPower& row) {
                              if (std::exchange(fail_next_row, false)) {
                                throw std::runtime_error("sink failed");
                              }
                              bus_rows.push_back(row);
                            }));
  fleet.run_for(seconds_to_ns(1));
  const std::size_t failed_row = bus_rows.size();
  ASSERT_GT(failed_row, 0u);
  fail_next_row = true;
  EXPECT_THROW(fleet.run_for(seconds_to_ns(1)), std::runtime_error);
  fleet.run_for(seconds_to_ns(1));
  fleet.finish();

  std::vector<AggregatedPower> expected = reference.all();
  ASSERT_GT(expected.size(), failed_row + 1);
  expected.erase(expected.begin() + static_cast<std::ptrdiff_t>(failed_row));
  expect_same_rows(bus_rows, expected, "bus subscriber after a throw");
  EXPECT_EQ(fleet.actor_system().dead_letters(), 0u);
}

TEST(FleetMonitor, SliceThreadFailureRethrowsAndLaterRunsContinue) {
  constexpr std::size_t kHosts = 4;
  std::vector<std::unique_ptr<ScriptedHost>> hosts;
  for (std::size_t i = 0; i < kHosts; ++i) hosts.push_back(std::make_unique<ScriptedHost>(i));
  FleetMonitor::Options options;
  options.mode = actors::ActorSystem::Mode::kThreaded;
  options.workers = 3;
  FleetMonitor fleet(options);
  std::vector<MemoryReporter*> memory;
  for (auto& host : hosts) {
    memory.push_back(&fleet.add_memory_reporter(fleet.add_host(*host, fleet_spec())));
  }
  // A reporter is called directly on its host's slice thread: when it
  // throws, the error takes the same path as a throwing host.
  bool fail_next_row = false;
  fleet.add_callback_reporter(kHosts - 1, [&fail_next_row](const AggregatedPower&) {
    if (!fail_next_row) return;
    fail_next_row = false;
    throw std::runtime_error("reporter failed");
  });
  fleet.run_for(ms_to_ns(500));
  // The last host sits on the last slice: a slice thread whenever there is
  // more than one slice.
  hosts.back()->fail_next_advance = true;
  EXPECT_THROW(fleet.run_for(ms_to_ns(500)), std::runtime_error);
  EXPECT_FALSE(hosts.back()->fail_next_advance);

  std::size_t rows_before = memory.back()->total_rows();
  fleet.run_for(ms_to_ns(500));  // The hand-off still works after a failure.
  EXPECT_GT(memory.back()->total_rows(), rows_before);
  EXPECT_GT(memory.front()->total_rows(), 0u);

  fail_next_row = true;
  EXPECT_THROW(fleet.run_for(ms_to_ns(500)), std::runtime_error);
  EXPECT_FALSE(fail_next_row);

  rows_before = memory.back()->total_rows();
  fleet.run_for(ms_to_ns(500));  // ...and after a reporter failure.
  EXPECT_GT(memory.back()->total_rows(), rows_before);
  // Destruction stops and joins the slice threads.
}

TEST(FleetMonitor, HostAddedAfterRunForRebuildsSlicesAndMatchesManual) {
  struct Output {
    std::vector<std::vector<AggregatedPower>> hosts;
    std::vector<AggregatedPower> fleet;
  };
  const auto run = [](actors::ActorSystem::Mode mode) {
    std::vector<std::unique_ptr<os::System>> hosts;
    for (std::size_t i = 0; i < 5; ++i) hosts.push_back(make_host(i));
    FleetMonitor::Options options;
    options.mode = mode;
    options.workers = 3;
    FleetMonitor fleet(options);
    std::vector<MemoryReporter*> memory;
    auto& fleet_mem = fleet.add_fleet_reporter();
    for (std::size_t i = 0; i < 2; ++i) {
      memory.push_back(&fleet.add_memory_reporter(fleet.add_host(*hosts[i], fleet_spec())));
    }
    fleet.run_for(seconds_to_ns(1));
    for (std::size_t i = 2; i < hosts.size(); ++i) {
      memory.push_back(&fleet.add_memory_reporter(fleet.add_host(*hosts[i], fleet_spec())));
    }
    fleet.run_for(seconds_to_ns(2));
    fleet.finish();
    Output out;
    for (const MemoryReporter* m : memory) out.hosts.push_back(m->all());
    out.fleet = fleet_mem.all();
    return out;
  };
  const Output manual = run(actors::ActorSystem::Mode::kManual);
  const Output threaded = run(actors::ActorSystem::Mode::kThreaded);
  ASSERT_EQ(threaded.hosts.size(), manual.hosts.size());
  for (std::size_t i = 0; i < manual.hosts.size(); ++i) {
    // Late hosts ran only the second run_for: the rebuilt layout reached them.
    ASSERT_GT(manual.hosts[i].size(), 3u) << "host " << i;
    expect_same_rows(threaded.hosts[i], manual.hosts[i], "host");
  }
  ASSERT_GT(manual.fleet.size(), 3u);
  expect_same_rows(threaded.fleet, manual.fleet, "fleet");
}

TEST(FleetMonitor, OneStepRunsThroughSpinAndParkMatchManualBitForBit) {
  constexpr std::size_t kHosts = 7;
  constexpr std::size_t kWorkers = 3;
  constexpr std::uint64_t kSteps = 5000;
  struct Output {
    std::vector<AggregatedPower> fleet;
    double parks = 0.0;
    std::uint64_t waits = 0;
  };
  const auto run = [](actors::ActorSystem::Mode mode) {
    std::vector<std::unique_ptr<ScriptedHost>> hosts;
    for (std::size_t i = 0; i < kHosts; ++i) hosts.push_back(std::make_unique<ScriptedHost>(i));
    obs::Observability obs;
    FleetMonitor::Options options;
    options.mode = mode;
    options.workers = kWorkers;
    options.observability = &obs;
    FleetMonitor fleet(options);
    PipelineSpec spec = fleet_spec();
    spec.period = ms_to_ns(1);
    for (auto& host : hosts) fleet.add_host(*host, spec);
    auto& fleet_mem = fleet.add_fleet_reporter();
    std::uint64_t step = 0;
    for (std::uint64_t i = 0; i < kSteps; ++i) {
      fleet.run_for(ms_to_ns(1), [&](util::DurationNs) {
        ++step;
        // A long serial gap now and then: the slices park instead of spin.
        if (step % 100 == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
        // A slow host on the last slice: the caller outwaits its spin and parks.
        if (step % 100 == 50) hosts.back()->stall_next_advance = true;
      });
    }
    const obs::MetricsSnapshot metrics = fleet.observability()->metrics.snapshot();
    fleet.finish();
    Output out;
    out.fleet = fleet_mem.all();
    out.parks = metrics.value_of("fleet.slice_parks");
    const obs::MetricValue* waits = metrics.find("fleet.slice_wait_ns");
    out.waits = waits == nullptr ? 0 : waits->hist.count;
    return out;
  };
  const Output manual = run(actors::ActorSystem::Mode::kManual);
  const Output threaded = run(actors::ActorSystem::Mode::kThreaded);
  ASSERT_GT(manual.fleet.size(), kSteps);
  expect_same_rows(threaded.fleet, manual.fleet, "fleet");

  // One slice: no hand-off, nothing recorded.
  EXPECT_EQ(manual.parks, 0.0);
  EXPECT_EQ(manual.waits, 0u);
  const std::size_t slices = threaded_slices(kHosts, kWorkers);
  if (slices > 1) {
    EXPECT_EQ(threaded.waits, kSteps);  // The caller's wait, once per step.
    EXPECT_GE(threaded.parks, 1.0);     // The sleeps forced parks.
    EXPECT_LE(threaded.parks, static_cast<double>(kSteps * (slices - 1)));
  }
}

TEST(FleetMonitor, RunForAfterFinishThrows) {
  FleetMonitor::Options options;
  options.mode = actors::ActorSystem::Mode::kManual;
  FleetMonitor fleet(options);
  auto host = make_host(0);
  fleet.add_host(*host, fleet_spec());
  fleet.run_for(ms_to_ns(500));
  fleet.finish();
  EXPECT_THROW(fleet.run_for(ms_to_ns(500)), std::logic_error);
}

}  // namespace
}  // namespace powerapi::api
