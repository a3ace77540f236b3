// A monitorable host whose every observation the test sets directly: the
// cumulative HPC counters of the machine scope and of each process, the IO
// totals and the clock. A sensor's input is then exact, so its rates can be
// asserted with EXPECT_EQ / EXPECT_DOUBLE_EQ rather than NEAR. Shared by the
// sensor tests (test_pipeline, test_feature_batch, test_periph_io).
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "os/monitorable_host.h"
#include "periph/disk.h"
#include "periph/nic.h"
#include "simcpu/counter_lanes.h"
#include "simcpu/counters.h"

namespace powerapi::testing {

class ScriptedHost final : public os::MonitorableHost {
 public:
  ScriptedHost() : disk_(periph::DiskParams{}), nic_(periph::NicParams{}) {}

  /// Cumulative counters of the machine scope.
  simcpu::CounterBlock machine;
  /// Cumulative counters of each live process; a pid missing here is dead.
  std::map<os::Pid, simcpu::CounterBlock> processes;
  os::IoTotals io;
  util::TimestampNs now = 0;
  double frequency_hz = 3.3e9;

  std::vector<os::Pid> pids() const override {
    std::vector<os::Pid> out;
    for (const auto& [pid, counters] : processes) out.push_back(pid);
    return out;
  }
  std::optional<os::ProcStat> proc_stat(os::Pid pid) const override {
    const auto it = processes.find(pid);
    if (it == processes.end()) return std::nullopt;
    os::ProcStat stat;
    stat.pid = pid;
    stat.alive = true;
    stat.threads = 1;
    stat.counters = it->second;
    return stat;
  }
  os::SystemStat system_stat() const override {
    os::SystemStat stat;
    stat.frequency_hz = frequency_hz;
    stat.now_ns = now;
    return stat;
  }
  util::TimestampNs now_ns() const override { return now; }
  const simcpu::CounterBlock& machine_counters() const override { return machine; }
  std::size_t hw_threads() const override { return 4; }
  double total_energy_joules() const override { return 0.0; }
  double package_energy_joules() const override { return 0.0; }
  const os::IoTotals& io_totals() const override { return io; }
  const periph::DiskModel* disk() const override { return &disk_; }
  const periph::NicModel* nic() const override { return &nic_; }
  void advance(util::DurationNs duration) override { now += duration; }

  void gather_counter_lanes(std::span<const os::Pid> targets,
                            simcpu::CounterLanes& out) const override {
    out.resize(targets.size());
    for (std::size_t row = 0; row < targets.size(); ++row) {
      const auto it = processes.find(targets[row]);
      const bool live = targets[row] < 0 || it != processes.end();
      out.store_block(row, targets[row] < 0 ? machine
                           : live           ? it->second
                                            : simcpu::CounterBlock{});
      out.cpu_time()[row] = 0;
      out.live()[row] = live ? 1 : 0;
    }
  }

 private:
  periph::DiskModel disk_;
  periph::NicModel nic_;
};

}  // namespace powerapi::testing
