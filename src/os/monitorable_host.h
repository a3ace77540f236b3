// MonitorableHost: the narrow host interface the monitoring pipeline needs.
//
// It is the only thing a host's Pipeline reads: the sensors (the HPC
// sensor's counters come from gather_counter_lanes) and the pipeline
// assembly depend on this interface rather than on the concrete simulated
// System, so the same pipeline can be built over the simulator, a live
// /proc+perf host, or a remote host proxy — and a FleetMonitor can drive
// many hosts of mixed provenance. Everything here is an observation except
// advance(), which the FleetMonitor calls to move a host's time.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "simcpu/counter_lanes.h"
#include "simcpu/counters.h"
#include "util/units.h"

namespace powerapi::periph {
class DiskModel;
class NicModel;
}  // namespace powerapi::periph

namespace powerapi::os {

using Pid = std::int64_t;

/// Snapshot of one process's accounting, in the spirit of /proc/<pid>/stat.
struct ProcStat {
  Pid pid = 0;
  std::string name;
  std::string group;  ///< cgroup/VM label; empty when ungrouped.
  bool alive = false;
  std::size_t threads = 0;
  simcpu::CounterBlock counters;     ///< Cumulative over all its tasks.
  util::DurationNs cpu_time_ns = 0;  ///< Summed over tasks.
  /// Ground-truth activity energy (joules) the simulator attributed to this
  /// process — evaluation-only, see Task::attributed_energy_joules.
  double attributed_energy_joules = 0.0;
  double last_utilization = 0.0;     ///< CPU share over the last tick, in
                                     ///< units of hardware threads (0..N).
};

/// Machine-wide view over the last tick.
struct SystemStat {
  double utilization = 0.0;  ///< Busy hw threads / total hw threads, 0..1.
  double power_watts = 0.0;  ///< Ground truth incl. peripherals (meters only).
  double frequency_hz = 0.0;
  util::TimestampNs now_ns = 0;
  double disk_watts = 0.0;   ///< 0 when peripherals are disabled.
  double nic_watts = 0.0;
};

/// Cumulative IO issued since boot (iostat/ifconfig-style counters; zero
/// when peripherals are disabled). Sensors difference these into rates.
struct IoTotals {
  double disk_ops = 0.0;
  double disk_bytes = 0.0;
  double net_bytes = 0.0;
};

class MonitorableHost {
 public:
  virtual ~MonitorableHost() = default;

  // --- Process table ---
  virtual std::vector<Pid> pids() const = 0;
  /// pids() into a caller-owned vector, so a caller that keeps one across
  /// ticks reuses its capacity. Hosts with a process table override it;
  /// the default copies pids().
  virtual void pids_into(std::vector<Pid>& out) const { out = pids(); }
  virtual std::optional<ProcStat> proc_stat(Pid pid) const = 0;

  // --- Machine scope ---
  virtual SystemStat system_stat() const = 0;
  virtual util::TimestampNs now_ns() const = 0;
  /// Cumulative machine-wide hardware counters (the HPC sensor's substrate).
  virtual const simcpu::CounterBlock& machine_counters() const = 0;
  virtual std::size_t hw_threads() const = 0;

  // --- Energy meters ---
  /// Whole-system energy (machine + peripherals) — what a wall meter
  /// integrates.
  virtual double total_energy_joules() const = 0;
  /// Package-domain energy — what RAPL's MSR_PKG_ENERGY_STATUS integrates.
  virtual double package_energy_joules() const = 0;

  // --- Peripherals (null / zero when the host has none) ---
  virtual const IoTotals& io_totals() const = 0;
  virtual const periph::DiskModel* disk() const = 0;
  virtual const periph::NicModel* nic() const = 0;

  // --- Time control (host drivers only) ---
  /// Advances the host by `duration`. Simulated hosts run their kernel in
  /// whole quanta, so they may overshoot. A wall-clock host would sleep
  /// for `duration`: FleetMonitor counts requested time, not host time, so
  /// a no-op would end its run_for at once, before any tick fell due.
  virtual void advance(util::DurationNs duration) = 0;

  // --- Batch counter gather (SoA hot path) ---
  /// Fills one CounterLanes row per requested target: row i carries the
  /// cumulative counters for `targets[i]`, where a negative pid means
  /// machine scope. Side lanes: SMT co-residency, cpu_time (process rows; 0
  /// for machine) and live (0 when the target no longer exists — its lanes
  /// are left zeroed and the caller must drop its sampling window). This is
  /// the HPC sensor's only counter read, so every host implements it.
  virtual void gather_counter_lanes(std::span<const Pid> targets,
                                    simcpu::CounterLanes& out) const = 0;
};

}  // namespace powerapi::os
