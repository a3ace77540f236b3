// Sensor stages: turn a MonitorTick into a SensorBatch — the one shape the
// sensor stage produces. The HPC sensor samples a row per monitored
// target; the meter and IO sensors sample one machine-scope row carrying
// their own FeatureMatrix lanes.
//
// A sensor is a plain object the Pipeline calls once per due tick:
// sample() returns the tick's batch, or nothing when no window completed
// (the priming tick, a stale timestamp, a dropped meter sample). Window
// bookkeeping lives in SamplingWindow instances (or, for the HPC sensor,
// row-parallel arrays with the same semantics) rather than hand-rolled
// primed/last fields.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "model/feature_matrix.h"
#include "os/monitorable_host.h"
#include "powerapi/messages.h"
#include "powerapi/sampling_window.h"
#include "powerapi/stage_obs.h"
#include "powermeter/powerspy.h"
#include "powermeter/rapl.h"

namespace powerapi::api {

/// Gathers the host's HPC counters for the machine scope plus each target
/// in one call (os::MonitorableHost::gather_counter_lanes), converts the
/// per-window deltas into rates lane-by-lane and samples ONE SensorBatch
/// per tick (row 0 = machine scope, then the targets in monitoring order;
/// rows whose window did not complete are left out). The host also
/// supplies the frequency and hardware-thread count the utilization lane
/// is computed from.
///
/// The targets are the sensor's own: none (machine scope only) until
/// monitor() or monitor_all() says otherwise.
///
/// Window bookkeeping is kept per row as parallel arrays instead of a
/// pid→SamplingWindow map: prime/stale/regression semantics are identical
/// to SamplingWindow's (documented per branch in the implementation), and a
/// target-set change re-aligns the previous-snapshot lanes by pid so
/// surviving targets keep their windows.
///
/// Like every sensor, it samples into a pooled matrix (PooledMatrix):
/// a steady-state tick allocates nothing once the tick's estimates have
/// let go of the previous batch.
class HpcSensor final {
 public:
  /// The sensor observes but never mutates the host; the reference must
  /// outlive the sensor. `obs` and `name` (the trace span's name, e.g.
  /// "h3/sensor-hpc") are optional; every stage takes them last.
  explicit HpcSensor(const os::MonitorableHost& host, obs::Observability* obs = nullptr,
                     std::string_view name = {});

  /// Monitors the given pids (plus, always, the machine scope).
  void monitor(std::vector<std::int64_t> pids);
  /// Monitors every live process, re-read from the host at each tick.
  void monitor_all();

  /// The batch of every row whose window this tick completed, if any.
  std::optional<SensorBatch> sample(const MonitorTick& tick);

 private:
  void realign_rows(const std::vector<std::int64_t>& new_pids);

  const os::MonitorableHost* host_;
  bool monitor_all_ = false;
  /// The targets: monitor()'s pids, or (monitor_all) the host's live pids
  /// of this tick, refilled in place so the vector keeps its capacity.
  std::vector<std::int64_t> targets_;

  // Row-parallel window state. pids_[0] is always kMachinePid.
  std::vector<std::int64_t> pids_;
  simcpu::CounterLanes cur_;
  simcpu::CounterLanes prev_;
  std::vector<util::TimestampNs> last_time_;
  std::vector<std::uint8_t> primed_;
  // Per-tick scratch.
  std::vector<double> window_seconds_;
  std::vector<std::uint8_t> completed_;
  simcpu::CounterLanes realign_lanes_;
  std::vector<util::TimestampNs> realign_last_time_;
  std::vector<std::uint8_t> realign_primed_;
  model::FeatureMatrix extract_scratch_;
  PooledMatrix matrix_;

  StageObs stage_;
};

/// Samples the (simulated) wall meter's reading as a 1-row batch
/// (measured-watts lane).
class PowerSpySensor final {
 public:
  explicit PowerSpySensor(std::shared_ptr<powermeter::PowerSpy> meter,
                          obs::Observability* obs = nullptr, std::string_view name = {});

  /// Nothing on a dropped sample or the meter's first (priming) call.
  std::optional<SensorBatch> sample(const MonitorTick& tick);

 private:
  std::shared_ptr<powermeter::PowerSpy> meter_;
  PooledMatrix matrix_;
  StageObs stage_;
};

/// Reads the emulated RAPL MSR, differentiates energy into watts and
/// samples a 1-row batch (measured-watts and window lanes). The raw MSR value is a wrapping 32-bit
/// counter, so a decrease is a wraparound, not a reset — energy_between
/// unwraps it and the window never re-primes.
class RaplSensor final {
 public:
  explicit RaplSensor(std::shared_ptr<powermeter::RaplMsr> msr,
                      obs::Observability* obs = nullptr, std::string_view name = {});

  std::optional<SensorBatch> sample(const MonitorTick& tick);

 private:
  std::shared_ptr<powermeter::RaplMsr> msr_;
  SamplingWindow<std::uint32_t> window_;
  PooledMatrix matrix_;
  StageObs stage_;
};

/// Differences the host's iostat-style IO counters into machine-scope rates
/// (the disk/network dimension of the paper's component splitting),
/// sampled as a 1-row batch (IO and window lanes).
/// Samples nothing when the host has no peripherals.
class IoSensor final {
 public:
  explicit IoSensor(const os::MonitorableHost& host, obs::Observability* obs = nullptr,
                    std::string_view name = {});

  std::optional<SensorBatch> sample(const MonitorTick& tick);

 private:
  const os::MonitorableHost* host_;
  SamplingWindow<os::IoTotals> window_;
  PooledMatrix matrix_;
  StageObs stage_;
};

}  // namespace powerapi::api
