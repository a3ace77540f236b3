// Sensor actors: turn MonitorTicks into SensorBatches on the event bus —
// the one message shape of the sensor stage. The HPC sensor publishes a row
// per monitored target; the meter and IO sensors publish one machine-scope
// row carrying their own FeatureMatrix lanes.
//
// Every sensor publishes on an output topic the builder interns for it —
// "sensor:hpc" in a standalone pipeline, "h3/sensor:hpc" inside a fleet
// namespace — and keeps its window bookkeeping in SamplingWindow instances
// rather than hand-rolled primed/last fields.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "actors/actor.h"
#include "actors/event_bus.h"
#include "hpc/backend.h"
#include "model/feature_matrix.h"
#include "os/monitorable_host.h"
#include "powerapi/messages.h"
#include "powerapi/sampling_window.h"
#include "powerapi/stage_obs.h"
#include "powermeter/powerspy.h"
#include "powermeter/rapl.h"

namespace powerapi::api {

/// Supplies the set of pids to monitor at each tick (dynamic: processes come
/// and go). Returning an empty vector monitors only the machine scope.
using TargetsFn = std::function<std::vector<std::int64_t>()>;

/// Reads HPC counters for each target plus the machine scope in one batched
/// lane gather, converts the per-window deltas into rates lane-by-lane and
/// publishes ONE SensorKind::kHpc SensorBatch per tick on `out_topic` (row
/// 0 = machine scope, then the targets in monitoring order).
///
/// Window bookkeeping is kept per row as parallel arrays instead of a
/// pid→SamplingWindow map: prime/stale/regression semantics are identical
/// to SamplingWindow's (documented per branch in the implementation), and a
/// target-set change re-aligns the previous-snapshot lanes by pid so
/// surviving targets keep their windows.
///
/// `host` is optional: when present (simulation) it supplies frequency,
/// utilization and — when the backend's batch read does not — the SMT
/// co-residency and cpu-time side lanes; a live deployment passes nullptr
/// and those fields default.
class HpcSensor final : public actors::Actor {
 public:
  HpcSensor(actors::EventBus& bus, actors::EventBus::TopicId out_topic,
            hpc::CounterBackend& backend, TargetsFn targets,
            const os::MonitorableHost* host, obs::Observability* obs = nullptr);

  void receive(actors::Envelope& envelope) override;

 private:
  void observe(const MonitorTick& tick);
  void realign_rows(const std::vector<std::int64_t>& new_pids);

  actors::EventBus* bus_;
  actors::EventBus::TopicId out_topic_;
  hpc::CounterBackend* backend_;
  TargetsFn targets_;
  const os::MonitorableHost* host_;

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

  StageObs stage_;
};

/// Publishes the (simulated) wall meter's reading as a 1-row
/// SensorKind::kPowerSpy batch (measured-watts lane).
class PowerSpySensor final : public actors::Actor {
 public:
  PowerSpySensor(actors::EventBus& bus, actors::EventBus::TopicId out_topic,
                 std::shared_ptr<powermeter::PowerSpy> meter,
                 obs::Observability* obs = nullptr);

  void receive(actors::Envelope& envelope) override;

 private:
  actors::EventBus* bus_;
  actors::EventBus::TopicId out_topic_;
  std::shared_ptr<powermeter::PowerSpy> meter_;
  StageObs stage_;
};

/// Reads the emulated RAPL MSR, differentiates energy into watts and
/// publishes a 1-row SensorKind::kRapl batch (measured-watts and window
/// lanes). The raw MSR value is a wrapping 32-bit
/// counter, so a decrease is a wraparound, not a reset — energy_between
/// unwraps it and the window never re-primes.
class RaplSensor final : public actors::Actor {
 public:
  RaplSensor(actors::EventBus& bus, actors::EventBus::TopicId out_topic,
             std::shared_ptr<powermeter::RaplMsr> msr,
             obs::Observability* obs = nullptr);

  void receive(actors::Envelope& envelope) override;

 private:
  actors::EventBus* bus_;
  actors::EventBus::TopicId out_topic_;
  std::shared_ptr<powermeter::RaplMsr> msr_;
  SamplingWindow<std::uint32_t> window_;
  StageObs stage_;
};

/// Differences the host's iostat-style IO counters into machine-scope rates
/// (the disk/network dimension of the paper's component splitting),
/// published as a 1-row SensorKind::kIo batch (IO and window lanes).
/// Publishes nothing when the host has no peripherals.
class IoSensor final : public actors::Actor {
 public:
  IoSensor(actors::EventBus& bus, actors::EventBus::TopicId out_topic,
           const os::MonitorableHost& host, obs::Observability* obs = nullptr);

  void receive(actors::Envelope& envelope) override;

 private:
  actors::EventBus* bus_;
  actors::EventBus::TopicId out_topic_;
  const os::MonitorableHost* host_;
  SamplingWindow<os::IoTotals> window_;
  StageObs stage_;
};

}  // namespace powerapi::api
