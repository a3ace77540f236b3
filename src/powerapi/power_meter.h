// PowerMeter: the single-host library facade — a FleetMonitor of one host.
//
// The meter adds its one host (namespace "h0/": topics "h0/tick" and
// "h0/power:aggregated", spans "h0/sensor-hpc", …) and keeps the
// single-host surface as one-liners on that host's Pipeline (see
// pipeline.h). run_for(), finish(), actor_system() and bus() are the
// fleet's: one host runs as one slice on the caller, so a meter starts no
// thread, and config.observability observes the meter's actor system and
// bus as well as its pipeline. run_for counts requested time in steps of
// the period, so on a host whose kernel quantum is coarser than the period
// the host clock overshoots: each step runs a whole quantum (period 3 ms,
// quantum 10 ms: run_for(30 ms) leaves the host at 100 ms).
// Usage:
//
//   os::System system(simcpu::i3_2120());
//   api::PowerMeter meter(system, trained_model);
//   auto& mem = meter.add_memory_reporter();
//   meter.monitor_all();
//   meter.run_for(util::seconds_to_ns(60));
//   meter.finish();
//   // mem.series("powerapi-hpc") is the estimated machine power series.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/estimator.h"
#include "model/power_model.h"
#include "os/monitorable_host.h"
#include "powerapi/fleet_monitor.h"
#include "powerapi/pipeline.h"
#include "powerapi/reporters.h"

namespace powerapi::api {

class PowerMeter final : public FleetMonitor {
 public:
  /// The meter's configuration IS the pipeline spec; a non-empty `model`
  /// fills its model slot.
  using Config = PipelineSpec;

  PowerMeter(os::MonitorableHost& host, model::CpuPowerModel model, Config config = {})
      : FleetMonitor(Options{.observability = config.observability}) {
    if (!model.empty()) config.model = std::move(model);
    add_host(host, std::move(config));
  }

  /// Monitors the given pids (plus, always, the machine scope).
  void monitor(std::vector<std::int64_t> pids) { pipeline().monitor(std::move(pids)); }
  /// Monitors every live process, tracked dynamically.
  void monitor_all() { pipeline().monitor_all(); }

  /// Attaches an additional baseline formula fed by the hpc sensor.
  void add_estimator(std::shared_ptr<const baselines::MachinePowerEstimator> estimator) {
    pipeline().add_estimator(std::move(estimator));
  }

  // --- Reporters (attach before run_for) ---
  void add_console_reporter(std::ostream& out) { pipeline().add_console_reporter(out); }
  void add_csv_reporter(std::ostream& out) { pipeline().add_csv_reporter(out); }
  void add_callback_reporter(CallbackReporter::Callback callback) {
    pipeline().add_callback_reporter(std::move(callback));
  }
  MemoryReporter& add_memory_reporter() { return pipeline().add_memory_reporter(); }
  /// Forwards aggregated rows to a caller-owned telemetry client (see
  /// net/telemetry_client.h); the client must outlive the meter.
  void add_remote_reporter(net::TelemetryClient& client) {
    pipeline().add_remote_reporter(client);
  }

  Pipeline& pipeline() { return FleetMonitor::pipeline(0); }
};

}  // namespace powerapi::api
