// PowerMeter: the single-host library facade.
//
// A thin driver over a PipelineBuilder-assembled pipeline (see pipeline.h):
// one MonitorableHost, one kManual actor system, the empty topic namespace.
// A monitoring clock ("tick" topic) drives Sensor actors, whose reports
// flow through Formula actors into an Aggregator and out to Reporters —
// all over the event bus. For many hosts stepped in parallel slices, see
// fleet_monitor.h.
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
#include <vector>

#include "actors/actor_system.h"
#include "actors/event_bus.h"
#include "baselines/estimator.h"
#include "model/power_model.h"
#include "os/monitorable_host.h"
#include "powerapi/messages.h"
#include "powerapi/pipeline.h"
#include "powerapi/reporters.h"

namespace powerapi::api {

class PowerMeter {
 public:
  /// The meter's configuration IS the pipeline spec: the model and
  /// estimators slots are filled from the constructor arguments.
  using Config = PipelineSpec;

  PowerMeter(os::MonitorableHost& host, model::CpuPowerModel model)
      : PowerMeter(host, std::move(model), Config{}) {}
  PowerMeter(os::MonitorableHost& host, model::CpuPowerModel model, Config config);

  /// Flushes via finish(): the aggregator's pending groups must drain while
  /// the event bus still exists (members are destroyed in reverse order, so
  /// an actor flushing from post_stop during ~ActorSystem would otherwise
  /// publish through a dangling bus).
  ~PowerMeter();

  /// Monitors the given pids (plus, always, the machine scope).
  void monitor(std::vector<std::int64_t> pids);
  /// Monitors every live process, tracked dynamically.
  void monitor_all();

  /// Attaches an additional baseline formula fed by the hpc sensor.
  void add_estimator(std::shared_ptr<const baselines::MachinePowerEstimator> estimator);

  // --- Reporters (attach before run_for) ---
  void add_console_reporter(std::ostream& out);
  void add_csv_reporter(std::ostream& out);
  void add_callback_reporter(CallbackReporter::Callback callback);
  MemoryReporter& add_memory_reporter();
  /// Forwards aggregated rows to a caller-owned telemetry client (see
  /// net/telemetry_client.h); the client must outlive the meter.
  void add_remote_reporter(net::TelemetryClient& client);

  /// Advances the host by `duration`, firing monitor ticks at the
  /// configured period and draining the pipeline after each.
  void run_for(util::DurationNs duration);

  /// Flushes pending aggregation groups; call once after the last run_for.
  void finish();

  actors::ActorSystem& actor_system() noexcept { return actors_; }
  actors::EventBus& bus() noexcept { return bus_; }
  const Config& config() const noexcept { return config_; }
  Pipeline& pipeline() noexcept { return *pipeline_; }

 private:
  os::MonitorableHost* host_;
  Config config_;  ///< As configured (model slot left empty; it moves into the formula).
  actors::ActorSystem actors_;
  actors::EventBus bus_;
  std::unique_ptr<Pipeline> pipeline_;
  bool finished_ = false;
};

}  // namespace powerapi::api
