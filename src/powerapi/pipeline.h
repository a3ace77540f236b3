// Declarative monitoring-pipeline assembly.
//
// The paper's toolkit is composable middleware: Sensor → Formula →
// Aggregator → Reporter actors wired over the event bus. PipelineSpec is
// the declarative description of one such graph (which sensors, which
// formulas, how to aggregate); PipelineBuilder assembles it over any
// os::MonitorableHost into a Pipeline — the runtime handle that drives
// ticks, retargets monitoring and attaches reporters.
//
// Topic namespaces make the graph multi-host capable: a standalone
// PowerMeter builds under the empty namespace ("sensor:hpc"), a
// FleetMonitor builds host i under "h<i>/" ("h3/sensor:hpc"), so N
// independent pipelines share one actor system and one bus without
// crosstalk. All topics are interned once at build time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "actors/actor_system.h"
#include "actors/event_bus.h"
#include "actors/timers.h"
#include "baselines/estimator.h"
#include "hpc/backend.h"
#include "model/model_registry.h"
#include "model/power_model.h"
#include "obs/observability.h"
#include "os/monitorable_host.h"
#include "powerapi/aggregators.h"
#include "powerapi/calibration.h"
#include "powerapi/messages.h"
#include "powerapi/obs_reporter.h"
#include "powerapi/reporters.h"
#include "util/units.h"

namespace powerapi::net {
class TelemetryClient;
}  // namespace powerapi::net

namespace powerapi::api {

/// Declarative description of one host's monitoring pipeline.
struct PipelineSpec {
  util::DurationNs period = util::ms_to_ns(250);  ///< Monitoring period.
  bool with_powerspy = true;   ///< Reference wall meter ("powerspy" series).
  bool with_rapl = false;      ///< Emulated RAPL package meter ("rapl").
  /// IO sensor + datasheet formula ("io-datasheet" series); only emits on
  /// hosts built with peripherals.
  bool with_io = false;
  AggregationDimension dimension = AggregationDimension::kTimestamp;
  std::uint64_t seed = 7;      ///< Seeds the meter noise stream.
  /// The paper's regression formula; empty → no "powerapi-hpc" series
  /// (unless `registry` is set, which wins).
  model::CpuPowerModel model;
  /// Shared model registry. When set, this pipeline's RegressionFormula
  /// reads through it (and `model` is ignored) — a fleet passes the SAME
  /// registry to every host's spec so all hosts share one immutable model
  /// snapshot instead of owning per-host copies. When null, the pipeline
  /// wraps `model` in a private registry.
  std::shared_ptr<model::ModelRegistry> registry;
  /// Online calibration: pair hpc features with meter ground truth, refit
  /// on drift and hot-swap the registry. Requires a registry (or `model`)
  /// plus a ground-truth meter (powerspy preferred, else rapl).
  bool with_calibration = false;
  CalibrationOptions calibration;  ///< Tuning for with_calibration.
  /// Baseline formulas fed by the hpc sensor (cpu-load, Bertran, HAPPY).
  std::vector<std::shared_ptr<const baselines::MachinePowerEstimator>> estimators;
  /// Self-observability bundle (non-owning; must outlive the pipeline).
  /// When set, ticks carry sequence ids, every stage records spans and
  /// throughput counters, and add_metrics_reporter() becomes available.
  obs::Observability* observability = nullptr;
};

/// One assembled pipeline over one host: the handle PowerMeter and
/// FleetMonitor drive. Owns the counter backend and the tick schedule;
/// the actors live in the shared ActorSystem, all in drain group `group`
/// (reporters attached later included), so a FleetMonitor can drain one
/// host's pipeline on its own.
class Pipeline {
 public:
  Pipeline(actors::ActorSystem& actors, actors::EventBus& bus,
           os::MonitorableHost& host, PipelineSpec spec, std::string ns,
           actors::ActorSystem::GroupId group = actors::ActorSystem::kDefaultGroup);

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  // --- Targets ---
  /// Monitors the given pids (plus, always, the machine scope).
  void monitor(std::vector<std::int64_t> pids);
  /// Monitors every live process, tracked dynamically.
  void monitor_all();

  // --- Driving ---
  /// Publishes one MonitorTick per period elapsed on the host clock since
  /// the last call (catch-up semantics). Returns the number published.
  std::uint64_t publish_due_ticks();

  // --- Attachments (before the first tick, ideally) ---
  void add_estimator(std::shared_ptr<const baselines::MachinePowerEstimator> estimator);
  void add_console_reporter(std::ostream& out);
  void add_csv_reporter(std::ostream& out);
  void add_callback_reporter(CallbackReporter::Callback callback);
  MemoryReporter& add_memory_reporter();
  /// Invokes `callback` after every calibration swap (ModelUpdated).
  /// Throws if the pipeline was built without with_calibration.
  void add_model_update_callback(ModelUpdateCallback::Callback callback);
  /// Writes a metrics-registry snapshot to `out` every `every_n_ticks`
  /// ticks (plus a final one at shutdown). `out` must outlive the actor
  /// system: the final flush runs when the reporter actor stops. Throws if
  /// the pipeline was built without spec.observability.
  void add_metrics_reporter(std::ostream& out,
                            MetricsReporter::Format format = MetricsReporter::Format::kText,
                            std::uint64_t every_n_ticks = 1);
  /// Forwards every aggregated row to a caller-owned telemetry client —
  /// this pipeline's output becomes visible to a remote CollectorServer.
  /// The client must outlive the actor system.
  void add_remote_reporter(net::TelemetryClient& client);

  // --- Lifecycle ---
  /// Stops the aggregator so its pending groups flush; idempotent. The
  /// caller still drains / awaits the actor system.
  void finish();

  const std::string& topic_namespace() const noexcept { return ns_; }
  actors::EventBus::TopicId tick_topic() const noexcept { return tick_topic_; }
  actors::EventBus::TopicId aggregated_topic() const noexcept {
    return aggregated_topic_;
  }
  /// "calibration:updated" topic; only valid with with_calibration.
  actors::EventBus::TopicId calibration_topic() const noexcept {
    return calibration_topic_;
  }
  /// The registry the regression formula reads through; null when the
  /// pipeline was built with neither a model nor a registry.
  const std::shared_ptr<model::ModelRegistry>& registry() const noexcept {
    return registry_;
  }
  os::MonitorableHost& host() noexcept { return *host_; }
  const actors::Ticker& ticker() const noexcept { return ticker_; }
  obs::Observability* observability() const noexcept { return obs_; }

 private:
  struct TargetsState {
    const os::MonitorableHost* host = nullptr;
    std::vector<std::int64_t> fixed;
    bool all = false;
  };

  actors::ActorSystem* actors_;
  actors::EventBus* bus_;
  actors::ActorSystem::GroupId group_;
  os::MonitorableHost* host_;
  std::string ns_;
  bool with_powerspy_ = false;
  std::unique_ptr<hpc::CounterBackend> backend_;
  std::shared_ptr<TargetsState> targets_;
  std::shared_ptr<model::ModelRegistry> registry_;
  actors::Ticker ticker_;
  actors::EventBus::TopicId tick_topic_;
  actors::EventBus::TopicId hpc_topic_;
  actors::EventBus::TopicId estimate_topic_;
  actors::EventBus::TopicId aggregated_topic_;
  actors::EventBus::TopicId calibration_topic_{};
  actors::ActorRef aggregator_;
  bool with_calibration_ = false;
  bool finished_ = false;

  // Observability (null / 0 when the spec carried no bundle).
  obs::Observability* obs_ = nullptr;
  std::uint64_t next_seq_ = 0;
  obs::Counter* tick_counter_ = nullptr;
  obs::TraceCollector::NameId tick_name_ = 0;
};

/// Assembles Pipelines over a shared actor system + bus. One builder can
/// build many pipelines (FleetMonitor builds one per host).
class PipelineBuilder {
 public:
  PipelineBuilder(actors::ActorSystem& actors, actors::EventBus& bus)
      : actors_(&actors), bus_(&bus) {}

  /// Builds `spec` over `host` under topic namespace `ns` ("" for a
  /// standalone pipeline, "h3/" inside a fleet), spawning into `group`.
  std::unique_ptr<Pipeline> build(
      os::MonitorableHost& host, PipelineSpec spec, std::string ns = {},
      actors::ActorSystem::GroupId group = actors::ActorSystem::kDefaultGroup) {
    return std::make_unique<Pipeline>(*actors_, *bus_, host, std::move(spec),
                                      std::move(ns), group);
  }

 private:
  actors::ActorSystem* actors_;
  actors::EventBus* bus_;
};

}  // namespace powerapi::api
