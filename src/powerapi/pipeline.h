// One host's monitoring pipeline as one call chain.
//
// The paper's toolkit wires Sensor → Formula → Aggregator → Reporter as
// actors over an event bus (Figure 2). Every stage of one host runs on the
// one thread that advanced that host, so here the hops are plain calls:
// for each due tick, Pipeline calls
//   1. every sensor's sample(), in order hpc, powerspy, rapl, io;
//   2. every formula's estimate_into() on its sensor's batch, in order
//      powerspy, rapl, io, hpc regression, then the baseline estimators in
//      the order they were added, each into its own estimate slot;
//   3. the calibrator's observe_features() on the hpc batch, then its
//      observe_measured() on the ground-truth batch — after the regression
//      formula, so a swap at tick t first affects tick t+1;
//   4. the aggregator's absorb() on each estimate batch, in formula order
//      (a formula's index is its slot), after which the slot drops its
//      matrix so the sensors' pools reuse theirs next tick;
//   5. every attached reporter's report() on each completed row, in attach
//      order (after the fleet tap, when FleetMonitor has set one).
// PipelineSpec is the declarative description of which stages exist.
//
// The bus is used only at the pipeline's edges, and only when someone
// subscribes (a zero-subscriber publish counts as a bus dead letter):
// "tick" carries each MonitorTick (probes) and "power:aggregated" each
// aggregated row (bus-subscribed sinks, probes).
// Every pipeline is a FleetMonitor host: host i lives under the namespace
// "h<i>/" ("h3/power:aggregated"; a PowerMeter's one host is "h0/"), which
// also prefixes the stages' trace span names ("h3/sensor-hpc").
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "actors/event_bus.h"
#include "actors/timers.h"
#include "baselines/estimator.h"
#include "model/model_registry.h"
#include "model/power_model.h"
#include "obs/observability.h"
#include "os/monitorable_host.h"
#include "powerapi/aggregators.h"
#include "powerapi/calibration.h"
#include "powerapi/formulas.h"
#include "powerapi/messages.h"
#include "powerapi/reporters.h"
#include "powerapi/sensors.h"
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
  /// When set, ticks carry sequence ids and every stage records spans and
  /// throughput counters.
  obs::Observability* observability = nullptr;
};

/// One assembled pipeline over one host: the handle FleetMonitor drives.
/// Owns the tick schedule, every stage and the reporters attached to it;
/// none of them is an actor. The host is the only thing it reads.
///
/// A stage or reporter that throws propagates out of run_due_ticks(); the
/// tick's remaining stages are skipped.
class Pipeline {
 public:
  Pipeline(actors::EventBus& bus, os::MonitorableHost& host, PipelineSpec spec,
           std::string ns);

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  // --- Targets ---
  /// Monitors the given pids (plus, always, the machine scope).
  void monitor(std::vector<std::int64_t> pids) { hpc_sensor_.monitor(std::move(pids)); }
  /// Monitors every live process, tracked dynamically.
  void monitor_all() { hpc_sensor_.monitor_all(); }

  // --- Driving ---
  /// Runs the stage chain once per period elapsed on the host clock since
  /// the last call (catch-up semantics: every due tick is stamped with the
  /// host's now). Returns the number of ticks run.
  std::uint64_t run_due_ticks();

  // --- Attachments (before the first tick, ideally) ---
  void add_estimator(std::shared_ptr<const baselines::MachinePowerEstimator> estimator);
  void add_console_reporter(std::ostream& out);
  void add_csv_reporter(std::ostream& out);
  void add_callback_reporter(CallbackReporter::Callback callback);
  MemoryReporter& add_memory_reporter();
  /// Invokes `callback` after every calibration swap (ModelUpdated), on the
  /// thread that runs this pipeline. Throws if the pipeline was built
  /// without with_calibration.
  void add_model_update_callback(Calibrator::UpdateCallback callback);
  /// Forwards every aggregated row to a caller-owned telemetry client —
  /// this pipeline's output becomes visible to a remote CollectorServer.
  /// The client must outlive the pipeline.
  void add_remote_reporter(net::TelemetryClient& client);
  /// While `sink` is non-null, every machine-scope row (FleetSum::counts)
  /// is appended to it before the reporters see the row: FleetMonitor's
  /// fleet tap, set only while the fleet dimension has a consumer. Set it
  /// only while no thread runs this pipeline.
  void tap_machine_rows(std::vector<AggregatedPower>* sink) noexcept {
    machine_tap_ = sink;
  }
  /// While `sink` is non-null, every tick's seq is appended to it:
  /// FleetMonitor's feed for its metrics reporters. Set it only while no
  /// thread runs this pipeline.
  void tap_ticks(std::vector<std::uint64_t>* sink) noexcept { tick_tap_ = sink; }

  // --- Lifecycle ---
  /// Flushes the aggregator's pending groups to the reporters; idempotent.
  void finish();

  const std::string& topic_namespace() const noexcept { return ns_; }
  actors::EventBus::TopicId tick_topic() const noexcept { return tick_topic_; }
  actors::EventBus::TopicId aggregated_topic() const noexcept {
    return aggregated_topic_;
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
  /// Steps 1-5 of the call chain for one tick.
  void run_tick(const MonitorTick& tick);
  /// Hands `rows` to every reporter, and to the bus when subscribed.
  void report(const std::vector<AggregatedPower>& rows);
  template <typename R, typename... Args>
  R& attach(Args&&... args);

  actors::EventBus* bus_;
  os::MonitorableHost* host_;
  std::string ns_;
  std::shared_ptr<model::ModelRegistry> registry_;
  actors::Ticker ticker_;
  actors::EventBus::TopicId tick_topic_;
  actors::EventBus::TopicId aggregated_topic_;
  bool finished_ = false;

  // Observability (null / 0 when the spec carried no bundle).
  obs::Observability* obs_ = nullptr;
  std::uint64_t next_seq_ = 0;
  obs::Counter* tick_counter_ = nullptr;
  obs::TraceCollector::NameId tick_name_ = 0;

  // --- Stages, in call order ---
  HpcSensor hpc_sensor_;
  std::optional<PowerSpySensor> powerspy_sensor_;
  std::optional<RaplSensor> rapl_sensor_;
  std::optional<IoSensor> io_sensor_;
  std::optional<MeterFormula> powerspy_formula_;
  std::optional<MeterFormula> rapl_formula_;
  std::optional<IoFormula> io_formula_;
  std::optional<RegressionFormula> regression_formula_;
  std::vector<EstimatorFormula> estimator_formulas_;
  std::optional<Calibrator> calibrator_;
  Aggregator aggregator_;
  std::vector<std::unique_ptr<Reporter>> reporters_;
  std::vector<AggregatedPower>* machine_tap_ = nullptr;
  std::vector<std::uint64_t>* tick_tap_ = nullptr;

  // Per-tick scratch, reused across ticks: estimates_ holds one slot per
  // formula, in call order.
  std::vector<EstimateBatch> estimates_;
  std::vector<AggregatedPower> rows_;
};

}  // namespace powerapi::api
