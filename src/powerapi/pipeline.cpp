#include "powerapi/pipeline.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "hpc/sim_backend.h"
#include "periph/disk.h"
#include "periph/nic.h"
#include "powerapi/formulas.h"
#include "powerapi/remote_reporter.h"
#include "powerapi/sensors.h"
#include "powermeter/powerspy.h"
#include "powermeter/rapl.h"
#include "util/rng.h"

namespace powerapi::api {

Pipeline::Pipeline(actors::ActorSystem& actors, actors::EventBus& bus,
                   os::MonitorableHost& host, PipelineSpec spec, std::string ns,
                   actors::ActorSystem::GroupId group)
    : actors_(&actors),
      bus_(&bus),
      group_(group),
      host_(&host),
      ns_(std::move(ns)),
      with_powerspy_(spec.with_powerspy),
      backend_(std::make_unique<hpc::SimBackend>(host)),
      targets_(std::make_shared<TargetsState>()),
      registry_(std::move(spec.registry)),
      ticker_(host.now_ns(), spec.period),
      tick_topic_(bus.intern(ns_ + "tick")),
      hpc_topic_(bus.intern(ns_ + "sensor:hpc")),
      estimate_topic_(bus.intern(ns_ + "power:estimate")),
      aggregated_topic_(bus.intern(ns_ + "power:aggregated")),
      obs_(spec.observability) {
  targets_->host = host_;
  util::Rng rng(spec.seed);
  if (obs_ != nullptr) {
    tick_counter_ = &obs_->metrics.counter("pipeline.ticks");
    tick_name_ = obs_->trace.intern(ns_ + "tick");
  }

  // A private registry wraps the spec's model unless the caller shares one
  // (a fleet passing the same registry to every host). Calibration from a
  // cold start gets an idle-only version 1 to improve on.
  if (registry_ == nullptr && (!spec.model.empty() || spec.with_calibration)) {
    registry_ = std::make_shared<model::ModelRegistry>(std::move(spec.model));
  }

  // Targets provider of the HPC sensor.
  TargetsFn targets = [state = targets_]() -> std::vector<std::int64_t> {
    if (state->all) return state->host->pids();
    return state->fixed;
  };

  // --- Sensors ---
  const auto hpc_sensor = actors_->spawn_in<HpcSensor>(group_,
      ns_ + "sensor-hpc", *bus_, hpc_topic_, *backend_, std::move(targets), host_, obs_);
  bus_->subscribe(tick_topic_, hpc_sensor);

  // Meter sensor topics survive the blocks below: the calibration actor
  // subscribes to one of them as its ground-truth stream.
  std::optional<actors::EventBus::TopicId> powerspy_topic;
  std::optional<actors::EventBus::TopicId> rapl_topic;

  if (spec.with_powerspy) {
    auto meter = std::make_shared<powermeter::PowerSpy>(
        [h = host_] { return h->total_energy_joules(); },
        [h = host_] { return h->now_ns(); }, rng.fork(1));
    const auto sensor_topic = bus_->intern(ns_ + "sensor:powerspy");
    powerspy_topic = sensor_topic;
    const auto sensor = actors_->spawn_in<PowerSpySensor>(group_,
        ns_ + "sensor-powerspy", *bus_, sensor_topic, std::move(meter), obs_);
    bus_->subscribe(tick_topic_, sensor);
    const auto formula = actors_->spawn_in<MeterFormula>(group_,
        ns_ + "formula-powerspy", *bus_, estimate_topic_, "powerspy", obs_);
    bus_->subscribe(sensor_topic, formula);
  }

  if (spec.with_rapl) {
    auto msr = std::make_shared<powermeter::RaplMsr>(
        [h = host_] { return h->package_energy_joules(); },
        [h = host_] { return h->now_ns(); });
    const auto sensor_topic = bus_->intern(ns_ + "sensor:rapl");
    rapl_topic = sensor_topic;
    const auto sensor = actors_->spawn_in<RaplSensor>(group_,
        ns_ + "sensor-rapl", *bus_, sensor_topic, std::move(msr), obs_);
    bus_->subscribe(tick_topic_, sensor);
    const auto formula = actors_->spawn_in<MeterFormula>(
        group_, ns_ + "formula-rapl", *bus_, estimate_topic_, "rapl", obs_);
    bus_->subscribe(sensor_topic, formula);
  }

  if (spec.with_io && host_->disk() != nullptr) {
    const auto sensor_topic = bus_->intern(ns_ + "sensor:io");
    const auto sensor = actors_->spawn_in<IoSensor>(group_, ns_ + "sensor-io", *bus_,
                                                    sensor_topic, *host_, obs_);
    bus_->subscribe(tick_topic_, sensor);
    const auto formula = actors_->spawn_in<IoFormula>(group_,
        ns_ + "formula-io", *bus_, estimate_topic_, host_->disk()->params(),
        host_->nic()->params(), obs_);
    bus_->subscribe(sensor_topic, formula);
  }

  // --- The paper's formula ---
  if (registry_ != nullptr) {
    const auto formula = actors_->spawn_in<RegressionFormula>(group_,
        ns_ + "formula-hpc", *bus_, estimate_topic_, registry_, obs_);
    bus_->subscribe(hpc_topic_, formula);
  }

  // --- Online calibration ---
  if (spec.with_calibration) {
    if (registry_ == nullptr) {
      throw std::invalid_argument(
          "Pipeline: with_calibration requires a model or registry");
    }
    // PowerSpy is the wall-power reference the paper trains against;
    // RAPL (package scope) is the fallback ground truth.
    const auto truth_topic = powerspy_topic ? powerspy_topic : rapl_topic;
    if (!truth_topic) {
      throw std::invalid_argument(
          "Pipeline: with_calibration requires with_powerspy or with_rapl");
    }
    with_calibration_ = true;
    calibration_topic_ = bus_->intern(ns_ + "calibration:updated");
    const auto calibrator = actors_->spawn_in<CalibrationActor>(group_,
        ns_ + "calibrator", *bus_, calibration_topic_, registry_,
        std::move(spec.calibration));
    bus_->subscribe(hpc_topic_, calibrator);
    bus_->subscribe(*truth_topic, calibrator);
  }

  // --- Aggregation ---
  Aggregator::GroupResolver group_of = [h = host_](std::int64_t pid) {
    const auto stat = h->proc_stat(pid);
    return stat ? stat->group : std::string();
  };
  aggregator_ = actors_->spawn_in<Aggregator>(group_, ns_ + "aggregator", *bus_,
                                              aggregated_topic_, spec.dimension,
                                              std::move(group_of), obs_);
  bus_->subscribe(estimate_topic_, aggregator_);

  // --- Declaratively attached baseline formulas ---
  for (auto& estimator : spec.estimators) add_estimator(std::move(estimator));
}

void Pipeline::monitor(std::vector<std::int64_t> pids) {
  targets_->all = false;
  targets_->fixed = std::move(pids);
}

void Pipeline::monitor_all() { targets_->all = true; }

std::uint64_t Pipeline::publish_due_ticks() {
  const util::TimestampNs now = host_->now_ns();
  const std::uint64_t due = ticker_.due(now);
  const bool observed = obs_ != nullptr && obs_->enabled();
  for (std::uint64_t i = 0; i < due; ++i) {
    MonitorTick tick{now};
    if (observed) {
      tick.seq = ++next_seq_;
      tick.wall_ns = obs::wall_now_ns();
      tick_counter_->add();
      obs_->trace.instant(tick_name_, tick.wall_ns, tick.seq);
    }
    bus_->publish(tick_topic_, tick);
  }
  return due;
}

void Pipeline::add_estimator(
    std::shared_ptr<const baselines::MachinePowerEstimator> estimator) {
  if (!estimator) throw std::invalid_argument("Pipeline::add_estimator: null estimator");
  const std::string name = ns_ + "formula-" + estimator->name();
  const auto formula = actors_->spawn_in<EstimatorFormula>(group_,
      name, *bus_, estimate_topic_, std::move(estimator), obs_);
  bus_->subscribe(hpc_topic_, formula);
}

void Pipeline::add_console_reporter(std::ostream& out) {
  const auto reporter =
      actors_->spawn_in<ConsoleReporter>(group_, ns_ + "reporter-console", out);
  bus_->subscribe(aggregated_topic_, reporter);
}

void Pipeline::add_csv_reporter(std::ostream& out) {
  const auto reporter = actors_->spawn_in<CsvReporter>(group_, ns_ + "reporter-csv", out);
  bus_->subscribe(aggregated_topic_, reporter);
}

void Pipeline::add_callback_reporter(CallbackReporter::Callback callback) {
  const auto reporter = actors_->spawn_in<CallbackReporter>(
      group_, ns_ + "reporter-callback", std::move(callback));
  bus_->subscribe(aggregated_topic_, reporter);
}

void Pipeline::add_model_update_callback(ModelUpdateCallback::Callback callback) {
  if (!with_calibration_) {
    throw std::logic_error(
        "Pipeline::add_model_update_callback: built without with_calibration");
  }
  const auto listener = actors_->spawn_in<ModelUpdateCallback>(group_,
      ns_ + "calibration-listener", std::move(callback));
  bus_->subscribe(calibration_topic_, listener);
}

void Pipeline::add_metrics_reporter(std::ostream& out, MetricsReporter::Format format,
                                    std::uint64_t every_n_ticks) {
  if (obs_ == nullptr) {
    throw std::logic_error(
        "Pipeline::add_metrics_reporter: built without spec.observability");
  }
  MetricsReporter::Options options;
  options.out = &out;
  options.format = format;
  options.every_n_ticks = every_n_ticks;
  const auto reporter =
      actors_->spawn_in<MetricsReporter>(group_, ns_ + "reporter-metrics", *obs_, options);
  bus_->subscribe(tick_topic_, reporter);
}

void Pipeline::add_remote_reporter(net::TelemetryClient& client) {
  const auto reporter =
      actors_->spawn_in<RemoteReporter>(group_, ns_ + "reporter-remote", client);
  bus_->subscribe(aggregated_topic_, reporter);
}

MemoryReporter& Pipeline::add_memory_reporter() {
  auto owned = std::make_unique<MemoryReporter>();
  MemoryReporter& ref = *owned;
  const auto reporter = actors_->spawn(ns_ + "reporter-memory", std::move(owned), group_);
  bus_->subscribe(aggregated_topic_, reporter);
  return ref;
}

void Pipeline::finish() {
  if (finished_) return;
  finished_ = true;
  actors_->stop(aggregator_);  // post_stop flushes pending groups.
}

}  // namespace powerapi::api
