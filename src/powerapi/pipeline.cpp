#include "powerapi/pipeline.h"

#include <stdexcept>
#include <utility>

#include "periph/disk.h"
#include "periph/nic.h"
#include "powerapi/remote_reporter.h"
#include "powermeter/powerspy.h"
#include "powermeter/rapl.h"
#include "util/rng.h"

namespace powerapi::api {

Pipeline::Pipeline(actors::EventBus& bus, os::MonitorableHost& host, PipelineSpec spec,
                   std::string ns)
    : bus_(&bus),
      host_(&host),
      ns_(std::move(ns)),
      registry_(std::move(spec.registry)),
      ticker_(host.now_ns(), spec.period),
      tick_topic_(bus.intern(ns_ + "tick")),
      aggregated_topic_(bus.intern(ns_ + "power:aggregated")),
      obs_(spec.observability),
      hpc_sensor_(host, obs_, ns_ + "sensor-hpc"),
      aggregator_(spec.dimension,
                  [h = host_](std::int64_t pid) {
                    const auto stat = h->proc_stat(pid);
                    return stat ? stat->group : std::string();
                  },
                  obs_, ns_ + "aggregator") {
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

  // --- Meter and IO sensors, each with its formula ---
  if (spec.with_powerspy) {
    auto meter = std::make_shared<powermeter::PowerSpy>(
        [h = host_] { return h->total_energy_joules(); },
        [h = host_] { return h->now_ns(); }, rng.fork(1));
    powerspy_sensor_.emplace(std::move(meter), obs_, ns_ + "sensor-powerspy");
    powerspy_formula_.emplace("powerspy", obs_, ns_ + "formula-powerspy");
  }
  if (spec.with_rapl) {
    auto msr = std::make_shared<powermeter::RaplMsr>(
        [h = host_] { return h->package_energy_joules(); },
        [h = host_] { return h->now_ns(); });
    rapl_sensor_.emplace(std::move(msr), obs_, ns_ + "sensor-rapl");
    rapl_formula_.emplace("rapl", obs_, ns_ + "formula-rapl");
  }
  if (spec.with_io && host_->disk() != nullptr) {
    io_sensor_.emplace(*host_, obs_, ns_ + "sensor-io");
    io_formula_.emplace(host_->disk()->params(), host_->nic()->params(), obs_,
                        ns_ + "formula-io");
  }

  // --- The paper's formula ---
  if (registry_ != nullptr) {
    regression_formula_.emplace(registry_, obs_, ns_ + "formula-hpc");
  }

  // --- Online calibration ---
  if (spec.with_calibration) {
    if (registry_ == nullptr) {
      throw std::invalid_argument(
          "Pipeline: with_calibration requires a model or registry");
    }
    // PowerSpy is the wall-power reference the paper trains against;
    // RAPL (package scope) is the fallback ground truth.
    if (!spec.with_powerspy && !spec.with_rapl) {
      throw std::invalid_argument(
          "Pipeline: with_calibration requires with_powerspy or with_rapl");
    }
    calibrator_.emplace(registry_, std::move(spec.calibration));
  }

  // One estimate slot per formula, in call order; add_estimator adds one
  // per baseline.
  estimates_.resize(static_cast<std::size_t>(powerspy_formula_.has_value()) +
                    rapl_formula_.has_value() + io_formula_.has_value() +
                    regression_formula_.has_value());

  // --- Declaratively attached baseline formulas ---
  for (auto& estimator : spec.estimators) add_estimator(std::move(estimator));
}

std::uint64_t Pipeline::run_due_ticks() {
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
    if (tick_tap_ != nullptr) tick_tap_->push_back(tick.seq);
    if (bus_->subscriber_count(tick_topic_) != 0) bus_->publish(tick_topic_, tick);
    run_tick(tick);
  }
  return due;
}

void Pipeline::run_tick(const MonitorTick& tick) {
  // 1. Sensors.
  const std::optional<SensorBatch> hpc = hpc_sensor_.sample(tick);
  const std::optional<SensorBatch> powerspy =
      powerspy_sensor_ ? powerspy_sensor_->sample(tick) : std::nullopt;
  const std::optional<SensorBatch> rapl =
      rapl_sensor_ ? rapl_sensor_->sample(tick) : std::nullopt;
  const std::optional<SensorBatch> io = io_sensor_ ? io_sensor_->sample(tick) : std::nullopt;

  // 2. Formulas, each on its sensor's batch, into its own estimate slot (a
  // slot whose sensor sampled nothing keeps no matrix: see below).
  std::size_t slot = 0;
  const auto estimate = [&](auto& formula, const std::optional<SensorBatch>& batch) {
    EstimateBatch& out = estimates_[slot++];
    if (batch) formula.estimate_into(*batch, out);
  };
  if (powerspy_formula_) estimate(*powerspy_formula_, powerspy);
  if (rapl_formula_) estimate(*rapl_formula_, rapl);
  if (io_formula_) estimate(*io_formula_, io);
  if (regression_formula_) estimate(*regression_formula_, hpc);
  for (EstimatorFormula& formula : estimator_formulas_) estimate(formula, hpc);

  // 3. Calibration, after this tick's regression estimate.
  if (calibrator_) {
    if (hpc) calibrator_->observe_features(*hpc);
    const std::optional<SensorBatch>& truth = powerspy_sensor_ ? powerspy : rapl;
    if (truth) calibrator_->observe_measured(*truth);
  }

  // 4-5. Aggregation, then the completed rows to the reporters. Each slot
  // lets go of its matrix once absorbed, so the sensors' pools reuse their
  // matrices next tick.
  rows_.clear();
  for (std::size_t i = 0; i < estimates_.size(); ++i) {
    aggregator_.absorb(estimates_[i], i, rows_);
    estimates_[i].features.reset();
  }
  report(rows_);
}

void Pipeline::report(const std::vector<AggregatedPower>& rows) {
  if (rows.empty()) return;
  const bool publish = bus_->subscriber_count(aggregated_topic_) != 0;
  for (const AggregatedPower& row : rows) {
    if (machine_tap_ != nullptr && FleetSum::counts(row)) machine_tap_->push_back(row);
    for (const auto& reporter : reporters_) reporter->report(row);
    if (publish) bus_->publish(aggregated_topic_, row);
  }
}

template <typename R, typename... Args>
R& Pipeline::attach(Args&&... args) {
  auto owned = std::make_unique<R>(std::forward<Args>(args)...);
  R& ref = *owned;
  reporters_.push_back(std::move(owned));
  return ref;
}

void Pipeline::add_estimator(
    std::shared_ptr<const baselines::MachinePowerEstimator> estimator) {
  if (!estimator) throw std::invalid_argument("Pipeline::add_estimator: null estimator");
  const std::string name = ns_ + "formula-" + estimator->name();
  estimator_formulas_.emplace_back(std::move(estimator), obs_, name);
  estimates_.emplace_back();
}

void Pipeline::add_console_reporter(std::ostream& out) { attach<ConsoleReporter>(out); }

void Pipeline::add_csv_reporter(std::ostream& out) { attach<CsvReporter>(out); }

void Pipeline::add_callback_reporter(CallbackReporter::Callback callback) {
  attach<CallbackReporter>(std::move(callback));
}

MemoryReporter& Pipeline::add_memory_reporter() { return attach<MemoryReporter>(); }

void Pipeline::add_remote_reporter(net::TelemetryClient& client) {
  attach<RemoteReporter>(client);
}

void Pipeline::add_model_update_callback(Calibrator::UpdateCallback callback) {
  if (!calibrator_) {
    throw std::logic_error(
        "Pipeline::add_model_update_callback: built without with_calibration");
  }
  calibrator_->on_update(std::move(callback));
}

void Pipeline::finish() {
  if (finished_) return;
  finished_ = true;
  rows_.clear();
  aggregator_.flush(rows_);
  report(rows_);
}

}  // namespace powerapi::api
