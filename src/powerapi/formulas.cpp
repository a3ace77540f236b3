#include "powerapi/formulas.h"

#include <utility>

namespace powerapi::api {

namespace {

constexpr std::string_view kEstimates = "pipeline.estimates";

/// The EstimateBatch over `batch`'s rows, watts still to fill.
EstimateBatch estimates_for(const SensorBatch& batch, std::string formula) {
  EstimateBatch out;
  out.timestamp = batch.timestamp;
  out.formula = std::move(formula);
  out.features = batch.features;
  out.seq = batch.seq;
  out.tick_wall_ns = batch.tick_wall_ns;
  return out;
}

}  // namespace

// --- RegressionFormula ---

RegressionFormula::RegressionFormula(std::shared_ptr<const model::ModelRegistry> registry,
                                     obs::Observability* obs, std::string_view name)
    : registry_(std::move(registry)), stage_(obs, name, kEstimates) {}

EstimateBatch RegressionFormula::estimate(const SensorBatch& batch) {
  // One SensorBatch → one EstimateBatch, evaluated as a coefficient sweep
  // down the rate lanes.
  if (batch.sensor != SensorKind::kHpc || !batch.features) return {};
  const auto span = stage_.span(batch.seq);
  // One immutable snapshot serves this whole batch; a concurrent swap
  // affects the next batch, never a half-read model.
  const model::ModelRegistry::Snapshot& snapshot = registry_->refresh(pinned_);
  const model::FeatureMatrix& features = *batch.features;

  EstimateBatch out = estimates_for(batch, "powerapi-hpc");
  out.model_version = snapshot.version;
  out.watts.assign(features.rows(), 0.0);
  // An empty model (cold-start calibration: nothing learned yet) estimates
  // the idle floor only until the first swap fills in formulas.
  if (!snapshot.model.empty()) {
    snapshot.model.estimate_activity_rows(features, out.watts);
  }
  // Machine rows carry the idle floor on top of activity (idle + activity,
  // in that order).
  for (std::size_t i = 0; i < features.rows(); ++i) {
    if (features.pid(i) < 0) out.watts[i] = snapshot.model.idle_watts() + out.watts[i];
  }
  stage_.count(features.rows());
  return out;
}

// --- EstimatorFormula ---

EstimatorFormula::EstimatorFormula(
    std::shared_ptr<const baselines::MachinePowerEstimator> estimator,
    obs::Observability* obs, std::string_view name)
    : estimator_(std::move(estimator)), stage_(obs, name, kEstimates) {}

EstimateBatch EstimatorFormula::estimate(const SensorBatch& batch) {
  // Baselines are machine models: only the batch's machine row produces an
  // estimate, gathered into the feature struct the estimator interface
  // takes and returned over a 1-row matrix of its own.
  if (batch.sensor != SensorKind::kHpc || !batch.features) return {};
  const auto span = stage_.span(batch.seq);
  const model::FeatureMatrix& features = *batch.features;
  const std::size_t machine = features.find_machine_row();
  if (machine == features.rows()) return {};

  auto row = std::make_shared<model::FeatureMatrix>();
  row->frequency_hz = features.frequency_hz;
  row->resize(1);
  row->copy_row_from(features, machine, 0);

  EstimateBatch out = estimates_for(batch, estimator_->name());
  out.features = std::move(row);
  out.watts.assign(1, estimator_->estimate(features.row(machine)));
  stage_.count();
  return out;
}

// --- IoFormula ---

IoFormula::IoFormula(periph::DiskParams disk, periph::NicParams nic,
                     obs::Observability* obs, std::string_view name)
    : disk_(disk), nic_(nic), stage_(obs, name, kEstimates) {}

EstimateBatch IoFormula::estimate(const SensorBatch& batch) {
  if (batch.sensor != SensorKind::kIo || !batch.features) return {};
  const auto span = stage_.span(batch.seq);
  const model::FeatureMatrix& features = *batch.features;
  const double* disk_iops = features.lane(model::FeatureMatrix::kDiskIopsLane);
  const double* disk_bytes = features.lane(model::FeatureMatrix::kDiskBytesLane);
  const double* net_bytes = features.lane(model::FeatureMatrix::kNetBytesLane);

  EstimateBatch out = estimates_for(batch, "io-datasheet");
  out.watts.resize(features.rows());
  for (std::size_t i = 0; i < features.rows(); ++i) {
    // Base power assumes the common steady states (platters spinning, link
    // awake); transition states (spin-up surges, LPI) are below this
    // formula's resolution — deliberately, as a datasheet model would be.
    double watts = disk_.idle_spinning_watts + nic_.link_active_watts;
    watts += disk_iops[i] * disk_.joules_per_op;
    watts += disk_bytes[i] / 1e6 * disk_.joules_per_megabyte;
    // Without a tx/rx split in the counters, charge the average of the two.
    watts += net_bytes[i] / 1e6 *
             (nic_.joules_per_megabyte_tx + nic_.joules_per_megabyte_rx) / 2.0;
    out.watts[i] = watts;
  }
  stage_.count(features.rows());
  return out;
}

// --- MeterFormula ---

MeterFormula::MeterFormula(std::string formula_name, obs::Observability* obs,
                           std::string_view name)
    : formula_name_(std::move(formula_name)), stage_(obs, name, kEstimates) {}

EstimateBatch MeterFormula::estimate(const SensorBatch& batch) {
  if (!batch.features) return {};
  const auto span = stage_.span(batch.seq);
  const model::FeatureMatrix& features = *batch.features;
  const double* measured = features.lane(model::FeatureMatrix::kMeasuredWattsLane);

  EstimateBatch out = estimates_for(batch, formula_name_);
  out.watts.assign(measured, measured + features.rows());
  stage_.count(features.rows());
  return out;
}

}  // namespace powerapi::api
