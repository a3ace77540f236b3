#include "powerapi/formulas.h"

#include <utility>

namespace powerapi::api {

namespace {

constexpr std::string_view kEstimates = "pipeline.estimates";

/// Points `out` at `batch`'s rows as `formula`'s estimates, watts still to
/// fill.
void estimates_for(const SensorBatch& batch, std::string_view formula,
                   EstimateBatch& out) {
  out.timestamp = batch.timestamp;
  out.formula = formula;
  out.model_version = 0;
  out.features = batch.features;
  out.seq = batch.seq;
  out.tick_wall_ns = batch.tick_wall_ns;
}

/// Leaves `out` without a matrix and without rows: the batch has no rows
/// the formula can estimate.
void no_estimates(EstimateBatch& out) {
  out.features.reset();
  out.watts.clear();
}

}  // namespace

// --- RegressionFormula ---

RegressionFormula::RegressionFormula(std::shared_ptr<const model::ModelRegistry> registry,
                                     obs::Observability* obs, std::string_view name)
    : registry_(std::move(registry)), stage_(obs, name, kEstimates) {}

void RegressionFormula::estimate_into(const SensorBatch& batch, EstimateBatch& out) {
  // One SensorBatch → one EstimateBatch, evaluated as a coefficient sweep
  // down the rate lanes.
  if (!batch.features) return no_estimates(out);
  const auto span = stage_.span(batch.seq);
  // One immutable snapshot serves this whole batch; a concurrent swap
  // affects the next batch, never a half-read model.
  const model::ModelRegistry::Snapshot& snapshot = registry_->refresh(pinned_);
  const model::FeatureMatrix& features = *batch.features;

  estimates_for(batch, "powerapi-hpc", out);
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
}

// --- EstimatorFormula ---

EstimatorFormula::EstimatorFormula(
    std::shared_ptr<const baselines::MachinePowerEstimator> estimator,
    obs::Observability* obs, std::string_view name)
    : estimator_(std::move(estimator)),
      formula_name_(estimator_->name()),
      stage_(obs, name, kEstimates) {}

void EstimatorFormula::estimate_into(const SensorBatch& batch, EstimateBatch& out) {
  // Baselines are machine models: only the batch's machine row produces an
  // estimate, gathered into the feature struct the estimator interface
  // takes and returned over a 1-row matrix of its own.
  if (!batch.features) return no_estimates(out);
  const auto span = stage_.span(batch.seq);
  const model::FeatureMatrix& features = *batch.features;
  const std::size_t machine = features.find_machine_row();
  if (machine == features.rows()) return no_estimates(out);

  model::FeatureMatrix& row = row_.next(1);
  row.frequency_hz = features.frequency_hz;
  row.copy_row_from(features, machine, 0);

  estimates_for(batch, formula_name_, out);
  out.features = row_.share();
  out.watts.assign(1, estimator_->estimate(features.row(machine)));
  stage_.count();
}

// --- IoFormula ---

IoFormula::IoFormula(periph::DiskParams disk, periph::NicParams nic,
                     obs::Observability* obs, std::string_view name)
    : disk_(disk), nic_(nic), stage_(obs, name, kEstimates) {}

void IoFormula::estimate_into(const SensorBatch& batch, EstimateBatch& out) {
  if (!batch.features) return no_estimates(out);
  const auto span = stage_.span(batch.seq);
  const model::FeatureMatrix& features = *batch.features;
  const double* disk_iops = features.lane(model::FeatureMatrix::kDiskIopsLane);
  const double* disk_bytes = features.lane(model::FeatureMatrix::kDiskBytesLane);
  const double* net_bytes = features.lane(model::FeatureMatrix::kNetBytesLane);

  estimates_for(batch, "io-datasheet", out);
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
}

// --- MeterFormula ---

MeterFormula::MeterFormula(std::string formula_name, obs::Observability* obs,
                           std::string_view name)
    : formula_name_(std::move(formula_name)), stage_(obs, name, kEstimates) {}

void MeterFormula::estimate_into(const SensorBatch& batch, EstimateBatch& out) {
  if (!batch.features) return no_estimates(out);
  const auto span = stage_.span(batch.seq);
  const model::FeatureMatrix& features = *batch.features;
  const double* measured = features.lane(model::FeatureMatrix::kMeasuredWattsLane);

  estimates_for(batch, formula_name_, out);
  out.watts.assign(measured, measured + features.rows());
  stage_.count(features.rows());
}

}  // namespace powerapi::api
