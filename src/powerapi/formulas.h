// Formula stages: turn a SensorBatch into an EstimateBatch — one shape in,
// one out. The Pipeline calls estimate_into() directly, in a fixed order,
// with the batch of the sensor each formula consumes (a batch names no
// sensor: the call site decides), into an EstimateBatch slot it owns per
// formula, so a steady-state tick reuses the slot's watts capacity;
// estimate(formula, batch) is the by-value form. A batch without a matrix
// (or without the rows a formula needs) estimates nothing: the result has
// no matrix and no rows.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "baselines/cpuload_model.h"
#include "baselines/estimator.h"
#include "model/model_registry.h"
#include "model/power_model.h"
#include "periph/disk.h"
#include "periph/nic.h"
#include "powerapi/messages.h"
#include "powerapi/stage_obs.h"

namespace powerapi::api {

/// The paper's formula: per-frequency linear regression over HPC rates.
/// Machine-scope rows get idle + activity; process rows get activity only
/// (the paper attributes the idle floor to the machine, not to any
/// process).
///
/// The formula does not own a model copy: it reads the registry's current
/// snapshot per batch through its own pin (ModelRegistry::refresh), so a
/// Calibrator refit (or any other registry.publish) takes effect on the
/// very next estimate, and a fleet's formulas can all share one registry
/// without writing to it. Every estimate carries the snapshot version that
/// produced it.
class RegressionFormula final {
 public:
  explicit RegressionFormula(std::shared_ptr<const model::ModelRegistry> registry,
                             obs::Observability* obs = nullptr,
                             std::string_view name = {});

  /// Estimates every row of an HPC sensor batch.
  void estimate_into(const SensorBatch& batch, EstimateBatch& out);

 private:
  std::shared_ptr<const model::ModelRegistry> registry_;
  /// estimate_into()'s pin on the deployed snapshot (ModelRegistry::refresh).
  std::shared_ptr<const model::ModelRegistry::Snapshot> pinned_;
  StageObs stage_;
};

/// Adapter formula around any baseline MachinePowerEstimator (CPU-load,
/// Bertran, HAPPY). Machine scope only — these models are machine models —
/// so it estimates over a 1-row matrix holding the HPC batch's machine row.
class EstimatorFormula final {
 public:
  explicit EstimatorFormula(
      std::shared_ptr<const baselines::MachinePowerEstimator> estimator,
      obs::Observability* obs = nullptr, std::string_view name = {});

  void estimate_into(const SensorBatch& batch, EstimateBatch& out);

 private:
  std::shared_ptr<const baselines::MachinePowerEstimator> estimator_;
  std::string formula_name_;  ///< estimator_->name(), read once.
  PooledMatrix row_;          ///< The 1-row matrix of the machine row.
  StageObs stage_;
};

/// Datasheet-based IO power formula: unlike CPU cores, disk and NIC power
/// characteristics are published by their vendors, so the component model
/// needs no regression — base power plus per-op and per-byte energies from
/// the device parameters. Consumes IO sensor batches, emits
/// "io-datasheet" estimates of the peripheral power share over the same
/// rows.
class IoFormula final {
 public:
  IoFormula(periph::DiskParams disk, periph::NicParams nic,
            obs::Observability* obs = nullptr, std::string_view name = {});

  void estimate_into(const SensorBatch& batch, EstimateBatch& out);

 private:
  periph::DiskParams disk_;
  periph::NicParams nic_;
  StageObs stage_;
};

/// Pass-through formula for direct meters (PowerSpy, RAPL): the
/// measured-watts lane IS the estimate — with the meter's scope limitation
/// (wall or package, machine-wide).
class MeterFormula final {
 public:
  explicit MeterFormula(std::string formula_name, obs::Observability* obs = nullptr,
                        std::string_view name = {});

  void estimate_into(const SensorBatch& batch, EstimateBatch& out);

 private:
  std::string formula_name_;
  StageObs stage_;
};

/// The by-value form of `formula.estimate_into(batch, out)`, for callers
/// outside a pipeline.
template <typename Formula>
EstimateBatch estimate(Formula&& formula, const SensorBatch& batch) {
  EstimateBatch out;
  formula.estimate_into(batch, out);
  return out;
}

}  // namespace powerapi::api
