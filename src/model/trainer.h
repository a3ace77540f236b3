// The Figure 1 learning pipeline.
//
//   (1) run CPU- and memory-intensive workloads at every DVFS frequency
//   (2) record wall power with the (simulated) PowerSpy meter
//   (3) record HPC event rates over the same windows
//   (4) multivariate regression per frequency → the power model
//
// The trainer builds a private simulated System per frequency so sampling is
// hermetic: the idle floor and every ladder point are independent jobs, run
// on up to one thread per core. Their samples merge in ladder order, so the
// model does not depend on how many threads ran them.
#pragma once

#include <cstdint>
#include <vector>

#include "mathx/feature_selection.h"
#include "model/power_model.h"
#include "model/sample.h"
#include "simcpu/cpu_spec.h"
#include "simcpu/power_gt.h"
#include "util/units.h"
#include "workloads/stress.h"

namespace powerapi::model {

struct TrainerOptions {
  workloads::StressGridOptions grid;
  util::DurationNs idle_duration = util::seconds_to_ns(10);
  util::DurationNs settle = util::ms_to_ns(300);       ///< Discarded after each change.
  util::DurationNs sample_period = util::ms_to_ns(250);
  util::DurationNs point_duration = util::seconds_to_ns(2);  ///< Sampled part per cell.
  std::uint64_t seed = 42;

  /// Events used by the regression. Default: the paper's three generic
  /// counters (instructions, cache-references, cache-misses).
  std::vector<hpc::EventId> events{hpc::paper_events().begin(), hpc::paper_events().end()};

  /// When true, ignore `events` and auto-select by correlation over the
  /// pooled samples (the paper's Spearman future-work, experiment A1).
  bool auto_select_events = false;
  mathx::SelectionOptions selection;

  /// Constrain coefficients to be non-negative (a watt cannot be refunded
  /// per event). The paper's published coefficients are all positive.
  bool non_negative = true;
};

/// Per-frequency fit diagnostics, reported alongside the model.
struct FitReport {
  double frequency_hz = 0.0;
  std::size_t samples = 0;
  double r_squared = 0.0;
  double residual_rmse_watts = 0.0;
};

struct TrainingResult {
  CpuPowerModel model;
  SampleSet samples;
  std::vector<FitReport> reports;
  std::vector<hpc::EventId> selected_events;  ///< Post-selection event set.
};

/// Paper-faithful training configuration: the stress utility runs each
/// workload flat-out (no duty-cycle sweep), and the regression sees only the
/// three generic counters the paper selected. Duty-cycled server workloads
/// are therefore out-of-distribution at evaluation time — the main source of
/// the double-digit median error the paper reports on SPECjbb (Figure 3).
TrainerOptions paper_trainer_options();

class Trainer {
 public:
  Trainer(simcpu::CpuSpec spec, simcpu::GroundTruthParams ground_truth,
          TrainerOptions options);

  /// Sampling phase only (steps 1–3 of Figure 1), on min(hardware threads,
  /// ladder points + 1) threads, the caller included. Rethrows the first
  /// failing job's exception, in ladder order (the idle floor first).
  SampleSet collect() const;

  /// Regression phase only (step 4): fits per-frequency formulas.
  TrainingResult fit(const SampleSet& samples) const;

  /// The full pipeline.
  TrainingResult train() const {
    return fit(collect());
  }

 private:
  std::vector<TrainingSample> sample_frequency(double hz) const;
  double measure_idle() const;

  simcpu::CpuSpec spec_;
  simcpu::GroundTruthParams ground_truth_;
  TrainerOptions options_;
};

}  // namespace powerapi::model
