// Online model calibration: the in-pipeline learn→deploy loop.
//
// The offline Trainer (Figure 1) learns the per-frequency regression once,
// against a hermetic stress sweep; counter-based models drift as the real
// workload mix departs from that sweep. The Calibrator closes the loop
// inside the running pipeline: it pairs the HPC sensor's machine-scope
// feature rows with the meter's ground-truth watts (PowerSpy or RAPL, on
// the same tick timestamps), accumulates per-frequency streaming
// regressions, and — when the rolling estimate-vs-ground-truth error drifts
// beyond a threshold — refits and atomically swaps the ModelRegistry that
// every RegressionFormula reads through. A warmup gate keeps an
// under-determined fit from ever being swapped in.
//
//   HpcSensor batch ───────┐
//                          ├─→ Calibrator ──(registry.publish)──→ RegressionFormula
//   PowerSpy/RAPL batch ───┘       │                               (from the next tick)
//                                  └─→ update callbacks (ModelUpdated)
//
// The Pipeline calls observe_features() with the HPC batch, then
// observe_measured() with the ground-truth batch, after the tick's
// regression estimate, so a swap at tick t first shows in tick t+1's
// estimates.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "hpc/events.h"
#include "mathx/incremental_ols.h"
#include "model/feature_vector.h"
#include "model/model_registry.h"
#include "powerapi/messages.h"
#include "util/units.h"

namespace powerapi::api {

struct CalibrationOptions {
  /// Events the refit formulas regress over; empty → the paper's three
  /// generic counters.
  std::vector<hpc::EventId> events;
  /// Warmup gate: a frequency bin is only refit once its accumulator has
  /// this many paired samples AND is numerically well-determined.
  std::size_t min_samples_per_fit = 16;
  /// Rolling |estimate − ground truth| window length (paired samples).
  std::size_t drift_window = 12;
  /// Mean rolling error (watts) beyond which a refit is forced.
  double drift_threshold_watts = 2.0;
  /// Floor between swaps, on the host clock — keeps calibration cheap even
  /// when the error stays high (e.g. an unlearnable workload).
  util::DurationNs min_refit_interval = util::seconds_to_ns(2);
  /// Recursive-least-squares forgetting factor per paired sample, (0, 1].
  /// 1 keeps all history; smaller re-weights toward recent windows.
  double forgetting = 1.0;
  /// Constrain refit coefficients to be non-negative (as the Trainer does:
  /// a watt cannot be refunded per event).
  bool non_negative = true;
};

/// Passed to every update callback after a registry swap.
struct ModelUpdated {
  util::TimestampNs timestamp = 0;
  std::uint64_t version = 0;            ///< The registry version swapped in.
  double pre_swap_error_watts = 0.0;    ///< Rolling error that triggered it.
  std::size_t samples_used = 0;         ///< Paired samples absorbed so far.
  std::size_t bins_refit = 0;           ///< Frequency bins with new formulas.
};

/// Pairs the HPC batch's machine row (observe_features) with the meter
/// batch's measured watts (observe_measured) by tick timestamp, maintains
/// one IncrementalOls per observed frequency bin, and swaps the registry on
/// drift. One per host pipeline, called only by the thread that runs that
/// host: the streaming state needs no locks, and timestamp-keyed pairing
/// makes the result independent of hpc-vs-meter call order. Pending pairs,
/// the drift window and the regression row live in buffers sized at
/// construction, so a tick that pairs without refitting allocates nothing
/// (a frequency bin's first pair and a refit do).
class Calibrator final {
 public:
  using UpdateCallback = std::function<void(const ModelUpdated&)>;

  Calibrator(std::shared_ptr<model::ModelRegistry> registry, CalibrationOptions options);

  /// Absorbs the machine row of an HPC sensor batch as the features of its
  /// tick's pair.
  void observe_features(const SensorBatch& hpc);
  /// Absorbs the machine row's measured watts of a meter (PowerSpy or
  /// RAPL) batch as the ground truth of its tick's pair.
  void observe_measured(const SensorBatch& meter);

  /// Calls `callback` after every swap, on the thread that observed the
  /// batch completing the triggering pair, in registration order.
  void on_update(UpdateCallback callback);

 private:
  struct Pending {
    util::TimestampNs timestamp = 0;
    std::optional<model::FeatureVector> features;
    std::optional<double> measured_watts;
  };
  struct Bin {
    double frequency_hz = 0.0;
    mathx::IncrementalOls accumulator;
  };

  /// Frequency bins are quantized to MHz: governors dither around ladder
  /// points, and sub-MHz distinctions would shatter the sample budget.
  static std::int64_t bin_key(double hz) noexcept {
    return static_cast<std::int64_t>(hz / 1e6 + 0.5);
  }

  /// The index of the pending entry at `timestamp`, inserted in timestamp
  /// order if new.
  std::size_t pending_at(util::TimestampNs timestamp);
  /// If the pending entry at `index` now has both halves, erases every
  /// pending entry at or before it and feeds the pair to on_pair.
  void complete_if_paired(std::size_t index);
  /// complete_if_paired(index), then abandons all but the newest
  /// kMaxPending half-paired entries.
  void settle(std::size_t index);
  /// Adds one error to the rolling drift window.
  void push_drift_error(double error);
  void on_pair(util::TimestampNs timestamp, const model::FeatureVector& features,
               double measured_watts);
  void refit(util::TimestampNs timestamp, const model::FeatureVector& latest);

  std::shared_ptr<model::ModelRegistry> registry_;
  /// on_pair's pin on the deployed snapshot (ModelRegistry::refresh).
  std::shared_ptr<const model::ModelRegistry::Snapshot> pinned_;
  CalibrationOptions options_;

  /// Half-paired ticks in timestamp order, at most kMaxPending of them
  /// (capacity reserved at construction).
  std::vector<Pending> pending_;
  std::map<std::int64_t, Bin> bins_;
  /// The rolling drift window: a ring of drift_window errors, the oldest at
  /// drift_head_.
  std::vector<double> drift_errors_;
  std::size_t drift_head_ = 0;
  std::size_t drift_count_ = 0;
  double drift_error_sum_ = 0.0;
  std::vector<double> row_;  ///< on_pair's regression row, one per event.
  std::uint64_t paired_samples_ = 0;
  std::optional<util::TimestampNs> last_refit_;
  std::vector<UpdateCallback> callbacks_;
};

}  // namespace powerapi::api
