// Online model calibration: the in-pipeline learn→deploy loop.
//
// The offline Trainer (Figure 1) learns the per-frequency regression once,
// against a hermetic stress sweep; counter-based models drift as the real
// workload mix departs from that sweep. The CalibrationActor closes the
// loop inside the running pipeline: it pairs the HPC sensor's machine-scope
// feature rows with the meter's ground-truth watts (PowerSpy or RAPL, on
// the same tick timestamps), accumulates per-frequency streaming
// regressions, and — when the rolling estimate-vs-ground-truth error drifts
// beyond a threshold — refits and atomically swaps the ModelRegistry that
// every RegressionFormula reads through. A warmup gate keeps an
// under-determined fit from ever being swapped in.
//
//   sensor:hpc ──┐
//                ├─→ CalibrationActor ──(registry.publish)──→ RegressionFormula
//   sensor:powerspy ┘        │
//                            └─→ "calibration:updated" (ModelUpdated)
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "actors/actor.h"
#include "actors/event_bus.h"
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

/// Published on "calibration:updated" after every registry swap.
struct ModelUpdated {
  util::TimestampNs timestamp = 0;
  std::uint64_t version = 0;            ///< The registry version swapped in.
  double pre_swap_error_watts = 0.0;    ///< Rolling error that triggered it.
  std::size_t samples_used = 0;         ///< Paired samples absorbed so far.
  std::size_t bins_refit = 0;           ///< Frequency bins with new formulas.
};

/// Pairs the HPC batch's machine row with the meter batch's measured watts
/// (told apart by SensorBatch::sensor) by tick timestamp, maintains
/// one IncrementalOls per observed frequency bin, and swaps the registry on
/// drift. Single actor: the streaming state needs no locks even when host
/// slices drain in parallel, and timestamp-keyed pairing makes the result
/// independent of hpc-vs-meter arrival order.
class CalibrationActor final : public actors::Actor {
 public:
  CalibrationActor(actors::EventBus& bus, actors::EventBus::TopicId out_topic,
                   std::shared_ptr<model::ModelRegistry> registry,
                   CalibrationOptions options);

  void receive(actors::Envelope& envelope) override;

 private:
  struct Pending {
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

  /// If the pending entry at `timestamp` now has both halves, erases every
  /// pending entry at or before it and feeds the pair to on_pair.
  void complete_if_paired(util::TimestampNs timestamp, Pending& entry);
  void on_pair(util::TimestampNs timestamp, const model::FeatureVector& features,
               double measured_watts);
  void refit(util::TimestampNs timestamp, const model::FeatureVector& latest);

  actors::EventBus* bus_;
  actors::EventBus::TopicId out_topic_;
  std::shared_ptr<model::ModelRegistry> registry_;
  /// on_pair's pin on the deployed snapshot (ModelRegistry::refresh).
  std::shared_ptr<const model::ModelRegistry::Snapshot> pinned_;
  CalibrationOptions options_;

  std::map<util::TimestampNs, Pending> pending_;
  std::map<std::int64_t, Bin> bins_;
  std::deque<double> drift_errors_;
  double drift_error_sum_ = 0.0;
  std::uint64_t paired_samples_ = 0;
  std::optional<util::TimestampNs> last_refit_;
};

/// Invokes a user callback per ModelUpdated — how examples and embedders
/// observe swaps (Pipeline::add_model_update_callback spawns one).
class ModelUpdateCallback final : public actors::Actor {
 public:
  using Callback = std::function<void(const ModelUpdated&)>;
  explicit ModelUpdateCallback(Callback callback) : callback_(std::move(callback)) {}

  void receive(actors::Envelope& envelope) override {
    if (const auto* update = envelope.payload.get<ModelUpdated>()) callback_(*update);
  }

 private:
  Callback callback_;
};

}  // namespace powerapi::api
