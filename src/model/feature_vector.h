// The one feature representation of the model stack.
//
// Every consumer of counter-derived features — the offline Trainer, the
// online HpcSensor, the baseline estimators and the experiment harnesses —
// used to carry its own copy of the same four fields (frequency, event
// rates, utilization, SMT co-residency). FeatureVector is that shared
// layer: TrainingSample derives from it, FeatureMatrix::row() gathers one
// from a sensor batch, and estimators consume it directly, so a sample
// flows from sensor to regression to estimate without field-by-field
// copying.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "hpc/events.h"

namespace powerapi::model {

/// Per-second event rates over one sampling window.
using EventRates = std::array<double, hpc::kEventCount>;

inline double rate_of(const EventRates& rates, hpc::EventId id) noexcept {
  return rates[static_cast<std::size_t>(id)];
}
inline void set_rate(EventRates& rates, hpc::EventId id, double value) noexcept {
  rates[static_cast<std::size_t>(id)] = value;
}

/// Converts a cumulative-counter delta over `seconds` into rates.
EventRates rates_from_delta(const hpc::EventValues& delta, double seconds);

/// The features every power formula consumes. One window's worth of signal
/// for one target (process or machine scope).
struct FeatureVector {
  double frequency_hz = 0.0;
  EventRates rates{};

  // Extra signals used by the baseline models (not generic HPC events):
  /// CPU utilization over the window, 0..1 (Versick-style CPU-load models).
  double utilization = 0.0;
  /// SMT co-resident cycles per second (the HAPPY model's scheduler signal).
  double smt_shared_cycles_per_sec = 0.0;
};

/// Builds the feature vector from a window of cumulative-counter deltas:
/// event rates, SMT co-residency rate and the observed frequency. The
/// utilization field is left for the caller (machine vs process scope
/// derive it differently — see machine_utilization).
FeatureVector extract_features(const hpc::EventValues& delta,
                               std::uint64_t smt_cycles_delta,
                               double window_seconds, double frequency_hz);

/// Machine-scope utilization exactly as top(1) derives it: busy cycles per
/// second over available cycles per second. `frequency_hz` is the rate the
/// caller considers "available" — the pinned nominal frequency during
/// training, the currently governed frequency during monitoring.
double machine_utilization(const EventRates& rates, double frequency_hz,
                           std::size_t hw_threads) noexcept;

}  // namespace powerapi::model
