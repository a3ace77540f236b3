#include "powerapi/calibration.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/logging.h"

namespace powerapi::api {

namespace {
/// Unmatched pending pairs older than this many entries are abandoned (a
/// dropped meter sample leaves a feature report forever half-paired).
constexpr std::size_t kMaxPending = 64;

/// The index of `batch`'s machine row, if it has a matrix with one. Only
/// machine rows pair: the HPC batch's feature row with the meter batch's
/// measured watts at the same tick timestamp.
std::optional<std::size_t> machine_row(const SensorBatch& batch) {
  if (!batch.features) return std::nullopt;
  const std::size_t machine = batch.features->find_machine_row();
  if (machine == batch.features->rows()) return std::nullopt;
  return machine;
}

}  // namespace

Calibrator::Calibrator(std::shared_ptr<model::ModelRegistry> registry,
                       CalibrationOptions options)
    : registry_(std::move(registry)), options_(std::move(options)) {
  if (!registry_) throw std::invalid_argument("Calibrator: null registry");
  if (options_.events.empty()) {
    options_.events.assign(hpc::paper_events().begin(), hpc::paper_events().end());
  }
  if (options_.drift_window == 0) {
    throw std::invalid_argument("Calibrator: zero drift window");
  }
  if (options_.min_samples_per_fit < options_.events.size() + 2) {
    // Below this the fit is under-determined by construction; raise the gate.
    options_.min_samples_per_fit = options_.events.size() + 2;
  }
  pending_.reserve(kMaxPending + 1);
  drift_errors_.assign(options_.drift_window, 0.0);
  row_.assign(options_.events.size(), 0.0);
}

void Calibrator::on_update(UpdateCallback callback) {
  callbacks_.push_back(std::move(callback));
}

void Calibrator::observe_features(const SensorBatch& hpc) {
  const std::optional<std::size_t> machine = machine_row(hpc);
  if (!machine) return;
  const std::size_t index = pending_at(hpc.timestamp);
  pending_[index].features = hpc.features->row(*machine);
  settle(index);
}

void Calibrator::observe_measured(const SensorBatch& meter) {
  const std::optional<std::size_t> machine = machine_row(meter);
  if (!machine) return;
  const std::size_t index = pending_at(meter.timestamp);
  pending_[index].measured_watts =
      meter.features->lane(model::FeatureMatrix::kMeasuredWattsLane)[*machine];
  settle(index);
}

void Calibrator::settle(std::size_t index) {
  complete_if_paired(index);
  if (pending_.size() > kMaxPending) {
    pending_.erase(pending_.begin(), pending_.end() - kMaxPending);
  }
}

std::size_t Calibrator::pending_at(util::TimestampNs timestamp) {
  // Ticks run in order, so the entry is the last one or a new last one.
  std::size_t at = pending_.size();
  while (at > 0 && pending_[at - 1].timestamp >= timestamp) --at;
  if (at == pending_.size() || pending_[at].timestamp != timestamp) {
    pending_.insert(pending_.begin() + static_cast<std::ptrdiff_t>(at),
                    Pending{timestamp, std::nullopt, std::nullopt});
  }
  return at;
}

void Calibrator::complete_if_paired(std::size_t index) {
  const Pending& entry = pending_[index];
  if (!entry.features || !entry.measured_watts) return;
  const util::TimestampNs timestamp = entry.timestamp;
  const model::FeatureVector features = *entry.features;
  const double watts = *entry.measured_watts;
  // Everything at or before a completed pair is done: sensors sample once
  // per tick, and a host's ticks run in order.
  pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(index) + 1);
  on_pair(timestamp, features, watts);
}

void Calibrator::push_drift_error(double error) {
  drift_error_sum_ += error;
  const std::size_t window = drift_errors_.size();
  if (drift_count_ < window) {
    drift_errors_[(drift_head_ + drift_count_) % window] = error;
    ++drift_count_;
    return;
  }
  // Full: the new error replaces the oldest.
  drift_error_sum_ -= drift_errors_[drift_head_];
  drift_errors_[drift_head_] = error;
  drift_head_ = (drift_head_ + 1) % window;
}

void Calibrator::on_pair(util::TimestampNs timestamp,
                         const model::FeatureVector& features, double measured_watts) {
  const model::ModelRegistry::Snapshot& snapshot = registry_->refresh(pinned_);

  // Rolling drift: how far is the deployed model from the meter right now?
  const double estimate = snapshot.model.empty()
                              ? snapshot.model.idle_watts()
                              : snapshot.model.estimate_machine(features);
  push_drift_error(std::abs(estimate - measured_watts));

  // Accumulate the paired sample into its frequency bin's streaming fit.
  const std::int64_t key = bin_key(features.frequency_hz);
  auto it = bins_.find(key);
  if (it == bins_.end()) {
    it = bins_.emplace(key, Bin{features.frequency_hz,
                                mathx::IncrementalOls(options_.events.size())})
             .first;
    if (options_.forgetting != 1.0) it->second.accumulator.set_forgetting(options_.forgetting);
  }
  for (std::size_t c = 0; c < options_.events.size(); ++c) {
    row_[c] = model::rate_of(features.rates, options_.events[c]);
  }
  it->second.accumulator.add(row_, measured_watts - snapshot.model.idle_watts());
  ++paired_samples_;

  // Drift trigger: rolling window full and beyond threshold, with the
  // refit-interval floor respected.
  if (drift_count_ < options_.drift_window) return;
  if (drift_error_sum_ / static_cast<double>(drift_count_) <=
      options_.drift_threshold_watts) {
    return;
  }
  if (last_refit_ && timestamp - *last_refit_ < options_.min_refit_interval) return;
  refit(timestamp, features);
}

void Calibrator::refit(util::TimestampNs timestamp, const model::FeatureVector& latest) {
  // Warmup gate, applied to the regime that is actually drifting: the bin
  // the latest sample landed in must be ready, or the swap would not
  // address the error that triggered it.
  const auto latest_it = bins_.find(bin_key(latest.frequency_hz));
  if (latest_it == bins_.end()) return;
  const auto ready = [this](const Bin& bin) {
    return bin.accumulator.count() >= options_.min_samples_per_fit &&
           bin.accumulator.well_determined();
  };
  if (!ready(latest_it->second)) return;

  const auto snapshot = registry_->current();
  // Start from the deployed formulas; every ready bin replaces (or adds)
  // its frequency's formula, bins still warming up keep the old one.
  std::vector<model::FrequencyFormula> formulas = snapshot->model.formulas();
  std::size_t bins_refit = 0;
  for (const auto& [key, bin] : bins_) {
    if (!ready(bin)) continue;
    mathx::FitResult fit;
    try {
      fit = options_.non_negative ? bin.accumulator.solve_nonnegative()
                                  : bin.accumulator.solve();
    } catch (const std::exception& error) {
      POWERAPI_LOG_DEBUG("calibration")
          << "skipping bin " << bin.frequency_hz << " Hz: " << error.what();
      continue;
    }
    model::FrequencyFormula formula;
    formula.frequency_hz = bin.frequency_hz;
    formula.events = options_.events;
    formula.coefficients = fit.coefficients;
    formula.r_squared = fit.r_squared;

    const auto existing = std::find_if(
        formulas.begin(), formulas.end(), [&](const model::FrequencyFormula& f) {
          return bin_key(f.frequency_hz) == key;
        });
    if (existing != formulas.end()) {
      *existing = std::move(formula);
    } else {
      formulas.push_back(std::move(formula));
    }
    ++bins_refit;
  }
  if (bins_refit == 0) return;

  const double pre_swap_error = drift_error_sum_ / static_cast<double>(drift_count_);
  const auto version = registry_->publish(
      model::CpuPowerModel(snapshot->model.idle_watts(), std::move(formulas)));
  last_refit_ = timestamp;
  // The error window measured the OLD model; start clean so the next
  // trigger reflects the swapped-in fit.
  drift_head_ = 0;
  drift_count_ = 0;
  drift_error_sum_ = 0.0;

  POWERAPI_LOG_INFO("calibration")
      << "swapped model v" << version << " (" << bins_refit << " bins, rolling error "
      << pre_swap_error << " W)";

  ModelUpdated update;
  update.timestamp = timestamp;
  update.version = version;
  update.pre_swap_error_watts = pre_swap_error;
  update.samples_used = paired_samples_;
  update.bins_refit = bins_refit;
  for (const UpdateCallback& callback : callbacks_) callback(update);
}

}  // namespace powerapi::api
