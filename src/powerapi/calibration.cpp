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
}  // namespace

CalibrationActor::CalibrationActor(actors::EventBus& bus,
                                   actors::EventBus::TopicId out_topic,
                                   std::shared_ptr<model::ModelRegistry> registry,
                                   CalibrationOptions options)
    : bus_(&bus),
      out_topic_(out_topic),
      registry_(std::move(registry)),
      options_(std::move(options)) {
  if (!registry_) throw std::invalid_argument("CalibrationActor: null registry");
  if (options_.events.empty()) {
    options_.events.assign(hpc::paper_events().begin(), hpc::paper_events().end());
  }
  if (options_.drift_window == 0) {
    throw std::invalid_argument("CalibrationActor: zero drift window");
  }
  if (options_.min_samples_per_fit < options_.events.size() + 2) {
    // Below this the fit is under-determined by construction; raise the gate.
    options_.min_samples_per_fit = options_.events.size() + 2;
  }
}

void CalibrationActor::receive(actors::Envelope& envelope) {
  // Only machine rows pair: the HPC batch's feature row with the meter
  // batch's measured watts at the same tick timestamp.
  const auto* batch = envelope.payload.get<SensorBatch>();
  if (batch == nullptr || !batch->features) return;
  const model::FeatureMatrix& rows = *batch->features;
  const std::size_t machine = rows.find_machine_row();
  if (machine == rows.rows()) return;

  Pending* entry = nullptr;
  switch (batch->sensor) {
    case SensorKind::kHpc:
      entry = &pending_[batch->timestamp];
      entry->features = rows.row(machine);
      break;
    case SensorKind::kPowerSpy:
    case SensorKind::kRapl:
      entry = &pending_[batch->timestamp];
      entry->measured_watts =
          rows.lane(model::FeatureMatrix::kMeasuredWattsLane)[machine];
      break;
    default:
      return;
  }

  complete_if_paired(batch->timestamp, *entry);
  while (pending_.size() > kMaxPending) pending_.erase(pending_.begin());
}

void CalibrationActor::complete_if_paired(util::TimestampNs timestamp, Pending& entry) {
  if (!entry.features || !entry.measured_watts) return;
  const model::FeatureVector features = *entry.features;
  const double watts = *entry.measured_watts;
  // Everything at or before a completed pair is done: sensors publish per
  // tick, and ticks drain in order in both fleet modes.
  pending_.erase(pending_.begin(), pending_.upper_bound(timestamp));
  on_pair(timestamp, features, watts);
}

void CalibrationActor::on_pair(util::TimestampNs timestamp,
                               const model::FeatureVector& features,
                               double measured_watts) {
  const model::ModelRegistry::Snapshot& snapshot = registry_->refresh(pinned_);

  // Rolling drift: how far is the deployed model from the meter right now?
  const double estimate = snapshot.model.empty()
                              ? snapshot.model.idle_watts()
                              : snapshot.model.estimate_machine(features);
  const double error = std::abs(estimate - measured_watts);
  drift_errors_.push_back(error);
  drift_error_sum_ += error;
  while (drift_errors_.size() > options_.drift_window) {
    drift_error_sum_ -= drift_errors_.front();
    drift_errors_.pop_front();
  }

  // Accumulate the paired sample into its frequency bin's streaming fit.
  const std::int64_t key = bin_key(features.frequency_hz);
  auto [it, inserted] = bins_.try_emplace(
      key, Bin{features.frequency_hz, mathx::IncrementalOls(options_.events.size())});
  if (inserted && options_.forgetting != 1.0) {
    it->second.accumulator.set_forgetting(options_.forgetting);
  }
  std::vector<double> row(options_.events.size());
  for (std::size_t c = 0; c < options_.events.size(); ++c) {
    row[c] = model::rate_of(features.rates, options_.events[c]);
  }
  it->second.accumulator.add(row, measured_watts - snapshot.model.idle_watts());
  ++paired_samples_;

  // Drift trigger: rolling window full and beyond threshold, with the
  // refit-interval floor respected.
  if (drift_errors_.size() < options_.drift_window) return;
  if (drift_error_sum_ / static_cast<double>(drift_errors_.size()) <=
      options_.drift_threshold_watts) {
    return;
  }
  if (last_refit_ && timestamp - *last_refit_ < options_.min_refit_interval) return;
  refit(timestamp, features);
}

void CalibrationActor::refit(util::TimestampNs timestamp,
                             const model::FeatureVector& latest) {
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

  const double pre_swap_error =
      drift_error_sum_ / static_cast<double>(drift_errors_.size());
  const auto version = registry_->publish(
      model::CpuPowerModel(snapshot->model.idle_watts(), std::move(formulas)));
  last_refit_ = timestamp;
  // The error window measured the OLD model; start clean so the next
  // trigger reflects the swapped-in fit.
  drift_errors_.clear();
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
  bus_->publish(out_topic_, update, self());
}

}  // namespace powerapi::api
