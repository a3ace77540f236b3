#include "powerapi/sensors.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace powerapi::api {

namespace {

constexpr std::string_view kSensorRows = "pipeline.sensor_reports";

/// The pool's 1-row machine-scope matrix for the meter and IO sensors,
/// with the window lane set; the caller fills its own lanes.
model::FeatureMatrix& machine_matrix(PooledMatrix& pool, double window_seconds) {
  model::FeatureMatrix& matrix = pool.next(1);
  matrix.pids()[0] = kMachinePid;
  matrix.lane(model::FeatureMatrix::kWindowLane)[0] = window_seconds;
  return matrix;
}

SensorBatch batch_of(const MonitorTick& tick, const PooledMatrix& pool) {
  SensorBatch batch;
  batch.timestamp = tick.timestamp;
  batch.features = pool.share();
  batch.seq = tick.seq;
  batch.tick_wall_ns = tick.wall_ns;
  return batch;
}

}  // namespace

// --- HpcSensor ---

HpcSensor::HpcSensor(const os::MonitorableHost& host, obs::Observability* obs,
                     std::string_view name)
    : host_(&host), stage_(obs, name, kSensorRows) {}

void HpcSensor::monitor(std::vector<std::int64_t> pids) {
  monitor_all_ = false;
  targets_ = std::move(pids);
}

void HpcSensor::monitor_all() { monitor_all_ = true; }

void HpcSensor::realign_rows(const std::vector<std::int64_t>& new_pids) {
  // The target set changed: rebuild the row layout, carrying surviving
  // targets' windows (previous-snapshot row + primed/last-time state) over
  // by pid so they keep reporting without a re-prime gap.
  const std::size_t rows = new_pids.size();
  realign_lanes_.resize(rows);
  realign_last_time_.assign(rows, 0);
  realign_primed_.assign(rows, 0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < pids_.size(); ++j) {
      if (pids_[j] != new_pids[i]) continue;
      realign_lanes_.copy_row_from(prev_, j, i);
      realign_last_time_[i] = last_time_[j];
      realign_primed_[i] = primed_[j];
      break;
    }
  }
  std::swap(prev_, realign_lanes_);
  last_time_.swap(realign_last_time_);
  primed_.swap(realign_primed_);
  pids_ = new_pids;
}

std::optional<SensorBatch> HpcSensor::sample(const MonitorTick& tick) {
  const auto span = stage_.span(tick.seq);
  const util::TimestampNs now = tick.timestamp;

  // Row layout: machine scope first, then this tick's targets.
  if (monitor_all_) host_->pids_into(targets_);
  const std::vector<std::int64_t>& targets = targets_;
  bool layout_changed = pids_.size() != targets.size() + 1;
  if (!layout_changed) {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      if (pids_[i + 1] != targets[i]) {
        layout_changed = true;
        break;
      }
    }
  }
  if (layout_changed) {
    std::vector<std::int64_t> new_pids;
    new_pids.reserve(targets.size() + 1);
    new_pids.push_back(kMachinePid);
    new_pids.insert(new_pids.end(), targets.begin(), targets.end());
    realign_rows(new_pids);
  }
  const std::size_t rows = pids_.size();

  host_->gather_counter_lanes(pids_, cur_);

  // Per-row window state machine — SamplingWindow semantics, row-parallel:
  // a dead target drops its window (re-primes when it returns), a
  // regressed cumulative quantity re-primes from the new baseline, the
  // priming observation completes no window, and a non-advancing timestamp
  // is ignored without rolling state.
  window_seconds_.assign(rows, 1.0);  // Placeholder divisor for idle rows.
  completed_.assign(rows, 0);
  std::size_t completed_count = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    if (!cur_.live()[i]) {
      POWERAPI_LOG_DEBUG("sensor.hpc")
          << "read failed for pid " << pids_[i] << " — dropping window";
      primed_[i] = 0;
      continue;
    }
    if (primed_[i]) {
      bool regressed = cur_.cpu_time()[i] < prev_.cpu_time()[i];
      for (std::size_t l = 0; l < simcpu::CounterLanes::kLanes; ++l) {
        regressed = regressed || cur_.lane(l)[i] < prev_.lane(l)[i];
      }
      if (regressed) {
        POWERAPI_LOG_DEBUG("sensor.hpc")
            << "counters regressed for pid " << pids_[i] << " — re-priming";
        primed_[i] = 0;
      }
    }
    if (!primed_[i]) {
      prev_.copy_row_from(cur_, i, i);
      last_time_[i] = now;
      primed_[i] = 1;
      continue;
    }
    if (now <= last_time_[i]) continue;
    window_seconds_[i] = util::ns_to_seconds(now - last_time_[i]);
    completed_[i] = 1;
    ++completed_count;
  }

  std::optional<SensorBatch> batch;
  if (completed_count > 0) {
    const double frequency_hz = host_->system_stat().frequency_hz;
    const std::size_t hw_threads = host_->hw_threads();

    model::FeatureMatrix& matrix = matrix_.next(completed_count);
    matrix.frequency_hz = frequency_hz;
    if (completed_count == rows) {
      // Steady state: every row completed — extract straight into the
      // batch's matrix, whole lanes at a time.
      std::copy(pids_.begin(), pids_.end(), matrix.pids());
      model::extract_features_rows(cur_, prev_, window_seconds_.data(), hw_threads,
                                   matrix);
    } else {
      // Mixed tick (a priming or dead row among completed ones): extract
      // full-width into scratch, then compact the completed rows.
      extract_scratch_.frequency_hz = frequency_hz;
      extract_scratch_.resize(rows);
      std::copy(pids_.begin(), pids_.end(), extract_scratch_.pids());
      model::extract_features_rows(cur_, prev_, window_seconds_.data(), hw_threads,
                                   extract_scratch_);
      std::size_t out_row = 0;
      for (std::size_t i = 0; i < rows; ++i) {
        if (completed_[i]) matrix.copy_row_from(extract_scratch_, i, out_row++);
      }
    }

    batch = batch_of(tick, matrix_);
    stage_.count(completed_count);
  }

  // Roll the completed rows' windows forward (primed rows already rolled).
  for (std::size_t i = 0; i < rows; ++i) {
    if (!completed_[i]) continue;
    prev_.copy_row_from(cur_, i, i);
    last_time_[i] = now;
  }
  return batch;
}

// --- PowerSpySensor ---

PowerSpySensor::PowerSpySensor(std::shared_ptr<powermeter::PowerSpy> meter,
                               obs::Observability* obs, std::string_view name)
    : meter_(std::move(meter)), stage_(obs, name, kSensorRows) {}

std::optional<SensorBatch> PowerSpySensor::sample(const MonitorTick& tick) {
  const auto span = stage_.span(tick.seq);
  const auto reading = meter_->sample();
  if (!reading) return std::nullopt;  // Dropped sample or first (priming) call.
  machine_matrix(matrix_, 0.0).lane(model::FeatureMatrix::kMeasuredWattsLane)[0] =
      reading->watts;
  stage_.count();
  return batch_of(tick, matrix_);
}

// --- RaplSensor ---

RaplSensor::RaplSensor(std::shared_ptr<powermeter::RaplMsr> msr,
                       obs::Observability* obs, std::string_view name)
    : msr_(std::move(msr)), stage_(obs, name, kSensorRows) {}

std::optional<SensorBatch> RaplSensor::sample(const MonitorTick& tick) {
  const auto span = stage_.span(tick.seq);
  if (!msr_->available()) return std::nullopt;
  const std::uint32_t raw = msr_->read_energy_status();
  const auto completed = window_.advance(tick.timestamp, raw);
  if (!completed) return std::nullopt;
  const double joules = powermeter::RaplMsr::energy_between(completed->previous, raw);

  machine_matrix(matrix_, completed->seconds)
      .lane(model::FeatureMatrix::kMeasuredWattsLane)[0] = joules / completed->seconds;
  stage_.count();
  return batch_of(tick, matrix_);
}

// --- IoSensor ---

IoSensor::IoSensor(const os::MonitorableHost& host, obs::Observability* obs,
                   std::string_view name)
    : host_(&host), stage_(obs, name, kSensorRows) {}

std::optional<SensorBatch> IoSensor::sample(const MonitorTick& tick) {
  const auto span = stage_.span(tick.seq);
  if (host_->disk() == nullptr) return std::nullopt;  // No peripherals on this host.

  const os::IoTotals totals = host_->io_totals();
  // The HPC sensor's underflow guard, applied to IO: cumulative counters
  // going backwards means the source reset (device re-probe, counter wrap at the
  // OS boundary). Differencing across that would report a negative rate —
  // re-prime from the new baseline instead.
  if (window_.primed()) {
    const os::IoTotals& last = window_.last();
    if (totals.disk_ops < last.disk_ops || totals.disk_bytes < last.disk_bytes ||
        totals.net_bytes < last.net_bytes) {
      POWERAPI_LOG_DEBUG("sensor.io") << "io totals regressed — re-priming";
      window_.reset();
    }
  }
  const auto completed = window_.advance(tick.timestamp, totals);
  if (!completed) return std::nullopt;
  const double window_s = completed->seconds;
  const os::IoTotals& last = completed->previous;

  model::FeatureMatrix& matrix = machine_matrix(matrix_, window_s);
  matrix.lane(model::FeatureMatrix::kDiskIopsLane)[0] =
      (totals.disk_ops - last.disk_ops) / window_s;
  matrix.lane(model::FeatureMatrix::kDiskBytesLane)[0] =
      (totals.disk_bytes - last.disk_bytes) / window_s;
  matrix.lane(model::FeatureMatrix::kNetBytesLane)[0] =
      (totals.net_bytes - last.net_bytes) / window_s;
  stage_.count();
  return batch_of(tick, matrix_);
}

}  // namespace powerapi::api
