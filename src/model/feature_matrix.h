// Batched feature storage: one FeatureVector per row, stored lane-major.
//
// The SoA hot path extracts features for every monitored target of a host
// in one pass: each feature (an event rate, utilization, the SMT rate, the
// window length) occupies a contiguous lane, rows are targets (row 0 is
// machine scope by the sensor's convention). Model evaluation then sweeps
// coefficient × lane with the mathx kernels instead of walking per-row
// structs. row() gathers a classic FeatureVector for consumers that take
// single samples (calibration, baseline estimators).
//
// The matrix is the payload of every sensor, not only the HPC one: four
// more lanes carry the meters' measured watts and the IO sensor's disk and
// network rates. The meter and IO sensors publish one machine-scope row
// and fill only their own lanes; HPC rows leave those four at zero.
//
// A FeatureMatrix is published as a shared_ptr<const ...> in one
// api::SensorBatch and must stay immutable while anyone else holds it. A
// sensor samples each tick into the same matrix (api::PooledMatrix), but
// only once the previous batch's holders have let go of it; a caller that
// keeps a batch gets its matrix to itself, and the sensor moves on to a
// fresh one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/feature_vector.h"
#include "simcpu/counter_lanes.h"

namespace powerapi::model {

class FeatureMatrix {
 public:
  /// Ten event-rate lanes, then utilization, SMT rate, window seconds,
  /// then the meter and IO lanes.
  static constexpr std::size_t kUtilizationLane = hpc::kEventCount;
  static constexpr std::size_t kSmtLane = hpc::kEventCount + 1;
  static constexpr std::size_t kWindowLane = hpc::kEventCount + 2;
  static constexpr std::size_t kMeasuredWattsLane = hpc::kEventCount + 3;  ///< Meters.
  static constexpr std::size_t kDiskIopsLane = hpc::kEventCount + 4;       ///< IO.
  static constexpr std::size_t kDiskBytesLane = hpc::kEventCount + 5;      ///< IO, B/s.
  static constexpr std::size_t kNetBytesLane = hpc::kEventCount + 6;       ///< IO, B/s.
  static constexpr std::size_t kLanes = hpc::kEventCount + 7;

  /// Frequency observed for the tick (one governor, one package — shared by
  /// every row of a batch).
  double frequency_hz = 0.0;

  void resize(std::size_t rows) {
    rows_ = rows;
    lanes_.assign(kLanes * rows, 0.0);
    pids_.assign(rows, 0);
  }

  std::size_t rows() const noexcept { return rows_; }
  bool empty() const noexcept { return rows_ == 0; }

  double* lane(std::size_t index) noexcept { return lanes_.data() + index * rows_; }
  const double* lane(std::size_t index) const noexcept {
    return lanes_.data() + index * rows_;
  }
  double* rate_lane(hpc::EventId id) noexcept { return lane(static_cast<std::size_t>(id)); }
  const double* rate_lane(hpc::EventId id) const noexcept {
    return lane(static_cast<std::size_t>(id));
  }

  std::int64_t* pids() noexcept { return pids_.data(); }
  const std::int64_t* pids() const noexcept { return pids_.data(); }
  std::int64_t pid(std::size_t row) const noexcept { return pids_[row]; }
  double window_seconds(std::size_t row) const noexcept { return lane(kWindowLane)[row]; }

  /// Index of the machine-scope row (pid < 0), or rows() when there is none.
  std::size_t find_machine_row() const noexcept {
    std::size_t r = 0;
    while (r < rows_ && pids_[r] >= 0) ++r;
    return r;
  }

  /// Copies row `from` of `source` (every lane and the pid) into row `to`.
  void copy_row_from(const FeatureMatrix& source, std::size_t from,
                     std::size_t to) noexcept {
    for (std::size_t l = 0; l < kLanes; ++l) lane(l)[to] = source.lane(l)[from];
    pids_[to] = source.pids_[from];
  }

  /// Gathers one row into the classic AoS feature struct.
  FeatureVector row(std::size_t r) const noexcept {
    FeatureVector features;
    features.frequency_hz = frequency_hz;
    for (std::size_t e = 0; e < hpc::kEventCount; ++e) features.rates[e] = lane(e)[r];
    features.utilization = lane(kUtilizationLane)[r];
    features.smt_shared_cycles_per_sec = lane(kSmtLane)[r];
    return features;
  }

 private:
  std::size_t rows_ = 0;
  std::vector<double> lanes_;  ///< Lane-major: [lane][row].
  std::vector<std::int64_t> pids_;
};

/// Batch feature extraction over whole lanes: for every row,
///   rate_e = double(saturating(cur_e - prev_e)) / window_seconds[row]
/// for the ten generic events and the SMT lane, then utilization —
/// machine rows (pid < 0) as busy/available cycles, process rows as
/// cpu-time share of the window. Expressions match the scalar
/// extract_features()/HpcSensor path bit-for-bit. `out` must already be
/// sized to the lane row count with pids and frequency_hz set;
/// `window_seconds` points at `out.rows()` entries which are also copied
/// into the window lane.
void extract_features_rows(const simcpu::CounterLanes& cur, const simcpu::CounterLanes& prev,
                           const double* window_seconds, std::size_t hw_threads,
                           FeatureMatrix& out);

}  // namespace powerapi::model
