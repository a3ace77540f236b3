// Message vocabulary of the PowerAPI pipeline (Figure 2).
//
// One shape per stage, handed from stage to stage by direct call within a
// host's Pipeline (see pipeline.h):
//   MonitorTick     → every sensor's sample()
//   SensorBatch     → the formulas' estimate() and the calibrator
//   EstimateBatch   → the aggregator's absorb()
//   AggregatedPower → every attached reporter's report()
// A SensorBatch names no sensor: the Pipeline's call site hands each batch
// only to the stages that consume that sensor's rows.
//
// Two of them also travel the event bus, published only when something
// subscribes. Topics, within one pipeline's namespace:
//   "tick"              MonitorTick     → probes
//   "power:aggregated"  AggregatedPower → bus-subscribed sinks, probes
// Every pipeline is a FleetMonitor host, so its topics live under the
// host's namespace prefix ("h0/tick", "h3/power:aggregated"). The fleet
// dimension publishes "(fleet)" rows on "fleet/power:aggregated", also
// only when subscribed. Those topics carry one AggregatedPower per
// publish. A telemetry collector's BusBridge republishes remote rows on
// "remote/power:aggregated" (and "remote/<agent>/power:aggregated"); the
// remote topics carry only RowBatch, one per decoded frame.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "model/feature_matrix.h"
#include "util/units.h"

namespace powerapi::api {

/// Scope marker for machine-wide rows.
inline constexpr std::int64_t kMachinePid = -1;

/// Periodic monitoring tick, handed to every sensor.
///
/// When the pipeline carries an observability bundle, each tick also gets a
/// per-pipeline sequence number and the real (monitor wall clock) time it
/// was issued. Both flow through SensorBatch and EstimateBatch so trace
/// spans and end-to-end latency can be correlated per tick; both stay 0
/// when observability is off.
struct MonitorTick {
  util::TimestampNs timestamp = 0;
  std::uint64_t seq = 0;
  std::int64_t wall_ns = 0;  ///< obs::wall_now_ns() when the tick was issued.
};

/// The one FeatureMatrix a stage samples into, tick after tick. A batch
/// shares the matrix with the tick's estimates and with anyone who keeps
/// the batch, so it is only written while nobody else holds it: next()
/// hands back the pooled matrix when the pool is its sole owner and a
/// fresh one otherwise (a kept batch is never written under). The
/// Pipeline drops its references at the end of each tick, so in steady
/// state the pool always hits.
class PooledMatrix {
 public:
  /// A matrix of `rows` rows for this tick's batch, every lane zeroed.
  model::FeatureMatrix& next(std::size_t rows) {
    if (matrix_ == nullptr || matrix_.use_count() != 1) {
      matrix_ = std::make_shared<model::FeatureMatrix>();
    }
    matrix_->frequency_hz = 0.0;
    matrix_->resize(rows);
    return *matrix_;
  }
  /// The matrix next() returned, as a batch's immutable payload.
  std::shared_ptr<const model::FeatureMatrix> share() const { return matrix_; }

 private:
  std::shared_ptr<model::FeatureMatrix> matrix_;
};

/// One sensor's observations for EVERY completed target of a tick, as a
/// single lane-major matrix — the only thing a sensor produces. The HPC
/// sensor's rows are the machine scope first, then the targets in
/// monitoring order; the meter (PowerSpy, RAPL) and IO sensors sample one
/// machine-scope row carrying their own lanes (measured watts; disk and
/// network rates). The matrix is immutable while anyone but its sensor
/// holds it: the sensor samples into a PooledMatrix, which reuses the
/// matrix only once the tick's estimates (and any caller that kept the
/// batch) have let go of it.
struct SensorBatch {
  util::TimestampNs timestamp = 0;
  std::shared_ptr<const model::FeatureMatrix> features;

  // Observability correlation (copied from the triggering MonitorTick).
  std::uint64_t seq = 0;
  std::int64_t tick_wall_ns = 0;
};

/// One formula's attributions for the rows of a SensorBatch — the only
/// thing a formula produces: watts[i] belongs to features->pid(i). The
/// matrix rides along (shared, immutable) so downstream stages can reach
/// pids and features without copying; a formula that narrows the rows (the
/// machine-only baselines) estimates over a matrix of just those rows, and
/// one handed a batch it does not consume returns no matrix and no rows.
struct EstimateBatch {
  util::TimestampNs timestamp = 0;
  std::string formula;
  std::uint64_t model_version = 0;
  std::shared_ptr<const model::FeatureMatrix> features;
  std::vector<double> watts;  ///< Parallel to the matrix rows.

  // Observability correlation.
  std::uint64_t seq = 0;
  std::int64_t tick_wall_ns = 0;
};

/// Aggregated power along a dimension (per PID, per group, or summed per
/// timestamp). It is also the one record the telemetry wire carries
/// (net::TelemetryClient::report, WireEncoder, BusBridge); the wire drops
/// the observability fields, so a decoded row's seq is 0.
struct AggregatedPower {
  util::TimestampNs timestamp = 0;
  std::int64_t pid = kMachinePid;  ///< kMachinePid for summed rows.
  std::string group;               ///< Set only by group-dimension aggregation.
  std::string formula;
  double watts = 0.0;
  /// Tick sequence id of the estimates this row aggregates (observability
  /// correlation; 0 when off).
  std::uint64_t seq = 0;
};

/// The rows of one telemetry frame, in wire order, as one bus payload. A
/// RowBatch is a shared, immutable vector: copies share it through an
/// intrusive refcount, so the handle is one pointer wide, fits a bus
/// payload's inline storage, and publishing it to any number of
/// subscribers allocates nothing. Batches come from a RowBatchPool, which
/// refills a vector only once every copy it handed out has been released.
class RowBatch {
 public:
  RowBatch() noexcept = default;
  RowBatch(const RowBatch& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  RowBatch(RowBatch&& other) noexcept : block_(std::exchange(other.block_, nullptr)) {}
  RowBatch& operator=(RowBatch other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~RowBatch() {
    if (block_ != nullptr && block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete block_;
    }
  }

  /// The rows; empty for a default-constructed batch.
  std::span<const AggregatedPower> rows() const noexcept {
    if (block_ == nullptr) return {};
    return {block_->rows.data(), block_->size};
  }

 private:
  friend class RowBatchPool;
  struct Block {
    std::atomic<std::uint32_t> refs{1};
    /// Rows past `size` are spares kept from a longer batch, so their
    /// strings keep their capacity for the next fill.
    std::vector<AggregatedPower> rows;
    std::size_t size = 0;
  };

  Block* block_ = nullptr;
};

/// Hands out RowBatches over a few reused vectors, as PooledMatrix does for
/// sensor batches: make() refills a pooled vector only when the pool holds
/// its sole reference, so a batch is never written while a subscriber
/// reads it. When every pooled vector is still held, a new one joins the
/// pool, up to kMaxPooled; past that a batch gets a vector of its own,
/// freed with its last copy. Once subscribers release each batch before
/// the pool's next few make() calls, making a batch allocates nothing.
/// Not thread-safe: one producer owns a pool.
class RowBatchPool {
 public:
  static constexpr std::size_t kMaxPooled = 64;

  /// A batch holding a copy of `rows`.
  RowBatch make(std::span<const AggregatedPower> rows) {
    RowBatch batch = take();
    RowBatch::Block& block = *batch.block_;
    if (block.rows.size() < rows.size()) block.rows.resize(rows.size());
    std::copy(rows.begin(), rows.end(), block.rows.begin());
    block.size = rows.size();
    return batch;
  }

 private:
  RowBatch take() {
    for (const RowBatch& slot : slots_) {
      if (slot.block_->refs.load(std::memory_order_acquire) == 1) return slot;
    }
    RowBatch fresh;
    fresh.block_ = new RowBatch::Block();
    if (slots_.size() < kMaxPooled) slots_.push_back(fresh);
    return fresh;
  }

  std::vector<RowBatch> slots_;
};

}  // namespace powerapi::api
