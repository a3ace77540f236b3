// Message vocabulary of the PowerAPI pipeline (Figure 2).
//
// One shape per stage, handed from stage to stage by direct call within a
// host's Pipeline (see pipeline.h):
//   MonitorTick     → every sensor's sample()
//   SensorBatch     → the formulas' estimate() and the calibrator
//   EstimateBatch   → the aggregator's absorb()
//   AggregatedPower → every attached reporter's report()
//
// Two of them also travel the event bus, published only when something
// subscribes. Topics, within one pipeline's namespace:
//   "tick"              MonitorTick     → probes
//   "power:aggregated"  AggregatedPower → bus-subscribed sinks, probes
// Every pipeline is a FleetMonitor host, so its topics live under the
// host's namespace prefix ("h0/tick", "h3/power:aggregated"). The fleet
// dimension publishes "(fleet)" rows on "fleet/power:aggregated", also
// only when subscribed, and a telemetry collector's BusBridge republishes
// remote rows on "remote/power:aggregated".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
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

/// Which sensor produced a batch. An enum rather than a string: batches are
/// hot-path values (one per sensor per tick), and an interned tag removes
/// a heap allocation + string compare per hop.
enum class SensorKind : std::uint8_t {
  kHpc,
  kPowerSpy,
  kRapl,
  kIo,
};

constexpr std::string_view to_string(SensorKind kind) noexcept {
  switch (kind) {
    case SensorKind::kHpc: return "hpc";
    case SensorKind::kPowerSpy: return "powerspy";
    case SensorKind::kRapl: return "rapl";
    case SensorKind::kIo: return "io";
  }
  return "?";
}

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
  SensorKind sensor = SensorKind::kHpc;
  std::shared_ptr<const model::FeatureMatrix> features;

  // Observability correlation (copied from the triggering MonitorTick).
  std::uint64_t seq = 0;
  std::int64_t tick_wall_ns = 0;
};

/// One power attribution for one target at one timestamp: the telemetry
/// wire's per-estimate record (net::TelemetryClient::report, WireEncoder,
/// BusBridge). No pipeline stage produces it — formulas produce
/// EstimateBatch.
struct PowerEstimate {
  util::TimestampNs timestamp = 0;
  std::int64_t pid = kMachinePid;
  std::string formula;            ///< e.g. "powerapi-hpc", "cpu-load", "rapl".
  double watts = 0.0;
  /// Registry version of the model that produced this estimate; 0 for
  /// formulas that do not read a versioned model (meters, datasheets).
  std::uint64_t model_version = 0;

  // Observability correlation (carried forward from the sensor batch).
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
/// timestamp).
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

}  // namespace powerapi::api
