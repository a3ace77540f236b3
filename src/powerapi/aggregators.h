// Aggregation: the Aggregator stage groups the rows of a host's
// EstimateBatches along a dimension (the paper names PID and timestamp)
// before they reach reporters; FleetSum sums machine rows across hosts.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "powerapi/messages.h"
#include "powerapi/stage_obs.h"

namespace powerapi::api {

enum class AggregationDimension {
  kTimestamp,  ///< Sum all targets of a formula per timestamp (machine view).
  kPid,        ///< Forward one row per (pid, timestamp) (per-process view).
  kGroup,      ///< Sum per process group — the cgroup/VM view.
};

/// The aggregation stage of one host's pipeline. The Pipeline absorbs each
/// tick's estimate batches in formula order; completed rows are appended to
/// the caller's `out`, in emit order.
class Aggregator final {
 public:
  /// Resolves a pid to its group label (kGroup dimension only); processes
  /// whose resolver returns "" aggregate under the empty group.
  using GroupResolver = std::function<std::string(std::int64_t pid)>;

  explicit Aggregator(AggregationDimension dimension, GroupResolver group_of = {},
                      obs::Observability* obs = nullptr, std::string_view name = {});

  /// Absorbs one formula's rows for one tick, front to back.
  void absorb(const EstimateBatch& batch, std::vector<AggregatedPower>& out);

  /// Emits every pending group (call at end of monitoring).
  void flush(std::vector<AggregatedPower>& out);

 private:
  struct Group {
    util::TimestampNs timestamp = 0;
    double sum_watts = 0.0;
    bool has_machine_row = false;
    double machine_watts = 0.0;
    std::uint64_t seq = 0;           ///< Tick seq of the grouped estimates.
    std::int64_t tick_wall_ns = 0;   ///< Wall time the tick was issued.
  };

  void emit(const std::string& formula, const Group& group,
            std::vector<AggregatedPower>& out);
  void emit_group_rows(const std::string& formula, std::vector<AggregatedPower>& out);
  /// One estimate row of an EstimateBatch entering the dimension logic.
  void absorb_row(const std::string& formula, util::TimestampNs timestamp,
                  std::int64_t pid, double watts, std::uint64_t seq,
                  std::int64_t tick_wall_ns, std::vector<AggregatedPower>& out);
  void record_latency(std::int64_t tick_wall_ns);

  AggregationDimension dimension_;
  GroupResolver group_of_;
  /// Per-formula group under construction; emitted when a newer timestamp
  /// arrives (estimates for one tick always precede the next tick's).
  std::map<std::string, Group> pending_;
  /// kGroup dimension: per-formula watermark + per-group-label sums.
  struct GroupBucket {
    util::TimestampNs timestamp = 0;
    std::map<std::string, double> watts_by_group;
    std::uint64_t seq = 0;
    std::int64_t tick_wall_ns = 0;
  };
  std::map<std::string, GroupBucket> pending_groups_;
  StageObs stage_;
  /// End-to-end pipeline latency: tick issued → aggregated row emitted.
  obs::Histogram* tick_to_aggregate_ = nullptr;
};

/// The fleet dimension's bucket logic: sums machine-scope aggregated rows
/// across hosts per (formula, timestamp) into "(fleet)" rows, completing a
/// bucket once every host has reported it. Rows sum in the order they are
/// added. FleetMonitor folds its hosts' rows in host order after every step;
/// a telemetry collector adds the BusBridge's merged rows in arrival order,
/// so the fleet dimension is the same whether the rows crossed a wire or not.
class FleetSum {
 public:
  /// Whether `row` is machine-scope, the only kind the fleet sums; per-pid
  /// and per-group rows stay host-local.
  static bool counts(const AggregatedPower& row) {
    return row.pid == kMachinePid && row.group.empty();
  }
  /// Absorbs one row (only machine-scope rows count; others are ignored)
  /// and returns the "(fleet)" row it completes, if any.
  std::optional<AggregatedPower> add(const AggregatedPower& row, std::size_t hosts);
  /// The buckets still waiting on stragglers, in (formula, timestamp)
  /// order; empties the sum.
  std::vector<AggregatedPower> flush();

 private:
  struct Bucket {
    double watts = 0.0;
    std::size_t hosts = 0;
    std::uint64_t seq = 0;
  };

  static AggregatedPower fleet_row(const std::string& formula, util::TimestampNs timestamp,
                                   const Bucket& bucket);

  std::map<std::pair<std::string, util::TimestampNs>, Bucket> pending_;
};

}  // namespace powerapi::api
