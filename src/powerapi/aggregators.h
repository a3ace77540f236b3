// Aggregation: the Aggregator stage groups the rows of a host's
// EstimateBatches along a dimension (the paper names PID and timestamp)
// before they reach reporters; FleetSum sums machine rows across hosts.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
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
///
/// Each batch comes with its formula's index: the Pipeline assigns every
/// formula one small index when it builds, so the timestamp dimension's
/// open groups live in a flat vector indexed by it and a steady-state tick
/// touches no map.
class Aggregator final {
 public:
  /// Resolves a pid to its group label (kGroup dimension only); processes
  /// whose resolver returns "" aggregate under the empty group.
  using GroupResolver = std::function<std::string(std::int64_t pid)>;

  explicit Aggregator(AggregationDimension dimension, GroupResolver group_of = {},
                      obs::Observability* obs = nullptr, std::string_view name = {});

  /// Absorbs one formula's rows for one tick, front to back. `formula`
  /// indexes batch.formula: every batch of one formula name must come with
  /// the same index, and indexes should be small (they size a vector).
  void absorb(const EstimateBatch& batch, std::size_t formula,
              std::vector<AggregatedPower>& out);

  /// Emits every pending group, in formula-name order (call at end of
  /// monitoring).
  void flush(std::vector<AggregatedPower>& out);

 private:
  /// kTimestamp dimension: one formula's group under construction, emitted
  /// when a newer timestamp arrives (estimates for one tick always precede
  /// the next tick's).
  struct Group {
    bool open = false;
    std::string formula;
    util::TimestampNs timestamp = 0;
    double sum_watts = 0.0;
    bool has_machine_row = false;
    double machine_watts = 0.0;
    std::uint64_t seq = 0;           ///< Tick seq of the grouped estimates.
    std::int64_t tick_wall_ns = 0;   ///< Wall time the tick was issued.
  };

  void emit(Group& group, std::vector<AggregatedPower>& out);
  void emit_group_rows(const std::string& formula, std::vector<AggregatedPower>& out);
  void absorb_group_row(const EstimateBatch& batch, std::int64_t pid, double watts,
                        std::vector<AggregatedPower>& out);
  void record_latency(std::int64_t tick_wall_ns);

  AggregationDimension dimension_;
  GroupResolver group_of_;
  std::vector<Group> pending_;  ///< By formula index.
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
/// across hosts per (formula, timestamp) into "(fleet)" rows. Rows sum in
/// the order they are added. FleetMonitor folds its hosts' rows in host
/// order after every step; a telemetry collector adds the BusBridge's
/// merged rows in arrival order, so the fleet dimension is the same whether
/// the rows crossed a wire or not.
///
/// A bucket completes once every host has reported it. Each host's rows of
/// one formula arrive in timestamp order (through FleetMonitor's fold and,
/// per agent, through a BusBridge), so once (f, T) completes no pending
/// (f, T' < T) bucket can grow any further: the completion closes those
/// first, as partial rows in timestamp order, then emits (f, T). A bucket a
/// dropped meter sample left one host short thus comes out at the next
/// completion instead of waiting for flush(), and the pending buckets stay
/// few. A row that arrives after its timestamp closed simply opens a bucket
/// the next completion closes.
class FleetSum {
 public:
  /// Whether `row` is machine-scope, the only kind the fleet sums; per-pid
  /// and per-group rows stay host-local.
  static bool counts(const AggregatedPower& row) {
    return row.pid == kMachinePid && row.group.empty();
  }
  /// Absorbs one row (only machine-scope rows count; others are ignored)
  /// and appends to `out` the "(fleet)" rows its bucket's completion
  /// closes, if any.
  void add(const AggregatedPower& row, std::size_t hosts,
           std::vector<AggregatedPower>& out);
  /// Appends the buckets still pending, in (formula, timestamp) order, to
  /// `out`; empties the sum.
  void flush(std::vector<AggregatedPower>& out);
  /// Buckets still waiting on hosts.
  std::size_t pending() const noexcept { return pending_.size(); }

 private:
  struct Bucket {
    std::size_t formula = 0;  ///< Index into formulas_.
    util::TimestampNs timestamp = 0;
    double watts = 0.0;
    std::size_t hosts = 0;
    std::uint64_t seq = 0;
  };

  void emit(const Bucket& bucket, std::vector<AggregatedPower>& out) const;

  std::vector<std::string> formulas_;  ///< Formula names, in order of first sight.
  /// Sorted by (formula index, timestamp).
  std::vector<Bucket> pending_;
};

}  // namespace powerapi::api
