// Aggregator actor: groups the rows of the formulas' EstimateBatches along a
// dimension (the paper names PID and timestamp) before they reach
// reporters.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "actors/actor.h"
#include "actors/event_bus.h"
#include "powerapi/messages.h"
#include "powerapi/stage_obs.h"

namespace powerapi::api {

enum class AggregationDimension {
  kTimestamp,  ///< Sum all targets of a formula per timestamp (machine view).
  kPid,        ///< Forward one row per (pid, timestamp) (per-process view).
  kGroup,      ///< Sum per process group — the cgroup/VM view.
};

class Aggregator final : public actors::Actor {
 public:
  /// Resolves a pid to its group label (kGroup dimension only); processes
  /// whose resolver returns "" aggregate under the empty group.
  using GroupResolver = std::function<std::string(std::int64_t pid)>;

  Aggregator(actors::EventBus& bus, actors::EventBus::TopicId out_topic,
             AggregationDimension dimension)
      : Aggregator(bus, out_topic, dimension, GroupResolver{}) {}
  Aggregator(actors::EventBus& bus, actors::EventBus::TopicId out_topic,
             AggregationDimension dimension, GroupResolver group_of,
             obs::Observability* obs = nullptr);

  void receive(actors::Envelope& envelope) override;

  /// Flushes any pending timestamp groups (call at end of monitoring).
  void post_stop() override;

 private:
  struct Group {
    util::TimestampNs timestamp = 0;
    double sum_watts = 0.0;
    bool has_machine_row = false;
    double machine_watts = 0.0;
    std::uint64_t seq = 0;           ///< Tick seq of the grouped estimates.
    std::int64_t tick_wall_ns = 0;   ///< Wall time the tick was published.
  };

  void emit(const std::string& formula, const Group& group);
  void emit_group_rows(const std::string& formula);
  /// One estimate row of an EstimateBatch entering the dimension logic.
  void absorb(const std::string& formula, util::TimestampNs timestamp, std::int64_t pid,
              double watts, std::uint64_t seq, std::int64_t tick_wall_ns);
  void record_latency(std::int64_t tick_wall_ns);

  actors::EventBus* bus_;
  actors::EventBus::TopicId out_topic_;  ///< The namespace's "power:aggregated".
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
  /// End-to-end pipeline latency: tick publish → aggregated row emit.
  obs::Histogram* tick_to_aggregate_ = nullptr;
};

/// The fleet dimension's bucket logic: sums machine-scope aggregated rows
/// across hosts per (formula, timestamp) into "(fleet)" rows, completing a
/// bucket once every host has reported it. Rows sum in the order they are
/// added. Shared by FleetMonitor, which folds its hosts' rows in host order
/// after every step, and by the FleetAggregator actor.
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

/// FleetSum as an actor: re-publishes the fleet dimension of the rows it is
/// subscribed to. A telemetry collector subscribes one to the BusBridge's
/// merged "remote/power:aggregated", so the fleet dimension is the same
/// whether the rows crossed a wire or not. Rows sum in arrival order.
///
/// `host_count` is shared with the owner so hosts can join before the first
/// tick.
class FleetAggregator final : public actors::Actor {
 public:
  FleetAggregator(actors::EventBus& bus, actors::EventBus::TopicId out_topic,
                  std::shared_ptr<const std::size_t> host_count)
      : bus_(&bus), out_topic_(out_topic), host_count_(std::move(host_count)) {}

  void receive(actors::Envelope& envelope) override;

  /// Flushes buckets still waiting on stragglers (end of monitoring).
  void post_stop() override;

 private:
  actors::EventBus* bus_;
  actors::EventBus::TopicId out_topic_;
  std::shared_ptr<const std::size_t> host_count_;
  FleetSum sum_;
};

}  // namespace powerapi::api
