// BusBridge: a CollectorSink that republishes decoded telemetry onto a
// local event bus, so everything downstream of a bus — a bus-subscribed
// CallbackReporter, a probe — works unchanged on remote data.
//
// The bridge publishes rows only (api::AggregatedPower, the one record the
// wire carries), a frame at a time: each decoded frame's rows become one
// api::RowBatch, taken from the bridge's pool under one lock and one clock
// read. The topic scheme mirrors the fleet namespaces ("h<i>/..."): each
// batch is published twice, once under its agent's namespace and once
// merged, sharing one vector:
//
//   remote/<agent>/power:aggregated    remote/power:aggregated
//
// These topics carry only RowBatch; a bus-subscribed CallbackReporter
// reports each row of a batch in order.
//
// The merged topic is what a collector sums the fleet dimension from
// (FleetSum); the per-agent topics let a reporter follow one machine. Agents are
// named by their hello frame; rows arriving before a hello (a protocol-
// tolerated but unusual ordering) fall back to the "conn<id>" label. Two
// live agents claiming the same hello id stay distinguishable: the later
// one is suffixed "#<conn>" so their metrics never collide.
//
// Remote metrics arrive only in metrics-snapshot frames and re-export as
// gauges at the fleet collection point, named "remote.<agent>.obs.<name>"
// (histograms flattened to .count / .mean / .p99). The bridge holds them
// per agent and contributes them through a registry snapshot collector, so
// a disconnected agent's metrics vanish with it, a reconnect starts from a
// clean slate, and agents silent past `metrics_stale_after_ns` are
// withheld rather than served stale. Remote spans are not the bridge's
// business: it ignores them (CollectorStatus feeds them to a TraceMerger).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>

#include "actors/event_bus.h"
#include "net/collector_server.h"
#include "obs/observability.h"
#include "powerapi/messages.h"

namespace powerapi::net {

struct BusBridgeOptions {
  /// Also publish under "remote/<agent>/..." per-agent namespaces.
  bool per_agent_topics = true;
  /// Republish remote metrics as gauges here (non-owning; may be null to
  /// drop them).
  obs::Observability* obs = nullptr;
  /// Withhold an agent's gauges from snapshots once it has been silent
  /// this long (0 = never expire). Measured on the bridge's clock.
  std::int64_t metrics_stale_after_ns = 0;
};

class BusBridge final : public CollectorSink {
 public:
  BusBridge(actors::EventBus& bus, BusBridgeOptions options = {});
  ~BusBridge() override;

  /// Merged topic (every agent's rows): subscribe aggregators here.
  actors::EventBus::TopicId aggregated_topic() const noexcept { return merged_aggregated_; }

  /// Agents that have connected and not yet disconnected.
  std::size_t live_agents() const;

  /// Overrides the staleness clock (defaults to obs::wall_now_ns) for
  /// deterministic expiry tests.
  void set_clock(std::function<std::int64_t()> clock);

  // CollectorSink (server event-loop thread).
  void on_connect(ConnId conn) override;
  void on_hello(ConnId conn, std::string_view agent_id, std::uint8_t version) override;
  void on_rows(ConnId conn, std::span<const api::AggregatedPower> rows) override;
  void on_metrics_snapshot(ConnId conn, std::int64_t send_wall_ns,
                           std::int64_t recv_wall_ns,
                           const obs::MetricsSnapshot& snapshot) override;
  void on_spans(ConnId /*conn*/, std::int64_t /*send_wall_ns*/,
                std::int64_t /*recv_wall_ns*/,
                const std::vector<RemoteSpan>& /*spans*/) override {}
  void on_disconnect(ConnId conn, std::string_view reason) override;

 private:
  struct AgentState {
    std::string label;  ///< agent_id after hello; "conn<id>" before.
    actors::EventBus::TopicId aggregated_topic = actors::EventBus::kNoTopic;
    /// Re-exported remote metrics, keyed by unprefixed name.
    std::map<std::string, double> metrics;
    std::int64_t last_update_ns = 0;
  };

  AgentState& state_locked(ConnId conn);
  void assign_label_locked(ConnId conn, AgentState& agent, std::string label);
  std::int64_t now_ns() const;
  void collect(obs::SnapshotBuilder& builder) const;

  actors::EventBus* bus_;
  BusBridgeOptions options_;
  actors::EventBus::TopicId merged_aggregated_;

  /// Guards agents_, clock_ and batches_: sink callbacks run on the server
  /// loop thread while snapshot collectors may pull from any thread.
  mutable std::mutex mutex_;
  std::map<ConnId, AgentState> agents_;
  std::function<std::int64_t()> clock_;
  api::RowBatchPool batches_;
  obs::MetricsRegistry::CollectorId collector_id_ = 0;
};

}  // namespace powerapi::net
