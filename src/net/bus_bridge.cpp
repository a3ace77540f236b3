#include "net/bus_bridge.h"

#include <utility>

#include "obs/trace.h"

namespace powerapi::net {

namespace {
/// Prefix of every topic the bridge publishes on.
constexpr std::string_view kTopicPrefix = "remote/";
}  // namespace

BusBridge::BusBridge(actors::EventBus& bus, BusBridgeOptions options)
    : bus_(&bus),
      options_(std::move(options)),
      merged_aggregated_(bus.intern(std::string(kTopicPrefix) + "power:aggregated")) {
  if (options_.obs != nullptr) {
    collector_id_ = options_.obs->metrics.add_collector(
        [this](obs::SnapshotBuilder& builder) { collect(builder); });
  }
}

BusBridge::~BusBridge() {
  if (options_.obs != nullptr) {
    options_.obs->metrics.remove_collector(collector_id_);
  }
}

std::size_t BusBridge::live_agents() const {
  std::lock_guard lock(mutex_);
  return agents_.size();
}

void BusBridge::set_clock(std::function<std::int64_t()> clock) {
  std::lock_guard lock(mutex_);
  clock_ = std::move(clock);
}

std::int64_t BusBridge::now_ns() const {
  return clock_ ? clock_() : obs::wall_now_ns();
}

void BusBridge::assign_label_locked(ConnId conn, AgentState& agent,
                                    std::string label) {
  // Two live agents with the same hello id must not share a namespace —
  // suffix the newcomer with its connection id.
  for (const auto& [other_conn, other] : agents_) {
    if (other_conn != conn && other.label == label) {
      label.append("#").append(std::to_string(conn));
      break;
    }
  }
  agent.label = std::move(label);
  if (options_.per_agent_topics) {
    agent.aggregated_topic = bus_->intern(std::string(kTopicPrefix)
                                              .append(agent.label)
                                              .append("/power:aggregated"));
  }
}

BusBridge::AgentState& BusBridge::state_locked(ConnId conn) {
  auto [it, inserted] = agents_.try_emplace(conn);
  if (inserted) {
    assign_label_locked(conn, it->second, "conn" + std::to_string(conn));
    it->second.last_update_ns = now_ns();
  }
  return it->second;
}

void BusBridge::on_connect(ConnId conn) {
  std::lock_guard lock(mutex_);
  state_locked(conn);
}

void BusBridge::on_hello(ConnId conn, std::string_view agent_id,
                         std::uint8_t /*version*/) {
  std::lock_guard lock(mutex_);
  AgentState& agent = state_locked(conn);
  assign_label_locked(conn, agent, std::string(agent_id));
  agent.last_update_ns = now_ns();
}

void BusBridge::on_rows(ConnId conn, std::span<const api::AggregatedPower> rows) {
  actors::EventBus::TopicId topic = actors::EventBus::kNoTopic;
  api::RowBatch batch;
  {
    std::lock_guard lock(mutex_);
    AgentState& agent = state_locked(conn);
    agent.last_update_ns = now_ns();
    topic = agent.aggregated_topic;
    batch = batches_.make(rows);
  }
  // Publish outside the lock: subscribers run arbitrary code.
  if (topic != actors::EventBus::kNoTopic) bus_->publish(topic, batch);
  bus_->publish(merged_aggregated_, std::move(batch));
}

void BusBridge::on_metrics_snapshot(ConnId conn, std::int64_t /*send_wall_ns*/,
                                    std::int64_t /*recv_wall_ns*/,
                                    const obs::MetricsSnapshot& snapshot) {
  if (options_.obs == nullptr) return;
  std::lock_guard lock(mutex_);
  AgentState& agent = state_locked(conn);
  for (const obs::MetricValue& metric : snapshot.metrics) {
    const std::string base = "obs." + metric.name;
    if (metric.kind == obs::MetricKind::kHistogram) {
      agent.metrics[base + ".count"] = static_cast<double>(metric.hist.count);
      agent.metrics[base + ".mean"] = metric.hist.mean();
      agent.metrics[base + ".p99"] = metric.hist.percentile(0.99);
    } else {
      // Counters land as gauges too: a remote counter's running total is a
      // point-in-time value here.
      agent.metrics[base] = metric.value;
    }
  }
  agent.last_update_ns = now_ns();
}

void BusBridge::on_disconnect(ConnId conn, std::string_view /*reason*/) {
  std::lock_guard lock(mutex_);
  agents_.erase(conn);
}

void BusBridge::collect(obs::SnapshotBuilder& builder) const {
  std::lock_guard lock(mutex_);
  const std::int64_t now = now_ns();
  for (const auto& [conn, agent] : agents_) {
    if (options_.metrics_stale_after_ns > 0 &&
        now - agent.last_update_ns > options_.metrics_stale_after_ns) {
      continue;  // Silent agent: withhold rather than serve stale values.
    }
    for (const auto& [name, value] : agent.metrics) {
      builder.gauge("remote." + agent.label + "." + name, value);
    }
  }
}

}  // namespace powerapi::net
