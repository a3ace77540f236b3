#include "net/watchdog.h"

#include <sstream>

#include "util/logging.h"

namespace powerapi::net {

namespace {
constexpr const char* kLog = "net.watchdog";
}  // namespace

std::string_view to_string(Alert::Kind kind) noexcept {
  switch (kind) {
    case Alert::Kind::kDropSpike: return "drop_spike";
    case Alert::Kind::kReconnectStorm: return "reconnect_storm";
    case Alert::Kind::kStale: return "stale";
    case Alert::Kind::kSelfWattsBudget: return "self_watts_budget";
    case Alert::Kind::kBudgetViolation: return "budget_violation";
  }
  return "?";
}

Watchdog::Watchdog(WatchdogOptions options) : options_(options) {
  if (options_.obs != nullptr) {
    obs_alerts_ = &options_.obs->metrics.counter("obs.watchdog.alerts");
    obs_suppressed_ = &options_.obs->metrics.counter("obs.watchdog.suppressed");
  }
}

std::vector<Alert> Watchdog::check(std::int64_t now_ns, const WatchdogSample& sample) {
  std::vector<Alert> alerts;
  for (const WatchdogSample::Agent& agent : sample.agents) {
    AgentBaseline& base = baselines_[agent.label];
    if (base.seen) {
      // Counters are monotone per agent; a reconnect-reset (smaller value)
      // just re-baselines without alerting.
      const std::uint64_t drop_delta =
          agent.records_dropped >= base.records_dropped
              ? agent.records_dropped - base.records_dropped
              : 0;
      const std::uint64_t reconnect_delta = agent.reconnects >= base.reconnects
                                                ? agent.reconnects - base.reconnects
                                                : 0;
      if (drop_delta > options_.drop_spike) {
        raise(Alert::Kind::kDropSpike, agent.label,
              static_cast<double>(drop_delta),
              static_cast<double>(options_.drop_spike), now_ns,
              agent.label + " dropped " + std::to_string(drop_delta) +
                  " records since last tick",
              alerts);
      }
      if (reconnect_delta > options_.reconnect_storm) {
        raise(Alert::Kind::kReconnectStorm, agent.label,
              static_cast<double>(reconnect_delta),
              static_cast<double>(options_.reconnect_storm), now_ns,
              agent.label + " reconnected " + std::to_string(reconnect_delta) +
                  " times since last tick",
              alerts);
      }
    }
    base.records_dropped = agent.records_dropped;
    base.reconnects = agent.reconnects;
    base.seen = true;

    if (agent.connected && agent.last_activity_wall_ns > 0 &&
        now_ns - agent.last_activity_wall_ns > options_.staleness_ns) {
      const double silent_ns =
          static_cast<double>(now_ns - agent.last_activity_wall_ns);
      raise(Alert::Kind::kStale, agent.label, silent_ns,
            static_cast<double>(options_.staleness_ns), now_ns,
            agent.label + " silent for " +
                std::to_string(silent_ns / 1e9) + " s",
            alerts);
    }
  }
  if (options_.self_watts_budget > 0.0 &&
      sample.fleet_self_watts > options_.self_watts_budget) {
    std::ostringstream message;
    message << "fleet self-monitoring at " << sample.fleet_self_watts
            << " W exceeds budget " << options_.self_watts_budget << " W";
    raise(Alert::Kind::kSelfWattsBudget, "", sample.fleet_self_watts,
          options_.self_watts_budget, now_ns, message.str(), alerts);
  }
  if (sample.power_budget_watts > 0.0) {
    if (sample.fleet_power_watts > sample.power_budget_watts) {
      ++over_budget_ticks_;
      if (over_budget_ticks_ >= options_.budget_violation_ticks) {
        std::ostringstream message;
        message << "fleet at " << sample.fleet_power_watts
                << " W over governor budget " << sample.power_budget_watts
                << " W for " << over_budget_ticks_ << " ticks";
        raise(Alert::Kind::kBudgetViolation, "", sample.fleet_power_watts,
              sample.power_budget_watts, now_ns, message.str(), alerts);
      }
    } else {
      over_budget_ticks_ = 0;  // Back under the cap: re-baseline.
    }
  }
  return alerts;
}

void Watchdog::raise(Alert::Kind kind, const std::string& agent, double value,
                     double threshold, std::int64_t now_ns, std::string message,
                     std::vector<Alert>& alerts) {
  std::int64_t& last = last_alert_ns_[{static_cast<int>(kind), agent}];
  // `last` is one-past the real stamp so a legitimate tick at now_ns == 0
  // (deterministic tests start there) is not mistaken for "never raised".
  if (last != 0 && now_ns - (last - 1) < options_.min_alert_interval_ns) {
    ++alerts_suppressed_;
    if (obs_suppressed_ != nullptr) obs_suppressed_->add(1);
    return;
  }
  last = now_ns + 1;
  ++alerts_raised_;
  if (obs_alerts_ != nullptr) obs_alerts_->add(1);
  Alert alert;
  alert.kind = kind;
  alert.agent = agent;
  alert.value = value;
  alert.threshold = threshold;
  alert.wall_ns = now_ns;
  alert.message = std::move(message);
  POWERAPI_LOG_WARN(kLog) << to_string(kind) << ": " << alert.message;
  alerts.push_back(std::move(alert));
}

}  // namespace powerapi::net
