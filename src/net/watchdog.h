// Watchdog: rate-limited, structured anomaly alerts over the fleet's
// observability plane.
//
// The watchdog is a plain object the driver calls: check(now_ns, sample)
// evaluates one WatchdogSample — a snapshot of the collector's merged view
// (CollectorStatus::watchdog_sample) or of an in-process fleet's metrics
// (ScenarioRunner) — and returns an Alert for each tripped rule:
//
//   kDropSpike       — an agent dropped more than `drop_spike` records
//                      since the previous tick;
//   kReconnectStorm  — an agent's reconnect counter grew by more than
//                      `reconnect_storm` since the previous tick;
//   kStale           — a connected agent produced no records for longer
//                      than `staleness_ns`;
//   kSelfWattsBudget — fleet-wide self-monitoring watts exceed
//                      `self_watts_budget` (the observer-effect cap);
//   kBudgetViolation — sensed fleet power has exceeded the governor's watt
//                      budget for `budget_violation_ticks` consecutive
//                      ticks (the cap is being violated faster than the
//                      governor can throttle — or actuation is pinned at
//                      the ladder floor).
//
// Alerts are rate-limited per (kind, agent): repeats inside
// `min_alert_interval_ns` are suppressed and counted, so a flapping agent
// cannot flood the log. Raised alerts are logged; both raised and
// suppressed alerts surface as "obs.watchdog.*" counters. Time comes
// exclusively from check()'s now_ns, so every rule is deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/observability.h"

namespace powerapi::net {

/// Point-in-time fleet view the watchdog evaluates (a snapshot of
/// CollectorStatus, decoupled so tests can script it).
struct WatchdogSample {
  struct Agent {
    std::string label;
    bool connected = false;
    std::uint64_t records_dropped = 0;  ///< Running total (deltas evaluated).
    std::uint64_t reconnects = 0;       ///< Running total (deltas evaluated).
    std::int64_t last_activity_wall_ns = 0;
  };
  std::vector<Agent> agents;
  double fleet_self_watts = 0.0;
  /// Governor plane (0/0 when no governor runs): the sensed fleet draw and
  /// the configured cap, as of this tick.
  double fleet_power_watts = 0.0;
  double power_budget_watts = 0.0;
};

struct WatchdogOptions {
  /// Per-tick drop delta that trips kDropSpike.
  std::uint64_t drop_spike = 100;
  /// Per-tick reconnect delta that trips kReconnectStorm.
  std::uint64_t reconnect_storm = 3;
  /// Silence that trips kStale for a connected agent.
  std::int64_t staleness_ns = 5'000'000'000;
  /// Fleet self-watts cap for kSelfWattsBudget (0 disables the rule).
  double self_watts_budget = 0.0;
  /// Consecutive over-budget ticks before kBudgetViolation raises (the
  /// governor gets this many ticks to throttle before the alarm; sample
  /// power_budget_watts == 0 disables the rule).
  std::uint64_t budget_violation_ticks = 3;
  /// Minimum spacing between repeats of the same (kind, agent) alert.
  std::int64_t min_alert_interval_ns = 1'000'000'000;
  /// Optional counters "obs.watchdog.alerts" / ".suppressed" (non-owning).
  obs::Observability* obs = nullptr;
};

struct Alert {
  enum class Kind {
    kDropSpike,
    kReconnectStorm,
    kStale,
    kSelfWattsBudget,
    kBudgetViolation,
  };

  Kind kind = Kind::kDropSpike;
  std::string agent;  ///< Empty for fleet-wide alerts.
  double value = 0.0;
  double threshold = 0.0;
  std::int64_t wall_ns = 0;
  std::string message;
};

std::string_view to_string(Alert::Kind kind) noexcept;

class Watchdog {
 public:
  explicit Watchdog(WatchdogOptions options = {});

  /// Evaluates `sample` at time `now_ns` and returns the alerts raised
  /// (suppressed repeats are counted, not returned).
  std::vector<Alert> check(std::int64_t now_ns, const WatchdogSample& sample);

  std::uint64_t alerts_raised() const noexcept { return alerts_raised_; }
  std::uint64_t alerts_suppressed() const noexcept { return alerts_suppressed_; }

 private:
  struct AgentBaseline {
    std::uint64_t records_dropped = 0;
    std::uint64_t reconnects = 0;
    bool seen = false;
  };

  void raise(Alert::Kind kind, const std::string& agent, double value,
             double threshold, std::int64_t now_ns, std::string message,
             std::vector<Alert>& alerts);

  WatchdogOptions options_;

  std::map<std::string, AgentBaseline> baselines_;
  std::map<std::pair<int, std::string>, std::int64_t> last_alert_ns_;
  /// Consecutive ticks the sensed fleet power exceeded the budget; resets
  /// to zero the moment a tick lands back under (re-baselining, like the
  /// per-agent counters above).
  std::uint64_t over_budget_ticks_ = 0;
  std::uint64_t alerts_raised_ = 0;
  std::uint64_t alerts_suppressed_ = 0;
  obs::Counter* obs_alerts_ = nullptr;
  obs::Counter* obs_suppressed_ = nullptr;
};

}  // namespace powerapi::net
