// The closed-loop power governor: sense → estimate → decide → actuate.
//
// A Governor is a plain object the driver calls. It senses each host's
// aggregated rows through observe() — attached as a callback reporter on
// that host's pipeline, or fed a collector's merged "remote/..." rows, the
// rows are the same either side of the wire — and decide() holds a
// fleet-level watt budget by moving each host down/up its RungLadder (DVFS
// set point + parked cores, see policy.h).
//
// Threading: observe() for different hosts may run concurrently on the
// fleet's slice threads; each call touches only that host's state. decide()
// and the introspection calls run on the driver between run_for chunks, when
// the fleet is quiescent: every aggregated row of the elapsed window has
// been observed, and the actuations land before the next chunk advances. In
// kManual mode the whole loop is single-threaded and bit-reproducible; in
// kThreaded mode each host's rows arrive in the same order, so the decision
// series is the same.
//
// Observability: decisions are counted ("governor.actuations", ".steps_up",
// ".steps_down", ".ticks"), the sensed fleet draw and the budget are gauges
// ("governor.fleet_watts", ".budget_watts"), and each decide() records a
// "governor/decide" span.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "actors/actor.h"
#include "actors/actor_system.h"
#include "actors/event_bus.h"
#include "governor/policy.h"
#include "obs/observability.h"
#include "powerapi/messages.h"
#include "util/units.h"

namespace powerapi::os {
class System;
}  // namespace powerapi::os

namespace powerapi::governor {

/// One applied decision, kept in the governor's history for tests and
/// reports.
struct Actuation {
  util::TimestampNs timestamp = 0;
  std::string host;
  int direction = 0;            ///< -1 stepped down, +1 stepped up.
  std::size_t rung = 0;         ///< New rung index after the step.
  double frequency_hz = 0.0;    ///< Set point applied.
  std::size_t parked_cores = 0; ///< Parked-core count applied.
  double host_watts = 0.0;      ///< Sensed draw that triggered the step.
  double share_watts = 0.0;     ///< The host's budget share at decision time.
};

/// The governor's handle on one host: identity, topology and actuation
/// callbacks. The callbacks are invoked from decide() — with the driver
/// protocol above, always while the fleet is quiescent.
struct HostControl {
  std::string label;
  std::size_t cores = 1;
  std::vector<double> frequencies_ascending;  ///< DVFS ladder, low → high.
  double weight = 1.0;                        ///< Budget-share weight.
  std::function<double(double hz)> set_frequency;
  std::function<std::size_t(std::size_t cores)> set_parked;
};

/// Builds a HostControl actuating a simulated os::System (pins the package
/// frequency, parks the highest-indexed cores). The system must outlive the
/// governor.
HostControl control_for(std::string label, os::System& system, double weight = 1.0);

struct GovernorOptions {
  double budget_watts = 0.0;  ///< Fleet-level cap; <= 0 disables stepping.
  Policy policy = Policy::kPaceToDeadline;
  double hysteresis_watts = 2.0;
  util::DurationNs cooldown_ns = util::ms_to_ns(1000);
  std::size_t max_step = 1;          ///< Max rungs per proportional down-step.
  std::size_t min_active_cores = 1;  ///< Parking floor per host.
  /// Formula whose machine rows drive decisions; empty = first available of
  /// "powerapi-hpc", "powerspy", "rapl", then lexicographically first.
  std::string formula;
  obs::Observability* obs = nullptr;  ///< Optional; null = unobserved.
};

class Governor {
 public:
  Governor(GovernorOptions options, std::vector<HostControl> hosts);
  // Drivers hand pipelines callbacks that hold the governor's address.
  Governor(const Governor&) = delete;
  Governor& operator=(const Governor&) = delete;

  /// Senses one of host `host`'s aggregated rows. Only machine rows count:
  /// pid kMachinePid with the group empty (timestamp/pid dimensions) or
  /// "(machine)" (group dimension), the latter authoritative when both
  /// appear. Per-pid and named-group rows attribute rather than meter the
  /// host, and "(fleet)" rows are a different dimension; all are ignored.
  void observe(std::size_t host, const api::AggregatedPower& row);

  /// Shares the budget across hosts from the latest sensed draws and steps
  /// each host whose draw leaves its share's hysteresis band.
  void decide(util::TimestampNs now_ns);

  std::uint64_t actuation_count() const noexcept { return actuation_count_; }
  const std::vector<Actuation>& history() const noexcept { return history_; }
  std::size_t current_rung(std::size_t host) const { return hosts_.at(host).rung; }
  /// The sensed fleet draw at the last decide().
  double last_fleet_watts() const noexcept { return last_fleet_watts_; }

 private:
  struct Sample {
    double watts = 0.0;
    bool machine_scope = false;
  };
  struct HostState {
    HostControl control;
    std::vector<Rung> ladder;
    StepController controller;
    std::size_t rung = 0;
    /// Latest machine-scope watts per formula (deterministic iteration).
    std::map<std::string, Sample> watts_by_formula;
  };

  /// The sensed draw for one host under the formula preference order;
  /// returns false when no row has arrived yet.
  bool sensed_watts(const HostState& host, double& out) const;
  void apply(HostState& host, std::size_t new_rung, int direction, double watts,
             double share, util::TimestampNs now_ns);

  GovernorOptions options_;
  std::vector<HostState> hosts_;
  std::uint64_t actuation_count_ = 0;
  std::uint64_t tick_count_ = 0;
  double last_fleet_watts_ = 0.0;
  std::vector<Actuation> history_;
  // Evaluation scratch (reused per decide).
  std::vector<double> weights_scratch_;
  std::vector<double> watts_scratch_;
  std::vector<double> shares_scratch_;
  std::vector<std::uint8_t> sensed_scratch_;
  // Interned observability handles (null obs = all null/zero).
  obs::Counter* actuations_metric_ = nullptr;
  obs::Counter* steps_down_metric_ = nullptr;
  obs::Counter* steps_up_metric_ = nullptr;
  obs::Counter* ticks_metric_ = nullptr;
  obs::Gauge* fleet_watts_metric_ = nullptr;
  obs::Gauge* budget_watts_metric_ = nullptr;
  obs::TraceCollector::NameId decide_span_ = 0;
};

// Actor shim, kept for fleet_bench.cpp; remove in the next benchmark PR.
// A GovernorActor owns a Governor: each relay spawned by spawn_sense_relay
// forwards its topic's rows to observe(), and a GovernorTick calls decide().
// New drivers call a Governor directly.
struct GovernorTick {
  util::TimestampNs now_ns = 0;
};

class GovernorActor final : public actors::Actor {
 public:
  GovernorActor(actors::EventBus& bus, GovernorOptions options,
                std::vector<HostControl> hosts);

  void receive(actors::Envelope& envelope) override;

  static actors::ActorRef spawn_sense_relay(actors::ActorSystem& system,
                                            actors::EventBus& bus,
                                            actors::EventBus::TopicId topic,
                                            actors::ActorRef governor,
                                            std::size_t host_index,
                                            const std::string& name);

  std::uint64_t actuation_count() const noexcept { return governor_.actuation_count(); }

 private:
  Governor governor_;
};

}  // namespace powerapi::governor
