// The closed-loop power governor: sense → estimate → decide → actuate.
//
// A GovernorActor subscribes (via per-host SenseRelay actors) to each
// host's "h<i>/power:aggregated" stream — or a collector's merged
// "remote/..." stream, the rows are the same either side of the wire — and
// holds a fleet-level watt budget by moving each host down/up its
// RungLadder (DVFS set point + parked cores, see policy.h).
//
// Determinism: the governor only evaluates on an explicit GovernorTick,
// which the driver (ScenarioRunner, examples, benches) sends between
// settled FleetMonitor::run_for chunks — the fleet is quiescent, every
// aggregated row for the elapsed window has been delivered, and the
// actuations land before the next chunk advances. In kManual mode the whole
// loop is single-threaded and bit-reproducible; in kThreaded mode the
// step hand-off between host slices gives the same per-host decision series.
//
// Observability: decisions are counted ("governor.actuations", ".steps_up",
// ".steps_down", ".ticks"), the sensed fleet draw and the budget are gauges
// ("governor.fleet_watts", ".budget_watts"), each evaluation records a
// "governor/decide" span, and every actuation is published on the
// "governor/actuation" bus topic for reporters and tests.
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

/// Evaluate-now command, sent by the driver between settled run chunks.
struct GovernorTick {
  util::TimestampNs now_ns = 0;
};

/// Internal sense message: one host's aggregated machine-power row, tagged
/// with the host index by that host's SenseRelay. Machine scope is either
/// the empty group (timestamp/pid dimensions) or the "(machine)" group row
/// (group dimension); the latter is authoritative when both appear.
struct HostPower {
  std::size_t host = 0;
  util::TimestampNs timestamp = 0;
  std::string formula;
  double watts = 0.0;
  bool machine_scope = false;  ///< True for "(machine)" group rows.
};

/// One applied decision, published on "governor/actuation" and kept in the
/// governor's history for tests and reports.
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
/// callbacks. The callbacks are invoked from the governor actor's receive —
/// with the driver protocol above, always while the fleet is quiescent.
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

class GovernorActor final : public actors::Actor {
 public:
  GovernorActor(actors::EventBus& bus, GovernorOptions options,
                std::vector<HostControl> hosts);

  void receive(actors::Envelope& envelope) override;

  /// Spawns a SenseRelay forwarding `topic`'s machine-power rows to
  /// `governor` tagged as `host_index`, and subscribes it. Works for local
  /// per-host topics and for "remote/<agent>/power:aggregated" alike.
  static actors::ActorRef spawn_sense_relay(actors::ActorSystem& system,
                                            actors::EventBus& bus,
                                            actors::EventBus::TopicId topic,
                                            actors::ActorRef governor,
                                            std::size_t host_index,
                                            const std::string& name);

  // --- Post-settle introspection (drain() first) ---
  std::uint64_t actuation_count() const noexcept { return actuation_count_; }
  const std::vector<Actuation>& history() const noexcept { return history_; }
  std::size_t current_rung(std::size_t host) const { return hosts_.at(host).rung; }
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
    util::TimestampNs last_sample_ns = -1;
  };

  void on_host_power(const HostPower& msg);
  void evaluate(util::TimestampNs now_ns);
  /// The sensed draw for one host under the formula preference order;
  /// returns false when no row has arrived yet.
  bool sensed_watts(const HostState& host, double& out) const;
  void apply(HostState& host, std::size_t host_index, std::size_t new_rung,
             int direction, double watts, double share, util::TimestampNs now_ns);

  actors::EventBus* bus_;
  GovernorOptions options_;
  std::vector<HostState> hosts_;
  actors::EventBus::TopicId actuation_topic_;
  std::uint64_t actuation_count_ = 0;
  std::uint64_t tick_count_ = 0;
  double last_fleet_watts_ = 0.0;
  std::vector<Actuation> history_;
  // Evaluation scratch (reused per tick).
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

}  // namespace powerapi::governor
