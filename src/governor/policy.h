// Governor policy layer: pure, deterministic decision arithmetic.
//
// Everything here is free of actors, clocks and I/O so the control law can
// be unit-tested exhaustively and the Governor stays a thin shell:
//  * RungLadder      — a host's actuation states ordered from fastest
//                      (rung 0) to thriftiest, built from the DVFS ladder
//                      and the core count under one of two orderings
//                      (pace-to-deadline vs race-to-idle).
//  * compute_shares  — weighted split of the fleet budget across hosts with
//                      redistribution of unused headroom to hosts in
//                      deficit (budget-neutral: shares always sum to the
//                      budget).
//  * StepController  — per-host proportional step-down / single-step-up
//                      controller with a hysteresis band and an up-step
//                      cooldown, the oscillation-avoidance core.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/units.h"

namespace powerapi::governor {

/// How a host trades frequency against parked cores when throttling.
enum class Policy {
  /// Pace-to-deadline: lower frequency first (all cores stay on, everyone
  /// runs slower), park cores only when the ladder floor is not enough.
  /// Best when latency must degrade gracefully across all tasks.
  kPaceToDeadline,
  /// Race-to-idle: park cores first at full frequency (fewer cores, each
  /// still fast), lower frequency only once parking is exhausted. Best when
  /// per-task completion time matters more than parallel width.
  kRaceToIdle,
};

/// One actuation state: the package frequency set point and how many cores
/// are parked while in it.
struct Rung {
  double frequency_hz = 0.0;
  std::size_t parked_cores = 0;
};

/// Builds a host's actuation ladder. `frequencies_ascending` is the DVFS
/// ladder low→high (CpuSpec order); `cores` the physical core count;
/// `min_active_cores` the floor on unparked cores (clamped to [1, cores]).
/// Rung 0 is always {f_max, 0 parked}; each later rung strictly reduces
/// power. The ordering of frequency rungs vs parking rungs follows `policy`.
std::vector<Rung> build_rung_ladder(Policy policy,
                                    std::span<const double> frequencies_ascending,
                                    std::size_t cores,
                                    std::size_t min_active_cores = 1);

/// Splits `budget` watts across hosts: base share ∝ weight, then unused
/// headroom (base − measured, where positive) is transferred to hosts over
/// their base, proportional to each deficit. The transfer is capped at
/// min(total surplus, total deficit) so Σ shares == budget exactly and no
/// donor's share drops below its own measured draw. `weights` and `watts`
/// must be the same length; `out` is resized to match.
void compute_shares(double budget, std::span<const double> weights,
                    std::span<const double> watts, std::vector<double>& out);

/// Per-host hysteresis/cooldown stepper. Stateless about the ladder itself;
/// it only moves an abstract rung index in [0, max_rung].
class StepController {
 public:
  struct Options {
    double hysteresis_watts = 2.0;      ///< Dead band around the share.
    util::DurationNs cooldown_ns = util::ms_to_ns(1000);
    std::size_t max_step = 1;           ///< Rungs per proportional down-step.
  };

  StepController() = default;
  explicit StepController(Options options) : options_(options) {}

  /// Decides the next rung given the current one, the measured watts, the
  /// host's share and the (simulated) time. Over budget (watts > share +
  /// hysteresis): steps DOWN the ladder immediately — safety direction, no
  /// cooldown — by rungs proportional to the overshoot in hysteresis-band
  /// units, capped at max_step; arms the cooldown. Under budget (watts <
  /// share − hysteresis): steps UP one rung only after the cooldown has
  /// elapsed since the last actuation in either direction — the asymmetry
  /// (down fast, up slow and single-stepped) is what prevents limit-cycle
  /// oscillation around the cap. Inside the band: holds.
  std::size_t decide(std::size_t current_rung, std::size_t max_rung, double watts,
                     double share_watts, util::TimestampNs now_ns);

  /// Direction of the last decide(): -1 stepped down, +1 stepped up, 0 held.
  int last_direction() const noexcept { return last_direction_; }

 private:
  Options options_;
  util::TimestampNs last_actuation_ns_ = -1;  ///< -1 = never actuated.
  int last_direction_ = 0;
};

}  // namespace powerapi::governor
