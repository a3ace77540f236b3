// The simulated multi-core machine: executes per-thread workload demand in
// fixed time quanta, maintains hardware performance counters (machine-wide
// and per hardware thread) and produces ground-truth power.
//
// The machine knows nothing about processes or scheduling — the os layer
// decides which task runs on which hardware thread each tick and passes the
// assignment in. This mirrors the real split (silicon vs kernel) and keeps
// the counter semantics identical to perf's per-CPU view.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "simcpu/cache.h"
#include "simcpu/counters.h"
#include "simcpu/cpu_spec.h"
#include "simcpu/cstates.h"
#include "simcpu/dvfs.h"
#include "simcpu/exec_profile.h"
#include "simcpu/power_gt.h"
#include "util/units.h"

namespace powerapi::simcpu {

/// What the OS schedules onto one hardware thread for the next tick.
struct ThreadWork {
  bool active = false;
  std::int64_t task_id = -1;  ///< Opaque to the machine; echoed in results.
  ExecProfile profile;
};

/// Execution outcome for one hardware thread over one tick.
struct ThreadTickResult {
  std::int64_t task_id = -1;
  CounterBlock delta;          ///< Counter increments for this tick.
  double utilization = 0.0;    ///< Busy fraction of the tick in [0, 1].
  double instructions_per_sec = 0.0;
  /// Ground-truth energy attributable to this thread's activity this tick:
  /// its (SMT-discounted) core dynamic energy plus its share of uncore and
  /// DRAM traffic energy. Shared infrastructure (platform, static, idle) is
  /// deliberately NOT attributed — per-process estimators model activity.
  double attributed_joules = 0.0;
};

struct TickResult {
  std::vector<ThreadTickResult> threads;  ///< One entry per hardware thread.
  PowerBreakdown power;                   ///< Average watts over the tick.
  double energy_joules = 0.0;             ///< power.total() × dt.
};

class Machine {
 public:
  explicit Machine(CpuSpec spec, GroundTruthParams params = {});

  const CpuSpec& spec() const noexcept { return spec_; }
  const GroundTruthParams& ground_truth() const noexcept { return params_; }

  /// Sets the package frequency set point; snaps to the nearest NOMINAL
  /// DVFS ladder point (turbo bins cannot be pinned). Returns the applied
  /// set point. On a clustered (big.LITTLE) part this drives every domain:
  /// cluster 0 snaps `hz` on its own (= the package) ladder, every other
  /// cluster snaps the proportional point `hz × cluster_max / package_max`
  /// on its ladder — one governor decision moves the whole SoC coherently.
  double set_frequency(double hz);
  double frequency() const noexcept { return cluster_freq_hz_[0]; }
  /// The frequency the last tick actually ran at: equals the set point,
  /// except when TurboBoost engaged (set point at nominal max and few busy
  /// cores) — then one of spec().turbo_frequencies_hz. Clustered parts
  /// report the primary (cluster 0) domain.
  double last_effective_frequency_hz() const noexcept { return effective_hz_; }

  // --- Per-cluster frequency domains (big.LITTLE) ---
  std::size_t cluster_count() const noexcept { return cluster_freq_hz_.size(); }
  /// Pins ONE cluster's set point on that cluster's own ladder, leaving the
  /// others untouched (per-domain DVFS). Returns the applied set point.
  double set_cluster_frequency(std::size_t cluster, double hz);
  double cluster_frequency(std::size_t cluster) const {
    return cluster_freq_hz_.at(cluster);
  }

  // --- Core parking (governor actuation) ---
  /// Parks or unparks one core. A parked core is power-gated: it executes
  /// no work (ThreadWork on its hardware threads is ignored), contributes
  /// no counter deltas, and burns the C6 residual instead of walking the
  /// C-state ladder. Unparking charges the C6 wake spike on the next tick.
  /// Parking is idempotent; returns the new parked state.
  bool set_core_parked(std::size_t core, bool parked);
  bool core_parked(std::size_t core) const;
  std::size_t parked_core_count() const noexcept { return parked_count_; }

  /// Executes one quantum. `work.size()` must equal `spec().hw_threads()`.
  /// Returns a reference to an internal result buffer (reused every tick,
  /// so the hot path allocates nothing) — valid until the next tick() call;
  /// copy it if you need it to outlive that.
  const TickResult& tick(std::span<const ThreadWork> work, util::DurationNs dt);

  // --- Cumulative observables ---
  const CounterBlock& machine_counters() const noexcept { return machine_counters_; }
  const CounterBlock& thread_counters(std::size_t hw_thread) const;
  /// Whole-machine energy since construction (what a wall meter integrates).
  double total_energy_joules() const noexcept { return total_energy_joules_; }
  /// Package-scope energy (what the simulated RAPL MSR exposes).
  double package_energy_joules() const noexcept { return package_energy_joules_; }
  /// Average watts over the most recent tick.
  double last_power_watts() const noexcept { return last_breakdown_.total(); }
  const PowerBreakdown& last_breakdown() const noexcept { return last_breakdown_; }
  CState core_cstate(std::size_t core) const;
  util::TimestampNs sim_time_ns() const noexcept { return sim_time_ns_; }

 private:
  /// Per-tick working vectors, kept as members so steady-state ticks are
  /// allocation-free (sized once to hw_threads/cores, reused thereafter).
  /// The per-thread ones are written for every active thread before they
  /// are read, so only the per-core ones are cleared each tick.
  struct TickScratch {
    std::vector<CacheDemand> demands;
    std::vector<CacheShare> shares;
    std::vector<std::uint8_t> core_has_work;
    std::vector<std::uint8_t> core_busy;
    std::vector<double> core_activity_joules;
    std::vector<std::size_t> core_active_threads;
    std::vector<double> thread_activity;
    std::vector<double> thread_refs;
    std::vector<double> thread_misses;
    std::vector<double> thread_prefetch;
  };

  CpuSpec spec_;
  GroundTruthParams params_;
  CacheHierarchy cache_;
  std::vector<CoreCState> core_cstates_;
  std::vector<CounterBlock> thread_counters_;
  CounterBlock machine_counters_;
  TickScratch scratch_;
  TickResult result_;
  // Per-frequency-domain state (one entry for homogeneous parts, one per
  // CoreClusterSpec otherwise). Indexed by cluster; core → cluster via
  // core_cluster_.
  std::vector<VoltageTable> cluster_voltages_;
  std::vector<double> cluster_freq_hz_;      ///< Set points.
  std::vector<double> cluster_ladder_max_;   ///< Nominal max per cluster.
  std::vector<double> cluster_perf_;         ///< IPC multiplier.
  std::vector<double> cluster_energy_;       ///< Activity-energy multiplier.
  std::vector<std::uint32_t> core_cluster_;  ///< Core index → cluster index.
  /// Effective frequency per cluster and the factors that depend on it
  /// alone. tick() recomputes a cluster's factors only when its effective
  /// frequency differs from the one they were computed at, which covers
  /// every way it can change (set points, turbo bins).
  std::vector<double> cluster_eff_hz_;
  std::vector<double> cluster_dyn_scale_;
  std::vector<double> cluster_static_scale_;
  std::vector<double> cluster_dram_latency_cycles_;
  double llc_hit_cycles_ = 30.0;  ///< Shared-LLC hit latency from the spec.
  std::vector<std::uint8_t> core_parked_;    ///< 1 = power-gated by the OS.
  std::size_t parked_count_ = 0;
  double pending_wake_joules_ = 0.0;  ///< Charged on the tick after unpark.
  double effective_hz_ = 0.0;
  double total_energy_joules_ = 0.0;
  double package_energy_joules_ = 0.0;
  PowerBreakdown last_breakdown_;
  util::TimestampNs sim_time_ns_ = 0;
};

}  // namespace powerapi::simcpu
