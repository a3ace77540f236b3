// Analytic shared-cache model.
//
// At power-modeling granularity (millisecond ticks, billions of accesses) a
// per-access set-associative simulation is neither feasible nor necessary;
// what matters for both counters and watts is the per-thread LLC miss
// *ratio*. We model it with a capacity-sharing law: each thread's effective
// LLC share is proportional to its demand, misses grow as the working set
// overflows that share, and a fill transient makes phase changes visible in
// the trace (the miss spikes in Figure 3-style plots).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "simcpu/cpu_spec.h"
#include "util/units.h"

namespace powerapi::simcpu {

/// One thread's cache demand for the current tick.
struct CacheDemand {
  bool active = false;
  double working_set_bytes = 0.0;
  double llc_refs_per_sec = 0.0;      ///< Estimated LLC-visible reference rate.
  double intrinsic_miss_ratio = 0.0;  ///< Compulsory misses of the workload.
};

/// The model's verdict for one thread.
struct CacheShare {
  double llc_share_bytes = 0.0;  ///< Capacity granted this tick.
  double miss_ratio = 0.0;       ///< Effective LLC miss ratio in [0, 1].
};

class CacheHierarchy {
 public:
  /// `hw_threads` fixes the number of demand slots. The spec must contain a
  /// shared LLC level (validated in CpuSpec).
  CacheHierarchy(const CpuSpec& spec, std::size_t hw_threads);

  /// Computes shares and miss ratios for this tick and advances the fill
  /// transient. `demands.size()` must equal `hw_threads`.
  std::vector<CacheShare> tick(std::span<const CacheDemand> demands, util::DurationNs dt);

  /// Allocation-free variant for the hot path: writes into `out` (resized
  /// to `hw_threads`), so a caller-owned scratch vector is reused across
  /// ticks. Identical arithmetic to tick().
  void tick_into(std::span<const CacheDemand> demands, util::DurationNs dt,
                 std::vector<CacheShare>& out);

  /// Resident bytes currently attributed to thread `i` (for tests).
  double resident_bytes(std::size_t i) const { return resident_.at(i); }

  std::size_t llc_bytes() const noexcept { return llc_bytes_; }
  std::size_t l2_bytes() const noexcept { return l2_bytes_; }

 private:
  std::size_t llc_bytes_ = 0;
  std::size_t l2_bytes_ = 0;
  std::vector<double> resident_;  ///< Per-thread warmed-up footprint in LLC.
  std::vector<double> llc_need_;  ///< Per-tick scratch (reused, no alloc).
  /// Fill factor 1 - exp(-rate·dt) for the last dt seen (dt is fixed per
  /// host, so the exp runs once).
  util::DurationNs fill_dt_ = 0;
  double fill_alpha_ = 0.0;
};

}  // namespace powerapi::simcpu
