#include "simcpu/cache.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace powerapi::simcpu {

namespace {
constexpr double kLineBytes = 64.0;
/// Fraction of granted share a thread can fill per second at full miss rate.
/// Derived from ~10 GB/s fill bandwidth spread over contenders; we fold it
/// into a simple exponential approach with this rate constant.
constexpr double kFillRatePerSec = 40.0;
}  // namespace

CacheHierarchy::CacheHierarchy(const CpuSpec& spec, std::size_t hw_threads)
    : resident_(hw_threads, 0.0), llc_need_(hw_threads, 0.0) {
  for (const auto& level : spec.caches) {
    if (level.shared) llc_bytes_ = std::max(llc_bytes_, level.bytes);
    else if (level.name == "L2") l2_bytes_ = level.bytes;
  }
  if (llc_bytes_ == 0) throw std::invalid_argument("CacheHierarchy: spec lacks a shared LLC");
}

std::vector<CacheShare> CacheHierarchy::tick(std::span<const CacheDemand> demands,
                                             util::DurationNs dt) {
  std::vector<CacheShare> out;
  tick_into(demands, dt, out);
  return out;
}

void CacheHierarchy::tick_into(std::span<const CacheDemand> demands, util::DurationNs dt,
                               std::vector<CacheShare>& out) {
  if (demands.size() != resident_.size()) {
    throw std::invalid_argument("CacheHierarchy::tick: demand slot mismatch");
  }
  const double dt_s = util::ns_to_seconds(dt);
  if (dt != fill_dt_) {
    fill_dt_ = dt;
    fill_alpha_ = 1.0 - std::exp(-kFillRatePerSec * dt_s);
  }

  // Demand beyond the private levels: what actually competes for LLC.
  // (llc_need is read only for active threads, each written here first.)
  std::vector<double>& llc_need = llc_need_;
  double total_need = 0.0;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (!demands[i].active) continue;
    const double beyond_l2 = std::max(0.0, demands[i].working_set_bytes -
                                               static_cast<double>(l2_bytes_));
    // Weight capacity demand by reference rate: a hot small set defends its
    // lines better than a cold large one (LRU approximation).
    const double weight = 1.0 + demands[i].llc_refs_per_sec / 1e7;
    llc_need[i] = beyond_l2 * weight;
    total_need += llc_need[i];
  }

  out.resize(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const auto& d = demands[i];
    if (!d.active) {
      // Inactive threads decay their footprint (evicted by others).
      resident_[i] *= std::max(0.0, 1.0 - 2.0 * dt_s);
      out[i] = CacheShare{};
      continue;
    }
    const double beyond_l2 =
        std::max(0.0, d.working_set_bytes - static_cast<double>(l2_bytes_));
    double share = static_cast<double>(llc_bytes_);
    if (total_need > static_cast<double>(llc_bytes_) && total_need > 0.0) {
      share = static_cast<double>(llc_bytes_) * llc_need[i] / total_need;
    } else {
      share = std::min(share, std::max(beyond_l2, kLineBytes));
    }
    const double target_resident = std::min(beyond_l2, share);

    // Exponential fill towards the target (warm-up transient).
    resident_[i] += (target_resident - resident_[i]) * fill_alpha_;

    double capacity_miss = 0.0;
    if (beyond_l2 > kLineBytes) {
      capacity_miss = std::clamp(1.0 - resident_[i] / beyond_l2, 0.0, 1.0);
    }
    CacheShare s;
    s.llc_share_bytes = share;
    s.miss_ratio = std::clamp(
        d.intrinsic_miss_ratio + (1.0 - d.intrinsic_miss_ratio) * capacity_miss, 0.0, 1.0);
    out[i] = s;
  }
}

}  // namespace powerapi::simcpu
