#include "simcpu/machine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/round.h"

namespace powerapi::simcpu {

namespace {
/// Memory-level parallelism: fraction of memory latency that is NOT hidden
/// by out-of-order execution (lower = more overlap).
constexpr double kMlpExposure = 0.30;
/// DRAM access latency in nanoseconds (core-frequency independent).
constexpr double kDramLatencyNs = 65.0;
/// Branch misprediction flush penalty in core cycles.
constexpr double kBranchFlushCycles = 15.0;
/// Issue-rate share each hyperthread gets when its sibling is busy. Two
/// active threads together achieve 2×0.62 = 1.24× single-thread throughput,
/// the classic ~25% SMT gain.
constexpr double kSmtIssueShare = 0.62;
constexpr double kCacheLineBytes = 64.0;

double closest_on_ladder(const std::vector<double>& ladder, double hz) {
  double best = ladder.front();
  for (double f : ladder) {
    if (std::abs(f - hz) < std::abs(best - hz)) best = f;
  }
  return best;
}
}  // namespace

Machine::Machine(CpuSpec spec, GroundTruthParams params)
    : spec_(std::move(spec)),
      params_(params),
      cache_(spec_, spec_.hw_threads()),
      thread_counters_(spec_.hw_threads()) {
  spec_.validate();
  params_.cstates.enabled = spec_.c_states;
  core_cstates_.assign(spec_.cores, CoreCState(params_.cstates));
  // One frequency domain per cluster; a homogeneous part is one pseudo
  // cluster spanning every core at scale 1.0 (the arithmetic then reduces
  // bit-for-bit to the single-domain form).
  const std::size_t domains = spec_.cluster_count();
  for (std::size_t c = 0; c < domains; ++c) {
    if (spec_.heterogeneous()) {
      const CoreClusterSpec& cl = spec_.clusters[c];
      cluster_voltages_.emplace_back(cl.frequencies_hz, std::vector<double>{},
                                     params_.v_min, params_.v_max);
      cluster_freq_hz_.push_back(cl.frequencies_hz.back());
      cluster_ladder_max_.push_back(cl.frequencies_hz.back());
      cluster_perf_.push_back(cl.perf_scale);
      cluster_energy_.push_back(cl.energy_scale);
    } else {
      cluster_voltages_.emplace_back(spec_, params_.v_min, params_.v_max);
      cluster_freq_hz_.push_back(spec_.max_frequency_hz());
      cluster_ladder_max_.push_back(spec_.max_frequency_hz());
      cluster_perf_.push_back(1.0);
      cluster_energy_.push_back(1.0);
    }
  }
  core_parked_.assign(spec_.cores, 0);
  core_cluster_.resize(spec_.cores);
  for (std::size_t core = 0; core < spec_.cores; ++core) {
    core_cluster_[core] = static_cast<std::uint32_t>(spec_.cluster_of_core(core));
  }
  // NaN compares unequal to every frequency, so the first tick computes
  // every cluster's factors.
  cluster_eff_hz_.assign(domains, std::numeric_limits<double>::quiet_NaN());
  cluster_dyn_scale_.resize(domains);
  cluster_static_scale_.resize(domains);
  cluster_dram_latency_cycles_.resize(domains);
  for (const auto& c : spec_.caches) {
    if (c.shared) llc_hit_cycles_ = c.hit_cycles;
  }
  const std::size_t n = spec_.hw_threads();
  scratch_.demands.resize(n);
  scratch_.core_has_work.resize(spec_.cores);
  scratch_.core_busy.resize(spec_.cores);
  scratch_.core_activity_joules.resize(spec_.cores);
  scratch_.core_active_threads.resize(spec_.cores);
  scratch_.thread_activity.resize(n);
  scratch_.thread_refs.resize(n);
  scratch_.thread_misses.resize(n);
  scratch_.thread_prefetch.resize(n);
  result_.threads.resize(n);
  effective_hz_ = cluster_freq_hz_[0];
}

double Machine::set_frequency(double hz) {
  if (!spec_.speedstep) return cluster_freq_hz_[0];
  cluster_freq_hz_[0] = spec_.closest_frequency_hz(hz);
  // Secondary domains follow proportionally on their own ladders.
  const double primary_max = cluster_ladder_max_[0];
  for (std::size_t c = 1; c < cluster_freq_hz_.size(); ++c) {
    cluster_freq_hz_[c] = closest_on_ladder(
        spec_.clusters[c].frequencies_hz, hz * cluster_ladder_max_[c] / primary_max);
  }
  return cluster_freq_hz_[0];
}

double Machine::set_cluster_frequency(std::size_t cluster, double hz) {
  if (cluster >= cluster_freq_hz_.size()) {
    throw std::invalid_argument("Machine::set_cluster_frequency: no such cluster");
  }
  if (!spec_.speedstep) return cluster_freq_hz_[cluster];
  const std::vector<double>& ladder = spec_.heterogeneous()
                                          ? spec_.clusters[cluster].frequencies_hz
                                          : spec_.frequencies_hz;
  cluster_freq_hz_[cluster] = closest_on_ladder(ladder, hz);
  return cluster_freq_hz_[cluster];
}

bool Machine::set_core_parked(std::size_t core, bool parked) {
  if (core >= spec_.cores) {
    throw std::invalid_argument("Machine::set_core_parked: no such core");
  }
  const bool was = core_parked_[core] != 0;
  if (was == parked) return parked;
  core_parked_[core] = parked ? 1 : 0;
  if (parked) {
    ++parked_count_;
  } else {
    --parked_count_;
    // Waking from the power-gated state costs the C6 wake spike; charge it
    // against the next tick's idle energy (a parked core's CoreCState is
    // frozen, so the spike cannot come from advance()).
    pending_wake_joules_ += params_.cstates.c6_wake_joules;
  }
  return parked;
}

bool Machine::core_parked(std::size_t core) const {
  if (core >= spec_.cores) {
    throw std::invalid_argument("Machine::core_parked: no such core");
  }
  return core_parked_[core] != 0;
}

const CounterBlock& Machine::thread_counters(std::size_t hw_thread) const {
  return thread_counters_.at(hw_thread);
}

CState Machine::core_cstate(std::size_t core) const {
  return core_cstates_.at(core).state();
}

const TickResult& Machine::tick(std::span<const ThreadWork> work, util::DurationNs dt) {
  const std::size_t n = spec_.hw_threads();
  if (work.size() != n) throw std::invalid_argument("Machine::tick: work slot mismatch");
  if (dt <= 0) throw std::invalid_argument("Machine::tick: non-positive dt");

  const double dt_s = util::ns_to_seconds(dt);
  const std::size_t tpc = spec_.threads_per_core;

  // TurboBoost: with the set point at nominal max and few busy cores, the
  // clock rises into the per-active-core turbo table (last bin = 1 core).
  // Turbo only exists on single-domain parts (validated), so it adjusts the
  // primary cluster alone.
  double f0 = cluster_freq_hz_[0];
  if (!spec_.turbo_frequencies_hz.empty() &&
      cluster_freq_hz_[0] >= spec_.max_frequency_hz() - 1.0) {
    std::fill(scratch_.core_has_work.begin(), scratch_.core_has_work.end(), 0);
    std::size_t busy_cores = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (work[i].active && work[i].profile.active_fraction > 0.0 &&
          !core_parked_[i / tpc] && !scratch_.core_has_work[i / tpc]) {
        scratch_.core_has_work[i / tpc] = 1;
        ++busy_cores;
      }
    }
    const auto& turbo = spec_.turbo_frequencies_hz;
    if (busy_cores >= 1 && busy_cores <= turbo.size()) {
      f0 = turbo[turbo.size() - busy_cores];
    }
  }
  effective_hz_ = f0;

  // Per-domain effective frequency and V²f scale factors for this tick,
  // recomputed only for a domain whose frequency moved.
  for (std::size_t c = 0; c < cluster_eff_hz_.size(); ++c) {
    const double fc = c == 0 ? f0 : cluster_freq_hz_[c];
    if (fc == cluster_eff_hz_[c]) continue;
    cluster_eff_hz_[c] = fc;
    cluster_dyn_scale_[c] = cluster_voltages_[c].dynamic_scale(fc);
    cluster_static_scale_[c] = cluster_voltages_[c].static_scale(fc);
    // DRAM latency is fixed in wall time, so its cost in core cycles scales
    // with that core's clock.
    cluster_dram_latency_cycles_[c] = kDramLatencyNs * 1e-9 * fc;
  }

  // --- Pass 1: cache demands (rates only; independent of retired counts) ---
  std::vector<CacheDemand>& demands = scratch_.demands;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& w = work[i];
    if (!w.active || w.profile.active_fraction <= 0.0 || core_parked_[i / tpc]) {
      demands[i] = CacheDemand{};
      continue;
    }
    CacheDemand d;
    d.active = true;
    d.working_set_bytes = w.profile.working_set_bytes;
    const std::size_t cl = core_cluster_[i / tpc];
    const double optimistic_ips = cluster_eff_hz_[cl] /
                                  std::max(0.05, w.profile.cpi_base) *
                                  w.profile.active_fraction * cluster_perf_[cl];
    d.llc_refs_per_sec = optimistic_ips * w.profile.cache_refs_per_kinstr / 1000.0;
    d.intrinsic_miss_ratio = w.profile.intrinsic_miss_ratio;
    demands[i] = d;
  }
  cache_.tick_into(demands, dt, scratch_.shares);
  const std::vector<CacheShare>& shares = scratch_.shares;

  // --- Pass 2: execute each hardware thread ---
  TickResult& result = result_;
  std::fill(scratch_.core_busy.begin(), scratch_.core_busy.end(), 0);
  std::fill(scratch_.core_activity_joules.begin(), scratch_.core_activity_joules.end(), 0.0);
  std::fill(scratch_.core_active_threads.begin(), scratch_.core_active_threads.end(), 0);
  std::vector<std::uint8_t>& core_busy = scratch_.core_busy;
  std::vector<double>& core_activity_joules = scratch_.core_activity_joules;
  std::vector<std::size_t>& core_active_threads = scratch_.core_active_threads;
  std::vector<double>& thread_activity = scratch_.thread_activity;
  std::vector<double>& thread_refs = scratch_.thread_refs;
  std::vector<double>& thread_misses = scratch_.thread_misses;
  std::vector<double>& thread_prefetch = scratch_.thread_prefetch;
  double total_llc_refs = 0.0;
  double total_misses = 0.0;
  double total_prefetch_lines = 0.0;

  for (std::size_t i = 0; i < n; ++i) {
    if (demands[i].active) core_active_threads[i / tpc]++;
  }

  for (std::size_t i = 0; i < n; ++i) {
    auto& out = result.threads[i];
    if (!demands[i].active) {
      out = ThreadTickResult{};
      out.task_id = work[i].task_id;
      continue;
    }
    // An active thread's slot is overwritten field by field below (its
    // attributed_joules in pass 3).
    out.task_id = work[i].task_id;

    const auto& p = work[i].profile;
    const std::size_t core = i / tpc;
    const std::size_t cl = core_cluster_[core];
    const double f = cluster_eff_hz_[cl];
    const double dram_latency_cycles = cluster_dram_latency_cycles_[cl];
    const bool smt_shared = core_active_threads[core] > 1;
    const double issue_share = smt_shared ? kSmtIssueShare : 1.0;

    const double active_s = dt_s * std::clamp(p.active_fraction, 0.0, 1.0);
    const double cycles = f * active_s;

    const double miss_ratio = shares[i].miss_ratio;
    const double refs_per_instr = p.cache_refs_per_kinstr / 1000.0;
    const double misses_per_instr = refs_per_instr * miss_ratio;
    const double llc_hit_per_instr = refs_per_instr * (1.0 - miss_ratio);

    const double mem_stall_per_instr =
        kMlpExposure *
        (llc_hit_per_instr * llc_hit_cycles_ + misses_per_instr * dram_latency_cycles);
    const double branch_stall_per_instr =
        p.branches_per_kinstr / 1000.0 * p.branch_miss_ratio * kBranchFlushCycles;

    const double effective_cpi = std::max(0.05, p.cpi_base) /
                                     (issue_share * cluster_perf_[cl]) +
                                 mem_stall_per_instr + branch_stall_per_instr;
    const double instructions = cycles / effective_cpi;

    CounterBlock d;
    d.cycles = static_cast<std::uint64_t>(util::llround_fast(cycles));
    d.instructions = static_cast<std::uint64_t>(util::llround_fast(instructions));
    const double refs = instructions * refs_per_instr;
    const double misses = refs * miss_ratio;
    d.cache_references = static_cast<std::uint64_t>(util::llround_fast(refs));
    d.cache_misses = static_cast<std::uint64_t>(util::llround_fast(misses));
    const double branches = instructions * p.branches_per_kinstr / 1000.0;
    const double branch_misses = branches * p.branch_miss_ratio;
    d.branch_instructions = static_cast<std::uint64_t>(util::llround_fast(branches));
    d.branch_misses = static_cast<std::uint64_t>(util::llround_fast(branch_misses));
    d.stalled_cycles_backend =
        static_cast<std::uint64_t>(util::llround_fast(instructions * mem_stall_per_instr));
    d.stalled_cycles_frontend =
        static_cast<std::uint64_t>(util::llround_fast(instructions * branch_stall_per_instr));
    d.bus_cycles = static_cast<std::uint64_t>(util::llround_fast(cycles / 10.0));
    d.ref_cycles =
        static_cast<std::uint64_t>(util::llround_fast(cluster_ladder_max_[cl] * active_s));
    if (smt_shared) d.smt_shared_cycles = d.cycles;

    out.delta = d;
    out.utilization = std::clamp(p.active_fraction, 0.0, 1.0);
    out.instructions_per_sec = instructions / dt_s;

    thread_counters_[i] += d;
    machine_counters_ += d;
    core_busy[core] = core_busy[core] || d.instructions > 0 ? 1 : 0;
    total_llc_refs += refs;
    total_misses += misses;
    total_prefetch_lines += instructions * p.prefetch_lines_per_kinstr / 1000.0;

    // Per-thread activity energy (V²f scaled). The SMT discount applies at
    // core scope below; collect raw activity per core first.
    const double activity_joules =
        cluster_dyn_scale_[cl] * cluster_energy_[cl] *
        (instructions * params_.joules_per_instruction * p.instruction_energy_scale +
         cycles * params_.joules_per_cycle +
         branch_misses * params_.joules_per_branch_miss);
    core_activity_joules[core] += activity_joules;
    thread_activity[i] = activity_joules;
    thread_refs[i] = refs;
    thread_misses[i] = misses;
    thread_prefetch[i] = instructions * p.prefetch_lines_per_kinstr / 1000.0;
  }

  // --- Pass 3: power roll-up ---
  PowerBreakdown pb;
  pb.platform = params_.platform_watts;

  double idle_joules = 0.0;
  double dynamic_joules = 0.0;
  bool any_core_busy = false;
  // C6 wake spikes from cores unparked since the last tick (guarded so an
  // unparked machine's arithmetic is bit-identical to pre-parking builds).
  if (pending_wake_joules_ != 0.0) {
    idle_joules += pending_wake_joules_;
    pending_wake_joules_ = 0.0;
  }
  for (std::size_t core = 0; core < spec_.cores; ++core) {
    if (core_parked_[core]) {
      // Power-gated: burns the C6 residual, never promoted/demoted.
      idle_joules += params_.cstates.c6_watts * dt_s;
      continue;
    }
    const bool busy = core_busy[core];
    any_core_busy = any_core_busy || busy;
    idle_joules += core_cstates_[core].advance(dt, busy);
    if (busy) {
      // An active core burns its C0 static power (voltage-scaled, sized by
      // its cluster's silicon).
      const std::size_t cl = core_cluster_[core];
      idle_joules += params_.cstates.c0_idle_watts * cluster_static_scale_[cl] *
                     cluster_energy_[cl] * dt_s;
      const bool both = core_active_threads[core] > 1;
      const double discount = both ? (1.0 - params_.smt_activity_discount) : 1.0;
      dynamic_joules += core_activity_joules[core] * discount;
    }
  }
  pb.cpu_idle = idle_joules / dt_s;
  pb.cpu_dynamic = dynamic_joules / dt_s;

  // Uncore: LLC/ring power — independent of core DVFS (own clock domain).
  double uncore_joules = total_llc_refs * params_.joules_per_llc_reference;
  if (any_core_busy) uncore_joules += params_.uncore_active_watts * dt_s;
  pb.uncore = uncore_joules / dt_s;

  // DRAM: per-miss energy inflated by bandwidth-dependent queueing; the
  // prefetcher's line traffic adds bandwidth and energy but no miss counts.
  const double miss_bw =
      (total_misses + total_prefetch_lines) * kCacheLineBytes / dt_s;
  const double queue =
      1.0 + params_.dram_queue_factor *
                std::pow(std::min(1.0, miss_bw / params_.dram_bandwidth_max_bytes_per_sec), 2);
  pb.dram = (total_misses * params_.joules_per_dram_miss +
             total_prefetch_lines * params_.joules_per_prefetch_line) *
            queue / dt_s;

  // Per-thread ground-truth attribution: SMT-discounted core activity, the
  // thread's own uncore/DRAM traffic energy (queue-adjusted), and an equal
  // share of the static power of the core the thread keeps awake. Platform
  // power and idle-core residuals stay unattributed (machine overhead).
  for (std::size_t i = 0; i < n; ++i) {
    if (!demands[i].active) continue;
    const std::size_t core = i / tpc;
    const std::size_t cl = core_cluster_[core];
    const bool both = core_active_threads[core] > 1;
    const double discount = both ? (1.0 - params_.smt_activity_discount) : 1.0;
    const double static_share =
        core_busy[core]
            ? params_.cstates.c0_idle_watts * cluster_static_scale_[cl] *
                  cluster_energy_[cl] * dt_s /
                  static_cast<double>(core_active_threads[core])
            : 0.0;
    result.threads[i].attributed_joules =
        thread_activity[i] * discount + static_share +
        thread_refs[i] * params_.joules_per_llc_reference +
        (thread_misses[i] * params_.joules_per_dram_miss +
         thread_prefetch[i] * params_.joules_per_prefetch_line) *
            queue;
  }

  result.power = pb;
  result.energy_joules = pb.total() * dt_s;
  total_energy_joules_ += result.energy_joules;
  package_energy_joules_ += pb.package() * dt_s;
  last_breakdown_ = pb;
  sim_time_ns_ += dt;
  return result;
}

}  // namespace powerapi::simcpu
