// Tests for the CPU simulator: specs, DVFS, C-states, cache model and the
// machine's counter/power semantics.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>

#include "simcpu/cache.h"
#include "simcpu/cpu_spec.h"
#include "simcpu/cstates.h"
#include "simcpu/dvfs.h"
#include "simcpu/machine.h"
#include "workloads/stress.h"

namespace powerapi::simcpu {
namespace {

using util::ms_to_ns;

// --- CpuSpec ---

TEST(CpuSpec, I3MatchesPaperTable1) {
  const CpuSpec spec = i3_2120();
  EXPECT_EQ(spec.vendor, "Intel");
  EXPECT_EQ(spec.cores, 2u);
  EXPECT_EQ(spec.hw_threads(), 4u);
  EXPECT_TRUE(spec.smt());
  EXPECT_TRUE(spec.speedstep);
  EXPECT_FALSE(spec.turbo_boost);
  EXPECT_TRUE(spec.c_states);
  EXPECT_DOUBLE_EQ(spec.tdp_watts, 65.0);
  EXPECT_DOUBLE_EQ(spec.max_frequency_hz(), 3.3e9);
  EXPECT_DOUBLE_EQ(spec.min_frequency_hz(), 1.6e9);
  EXPECT_EQ(spec.frequencies_hz.size(), 10u);
}

TEST(CpuSpec, VariantsAreConsistent) {
  EXPECT_FALSE(i3_2120_no_smt().smt());
  EXPECT_EQ(i3_2120_no_smt().hw_threads(), 2u);
  EXPECT_EQ(quad_core().cores, 4u);
  EXPECT_EQ(quad_core().hw_threads(), 8u);
}

TEST(CpuSpec, FrequencyLookup) {
  const CpuSpec spec = i3_2120();
  EXPECT_DOUBLE_EQ(spec.closest_frequency_hz(1.7e9), 1.6e9);
  EXPECT_DOUBLE_EQ(spec.closest_frequency_hz(5e9), 3.3e9);
  EXPECT_EQ(spec.frequency_index(3.3e9), 9u);
  EXPECT_THROW(spec.frequency_index(2.5e9), std::invalid_argument);
}

TEST(CpuSpec, ValidateCatchesBadSpecs) {
  CpuSpec spec = i3_2120();
  spec.cores = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = i3_2120();
  spec.frequencies_hz = {3e9, 2e9};  // Descending.
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = i3_2120();
  for (auto& c : spec.caches) c.shared = false;  // No LLC.
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = i3_2120();
  spec.threads_per_core = 3;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(CpuSpec, DescribeMentionsKeyFields) {
  const std::string text = i3_2120().describe();
  EXPECT_NE(text.find("Core i3-2120"), std::string::npos);
  EXPECT_NE(text.find("2 cores / 4 threads"), std::string::npos);
  EXPECT_NE(text.find("65"), std::string::npos);
}

// --- VoltageTable ---

TEST(VoltageTable, EndpointsAndMonotonicity) {
  const CpuSpec spec = i3_2120();
  const VoltageTable table(spec, 0.85, 1.10);
  EXPECT_DOUBLE_EQ(table.voltage_at(1.6e9), 0.85);
  EXPECT_DOUBLE_EQ(table.voltage_at(3.3e9), 1.10);
  double prev = 0.0;
  for (const double f : spec.frequencies_hz) {
    const double v = table.voltage_at(f);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(VoltageTable, ScalesAreNormalizedAtMax) {
  const VoltageTable table(i3_2120());
  EXPECT_NEAR(table.dynamic_scale(3.3e9), 1.0, 1e-12);
  EXPECT_NEAR(table.static_scale(3.3e9), 1.0, 1e-12);
  EXPECT_LT(table.dynamic_scale(1.6e9), 0.35);  // V²f drops superlinearly.
  EXPECT_GT(table.dynamic_scale(1.6e9), 0.2);
  EXPECT_THROW(VoltageTable(i3_2120(), -1, 1), std::invalid_argument);
}

// --- C-states ---

TEST(CState, DescendsWithIdleTime) {
  CStateParams params;
  CoreCState core(params);
  EXPECT_EQ(core.state(), CState::kC0);
  core.advance(params.c1_after_ns, /*busy=*/false);
  EXPECT_EQ(core.state(), CState::kC1);
  core.advance(params.c3_after_ns, false);
  EXPECT_EQ(core.state(), CState::kC3);
  core.advance(params.c6_after_ns, false);
  EXPECT_EQ(core.state(), CState::kC6);
  // Waking returns to C0 and costs the C6 wake energy.
  const double wake = core.advance(ms_to_ns(1), /*busy=*/true);
  EXPECT_EQ(core.state(), CState::kC0);
  EXPECT_DOUBLE_EQ(wake, params.c6_wake_joules);
}

TEST(CState, DeeperStatesBurnLess) {
  CStateParams params;
  CoreCState shallow(params);
  CoreCState deep(params);
  // Park "deep" in C6 first.
  deep.advance(params.c6_after_ns, false);
  const double e_shallow = shallow.advance(ms_to_ns(10), false);
  const double e_deep = deep.advance(ms_to_ns(10), false);
  EXPECT_GT(e_shallow, e_deep);
}

TEST(CState, DisabledStaysAtC0) {
  CStateParams params;
  params.enabled = false;
  CoreCState core(params);
  core.advance(util::seconds_to_ns(10), false);
  EXPECT_EQ(core.state(), CState::kC0);
}

TEST(CState, ToStringCovers) {
  EXPECT_STREQ(to_string(CState::kC0), "C0");
  EXPECT_STREQ(to_string(CState::kC6), "C6");
}

// --- Cache model ---

TEST(Cache, SmallWorkingSetHitsIntrinsicRatio) {
  const CpuSpec spec = i3_2120();
  CacheHierarchy cache(spec, 4);
  std::vector<CacheDemand> demands(4);
  demands[0].active = true;
  demands[0].working_set_bytes = 64 * 1024;  // Fits private L2.
  demands[0].llc_refs_per_sec = 1e7;
  demands[0].intrinsic_miss_ratio = 0.05;
  std::vector<CacheShare> shares;
  for (int i = 0; i < 50; ++i) shares = cache.tick(demands, ms_to_ns(1));
  EXPECT_NEAR(shares[0].miss_ratio, 0.05, 1e-6);
}

TEST(Cache, OversizedWorkingSetMissesMore) {
  const CpuSpec spec = i3_2120();
  CacheHierarchy cache(spec, 4);
  std::vector<CacheDemand> demands(4);
  demands[0].active = true;
  demands[0].working_set_bytes = 32.0 * 1024 * 1024;  // 10x the LLC.
  demands[0].llc_refs_per_sec = 1e8;
  demands[0].intrinsic_miss_ratio = 0.05;
  std::vector<CacheShare> shares;
  for (int i = 0; i < 200; ++i) shares = cache.tick(demands, ms_to_ns(1));
  EXPECT_GT(shares[0].miss_ratio, 0.5);
}

TEST(Cache, ContentionShrinksShares) {
  const CpuSpec spec = i3_2120();
  CacheHierarchy alone(spec, 4);
  CacheHierarchy contended(spec, 4);
  std::vector<CacheDemand> one(4);
  one[0].active = true;
  one[0].working_set_bytes = 2.5 * 1024 * 1024;
  one[0].llc_refs_per_sec = 1e8;
  one[0].intrinsic_miss_ratio = 0.02;

  std::vector<CacheDemand> four = one;
  for (int i = 1; i < 4; ++i) four[static_cast<std::size_t>(i)] = one[0];

  std::vector<CacheShare> shares_alone;
  std::vector<CacheShare> shares_contended;
  for (int i = 0; i < 200; ++i) {
    shares_alone = alone.tick(one, ms_to_ns(1));
    shares_contended = contended.tick(four, ms_to_ns(1));
  }
  EXPECT_GT(shares_alone[0].llc_share_bytes, shares_contended[0].llc_share_bytes);
  EXPECT_LT(shares_alone[0].miss_ratio, shares_contended[0].miss_ratio);
}

TEST(Cache, WarmupTransientDecaysMisses) {
  const CpuSpec spec = i3_2120();
  CacheHierarchy cache(spec, 4);
  std::vector<CacheDemand> demands(4);
  demands[0].active = true;
  demands[0].working_set_bytes = 2.0 * 1024 * 1024;  // Fits the LLC.
  demands[0].llc_refs_per_sec = 1e8;
  demands[0].intrinsic_miss_ratio = 0.01;
  const auto first = cache.tick(demands, ms_to_ns(1));
  std::vector<CacheShare> warm;
  for (int i = 0; i < 300; ++i) warm = cache.tick(demands, ms_to_ns(1));
  EXPECT_GT(first[0].miss_ratio, warm[0].miss_ratio);
  EXPECT_NEAR(warm[0].miss_ratio, 0.01, 0.02);
}

// --- Machine ---

std::vector<ThreadWork> all_active(const CpuSpec& spec, const ExecProfile& profile) {
  std::vector<ThreadWork> work(spec.hw_threads());
  for (std::size_t i = 0; i < work.size(); ++i) {
    work[i].active = true;
    work[i].task_id = static_cast<std::int64_t>(i);
    work[i].profile = profile;
  }
  return work;
}

std::vector<ThreadWork> all_idle(const CpuSpec& spec) {
  return std::vector<ThreadWork>(spec.hw_threads());
}

TEST(Machine, CountersAreMonotonicAndConsistent) {
  Machine machine(i3_2120());
  const auto work = all_active(machine.spec(), workloads::cpu_stress());
  CounterBlock prev;
  for (int i = 0; i < 20; ++i) {
    machine.tick(work, ms_to_ns(1));
    const auto& cur = machine.machine_counters();
    EXPECT_GE(cur.instructions, prev.instructions);
    EXPECT_GE(cur.cycles, prev.cycles);
    EXPECT_GE(cur.cache_references, cur.cache_misses);  // Misses ⊆ references.
    prev = cur;
  }
  EXPECT_GT(prev.instructions, 0u);
  // Machine counters equal the sum of per-thread counters.
  CounterBlock sum;
  for (std::size_t i = 0; i < machine.spec().hw_threads(); ++i) {
    sum += machine.thread_counters(i);
  }
  EXPECT_EQ(sum, machine.machine_counters());
}

TEST(Machine, IdlePowerNearCalibratedFloor) {
  Machine machine(i3_2120());
  const auto idle = all_idle(machine.spec());
  // First tick: cores still in C0 — the paper's idle constant regime.
  const auto result = machine.tick(idle, ms_to_ns(1));
  const GroundTruthParams gt;
  EXPECT_NEAR(result.power.total(),
              gt.platform_watts + 2 * gt.cstates.c0_idle_watts, 0.5);
  // After long idling the package drops below that floor (C6).
  TickResult later;
  for (int i = 0; i < 100; ++i) later = machine.tick(idle, ms_to_ns(1));
  EXPECT_LT(later.power.total(), result.power.total());
  EXPECT_EQ(machine.core_cstate(0), CState::kC6);
}

TEST(Machine, PowerGrowsWithFrequency) {
  const auto spec = i3_2120();
  double prev_power = 0.0;
  for (const double hz : spec.frequencies_hz) {
    Machine machine(spec);
    machine.set_frequency(hz);
    const auto work = all_active(spec, workloads::cpu_stress());
    TickResult result;
    for (int i = 0; i < 10; ++i) result = machine.tick(work, ms_to_ns(1));
    EXPECT_GT(result.power.total(), prev_power) << "at " << hz;
    prev_power = result.power.total();
  }
}

TEST(Machine, InstructionsScaleWithFrequency) {
  const auto spec = i3_2120();
  Machine slow(spec);
  Machine fast(spec);
  slow.set_frequency(1.6e9);
  fast.set_frequency(3.3e9);
  const auto work = all_active(spec, workloads::cpu_stress());
  for (int i = 0; i < 10; ++i) {
    slow.tick(work, ms_to_ns(1));
    fast.tick(work, ms_to_ns(1));
  }
  const double ratio = static_cast<double>(fast.machine_counters().instructions) /
                       static_cast<double>(slow.machine_counters().instructions);
  EXPECT_NEAR(ratio, 3.3 / 1.6, 0.1);  // ALU code scales ~linearly with clock.
}

TEST(Machine, SmtSharingReducesPerThreadThroughput) {
  const auto spec = i3_2120();
  Machine machine(spec);
  // One thread alone on core 0.
  std::vector<ThreadWork> solo(spec.hw_threads());
  solo[0].active = true;
  solo[0].task_id = 1;
  solo[0].profile = workloads::cpu_stress();
  const auto r_solo = machine.tick(solo, ms_to_ns(1));

  // Both hyperthreads of core 0 busy.
  std::vector<ThreadWork> pair = solo;
  pair[1].active = true;
  pair[1].task_id = 2;
  pair[1].profile = workloads::cpu_stress();
  const auto r_pair = machine.tick(pair, ms_to_ns(1));

  const double alone = static_cast<double>(r_solo.threads[0].delta.instructions);
  const double shared = static_cast<double>(r_pair.threads[0].delta.instructions);
  EXPECT_LT(shared, alone);
  EXPECT_GT(shared, 0.5 * alone);  // But more than half: SMT gains throughput.
  const double combined = shared + static_cast<double>(r_pair.threads[1].delta.instructions);
  EXPECT_GT(combined, alone);
  // Co-residency is recorded for the HT-aware model.
  EXPECT_EQ(r_pair.threads[0].delta.smt_shared_cycles, r_pair.threads[0].delta.cycles);
  EXPECT_EQ(r_solo.threads[0].delta.smt_shared_cycles, 0u);
}

TEST(Machine, SmtSharingIsEnergyEfficient) {
  const auto spec = i3_2120();
  // Same total demand placed as 2 threads on one core vs 2 cores.
  Machine packed(spec);
  Machine spread(spec);
  std::vector<ThreadWork> pack_work(spec.hw_threads());
  pack_work[0] = {true, 1, workloads::cpu_stress()};
  pack_work[1] = {true, 2, workloads::cpu_stress()};
  std::vector<ThreadWork> spread_work(spec.hw_threads());
  spread_work[0] = {true, 1, workloads::cpu_stress()};
  spread_work[2] = {true, 2, workloads::cpu_stress()};

  double packed_joules = 0;
  double spread_joules = 0;
  std::uint64_t packed_instr = 0;
  std::uint64_t spread_instr = 0;
  for (int i = 0; i < 50; ++i) {
    packed_joules += packed.tick(pack_work, ms_to_ns(1)).energy_joules;
    spread_joules += spread.tick(spread_work, ms_to_ns(1)).energy_joules;
  }
  packed_instr = packed.machine_counters().instructions;
  spread_instr = spread.machine_counters().instructions;
  // Spread finishes more work but burns more machine power (two cores awake).
  EXPECT_GT(spread_instr, packed_instr);
  EXPECT_GT(spread_joules, packed_joules);
}

TEST(Machine, EnergyIntegratesPower) {
  Machine machine(i3_2120());
  const auto work = all_active(machine.spec(), workloads::memory_stress(8e6));
  double sum = 0.0;
  for (int i = 0; i < 25; ++i) {
    const auto r = machine.tick(work, ms_to_ns(2));
    EXPECT_NEAR(r.energy_joules, r.power.total() * 0.002, 1e-9);
    sum += r.energy_joules;
  }
  EXPECT_NEAR(machine.total_energy_joules(), sum, 1e-9);
  EXPECT_LT(machine.package_energy_joules(), machine.total_energy_joules());
  EXPECT_GT(machine.package_energy_joules(), 0.0);
}

TEST(Machine, BreakdownComponentsSumToTotal) {
  Machine machine(i3_2120());
  const auto work = all_active(machine.spec(), workloads::memory_stress(32e6));
  const auto r = machine.tick(work, ms_to_ns(1));
  const auto& pb = r.power;
  EXPECT_NEAR(pb.total(), pb.platform + pb.cpu_idle + pb.cpu_dynamic + pb.uncore + pb.dram,
              1e-12);
  EXPECT_GT(pb.cpu_dynamic, 0.0);
  EXPECT_GT(pb.dram, 0.0);
  EXPECT_GT(pb.uncore, 0.0);
}

TEST(Machine, AttributionIsBoundedByMachineEnergy) {
  Machine machine(i3_2120());
  const auto work = all_active(machine.spec(), workloads::mixed_stress(0.5, 8e6));
  double attributed = 0.0;
  double total = 0.0;
  for (int i = 0; i < 50; ++i) {
    const auto r = machine.tick(work, ms_to_ns(1));
    for (const auto& t : r.threads) attributed += t.attributed_joules;
    total += r.energy_joules;
  }
  EXPECT_GT(attributed, 0.0);
  EXPECT_LT(attributed, total);  // Platform + idle overhead is unattributed.
}

TEST(Machine, FrequencySnapsToLadder) {
  Machine machine(i3_2120());
  EXPECT_DOUBLE_EQ(machine.set_frequency(2.51e9), 2.6e9);
  EXPECT_DOUBLE_EQ(machine.frequency(), 2.6e9);
  EXPECT_DOUBLE_EQ(machine.set_frequency(0.1e9), 1.6e9);
}

TEST(Machine, RejectsBadTickArguments) {
  Machine machine(i3_2120());
  std::vector<ThreadWork> wrong(2);  // Needs 4 slots.
  EXPECT_THROW(machine.tick(wrong, ms_to_ns(1)), std::invalid_argument);
  std::vector<ThreadWork> right(4);
  EXPECT_THROW(machine.tick(right, 0), std::invalid_argument);
}

TEST(Machine, HigherEnergyScaleBurnsMore) {
  const auto spec = i3_2120();
  Machine light(spec);
  Machine heavy(spec);
  auto profile = workloads::cpu_stress();
  profile.instruction_energy_scale = 1.0;
  const auto light_work = all_active(spec, profile);
  profile.instruction_energy_scale = 1.8;
  const auto heavy_work = all_active(spec, profile);
  TickResult rl;
  TickResult rh;
  for (int i = 0; i < 5; ++i) {
    rl = light.tick(light_work, ms_to_ns(1));
    rh = heavy.tick(heavy_work, ms_to_ns(1));
  }
  // Same counters, different watts: the counter-invisible dimension.
  EXPECT_EQ(light.machine_counters().instructions, heavy.machine_counters().instructions);
  EXPECT_GT(rh.power.cpu_dynamic, rl.power.cpu_dynamic);
}

class MachineFrequencyProperty : public ::testing::TestWithParam<double> {};

TEST_P(MachineFrequencyProperty, PowerWithinTdpAndAboveIdle) {
  const auto spec = i3_2120();
  Machine machine(spec);
  machine.set_frequency(GetParam());
  const auto work = all_active(spec, workloads::memory_stress(24e6));
  TickResult r;
  for (int i = 0; i < 20; ++i) r = machine.tick(work, ms_to_ns(1));
  const GroundTruthParams gt;
  EXPECT_GT(r.power.total(), gt.platform_watts);
  EXPECT_LT(r.power.package(), spec.tdp_watts);
}
INSTANTIATE_TEST_SUITE_P(Ladder, MachineFrequencyProperty,
                         ::testing::Values(1.6e9, 2.0e9, 2.6e9, 3.0e9, 3.3e9));

// --- Heterogeneous clusters (big.LITTLE) ---

TEST(CpuSpecClusters, BigLittlePresetIsConsistent) {
  const CpuSpec spec = big_little();
  EXPECT_TRUE(spec.heterogeneous());
  EXPECT_EQ(spec.cluster_count(), 2u);
  EXPECT_EQ(spec.cores, 6u);
  EXPECT_EQ(spec.hw_threads(), 6u);
  // Cores map to clusters by prefix sums of the cluster core counts.
  EXPECT_EQ(spec.cluster_of_core(0), 0u);
  EXPECT_EQ(spec.cluster_of_core(1), 0u);
  EXPECT_EQ(spec.cluster_of_core(2), 1u);
  EXPECT_EQ(spec.cluster_of_core(5), 1u);
  // The primary cluster's ladder IS the package ladder.
  EXPECT_EQ(spec.clusters[0].frequencies_hz, spec.frequencies_hz);
  EXPECT_LT(spec.clusters[1].perf_scale, 1.0);
  EXPECT_LT(spec.clusters[1].energy_scale, 1.0);
}

TEST(CpuSpecClusters, ValidateCatchesBadClusterSpecs) {
  CpuSpec spec = big_little();
  spec.clusters[1].cores = 5;  // 2 + 5 != 6.
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = big_little();
  spec.clusters[0].frequencies_hz.pop_back();  // Ladder != package ladder.
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = big_little();
  spec.turbo_boost = true;  // Turbo is package-global; forbidden here.
  spec.turbo_frequencies_hz = {3.0e9};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = big_little();
  spec.clusters[1].name = "big";  // Duplicate cluster name.
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(MachineClusters, HomogeneousSingleClusterIsBitIdentical) {
  // A one-cluster part with scale 1.0 and the package ladder must behave
  // exactly like the clusterless spec — the refactor's safety property.
  const CpuSpec plain = i3_2120();
  CpuSpec clustered = plain;
  CoreClusterSpec only;
  only.name = "uniform";
  only.cores = plain.cores;
  only.frequencies_hz = plain.frequencies_hz;
  clustered.clusters = {only};

  Machine a(plain);
  Machine b(clustered);
  const auto work = all_active(plain, workloads::mixed_stress(0.7, 8e6, 0.8));
  for (int i = 0; i < 50; ++i) {
    const auto& ra = a.tick(work, ms_to_ns(1));
    const auto& rb = b.tick(work, ms_to_ns(1));
    ASSERT_EQ(ra.energy_joules, rb.energy_joules) << "tick " << i;
    ASSERT_EQ(ra.power.total(), rb.power.total()) << "tick " << i;
  }
  EXPECT_EQ(a.machine_counters(), b.machine_counters());
}

TEST(MachineClusters, LittleCoresAreSlowerAndCheaper) {
  const CpuSpec spec = big_little();
  const auto profile = workloads::cpu_stress(1.0);
  // Same single-thread workload on a big core (thread 0) vs a LITTLE core
  // (thread 5), everything else idle.
  auto run_on = [&](std::size_t thread) {
    Machine machine(spec);
    std::vector<ThreadWork> work(spec.hw_threads());
    work[thread].active = true;
    work[thread].task_id = 1;
    work[thread].profile = profile;
    double joules = 0.0;
    double instructions = 0.0;
    for (int i = 0; i < 50; ++i) {
      const auto& r = machine.tick(work, ms_to_ns(1));
      joules += r.threads[thread].attributed_joules;
      instructions = static_cast<double>(machine.thread_counters(thread).instructions);
    }
    return std::pair<double, double>(instructions, joules);
  };
  const auto [big_instr, big_joules] = run_on(0);
  const auto [little_instr, little_joules] = run_on(5);
  EXPECT_LT(little_instr, big_instr);          // perf_scale and lower f_max.
  EXPECT_LT(little_joules, big_joules);        // energy_scale.
  // And per instruction the LITTLE core is still cheaper.
  EXPECT_LT(little_joules / little_instr, big_joules / big_instr);
}

TEST(MachineClusters, PerClusterFrequencyDomains) {
  Machine machine(big_little());
  ASSERT_EQ(machine.cluster_count(), 2u);
  // Package set point drives both domains proportionally: 1.0 GHz on the
  // big ladder is 1.0/2.6 of max → LITTLE snaps 0.577 GHz to 0.6 GHz.
  EXPECT_DOUBLE_EQ(machine.set_frequency(1.0e9), 1.0e9);
  EXPECT_DOUBLE_EQ(machine.cluster_frequency(0), 1.0e9);
  EXPECT_DOUBLE_EQ(machine.cluster_frequency(1), 0.6e9);
  // Pinning one domain leaves the other alone, snapping on its own ladder.
  EXPECT_DOUBLE_EQ(machine.set_cluster_frequency(1, 1.0e9), 0.9e9);
  EXPECT_DOUBLE_EQ(machine.cluster_frequency(0), 1.0e9);
  EXPECT_DOUBLE_EQ(machine.cluster_frequency(1), 0.9e9);
  EXPECT_THROW(machine.set_cluster_frequency(2, 1e9), std::invalid_argument);
}

TEST(MachineClusters, DroppingLittleFrequencySavesPower) {
  const CpuSpec spec = big_little();
  const auto work = all_active(spec, workloads::cpu_stress(0.9));
  Machine fast(spec);
  Machine slow(spec);
  slow.set_cluster_frequency(1, 0.6e9);
  TickResult rf;
  TickResult rs;
  for (int i = 0; i < 20; ++i) {
    rf = fast.tick(work, ms_to_ns(1));
    rs = slow.tick(work, ms_to_ns(1));
  }
  EXPECT_LT(rs.power.total(), rf.power.total());
  EXPECT_LT(slow.machine_counters().instructions, fast.machine_counters().instructions);
}

// --- Frequency-dependent factors after a detour ---

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_bit_equal(const TickResult& a, const TickResult& b, int tick) {
  SCOPED_TRACE(testing::Message() << "tick " << tick);
  EXPECT_TRUE(bits_equal(a.power.platform, b.power.platform));
  EXPECT_TRUE(bits_equal(a.power.cpu_idle, b.power.cpu_idle));
  EXPECT_TRUE(bits_equal(a.power.cpu_dynamic, b.power.cpu_dynamic));
  EXPECT_TRUE(bits_equal(a.power.uncore, b.power.uncore));
  EXPECT_TRUE(bits_equal(a.power.dram, b.power.dram));
  EXPECT_TRUE(bits_equal(a.energy_joules, b.energy_joules));
  ASSERT_EQ(a.threads.size(), b.threads.size());
  for (std::size_t i = 0; i < a.threads.size(); ++i) {
    EXPECT_EQ(a.threads[i].task_id, b.threads[i].task_id) << "thread " << i;
    EXPECT_EQ(a.threads[i].delta, b.threads[i].delta) << "thread " << i;
    EXPECT_TRUE(bits_equal(a.threads[i].utilization, b.threads[i].utilization));
    EXPECT_TRUE(bits_equal(a.threads[i].instructions_per_sec,
                           b.threads[i].instructions_per_sec));
    EXPECT_TRUE(bits_equal(a.threads[i].attributed_joules, b.threads[i].attributed_joules))
        << "thread " << i;
  }
}

/// Drives one machine from set point B to A, with a core parked and
/// unparked along the way (which also moves turbo bins), and a second
/// machine straight at A with nothing parked. Every tick after the detour
/// must be bit-equal between them: factors computed at B, or at a turbo
/// bin left behind, must not survive the move. The workload fits the
/// private caches, so the detour leaves no cache or C-state trace (every
/// core stays busy).
void check_detour(const CpuSpec& spec, std::size_t parked_core,
                  const std::function<void(Machine&)>& set_a,
                  const std::function<void(Machine&)>& set_b) {
  const auto work = all_active(spec, workloads::cpu_stress(0.9));
  const auto dt = ms_to_ns(1);
  Machine detoured(spec);
  Machine direct(spec);
  set_b(detoured);
  set_a(direct);
  auto tick_both = [&](int n) {
    for (int i = 0; i < n; ++i) {
      detoured.tick(work, dt);
      direct.tick(work, dt);
    }
  };
  tick_both(3);
  detoured.set_core_parked(parked_core, true);
  tick_both(3);
  set_a(detoured);
  tick_both(3);
  detoured.set_core_parked(parked_core, false);
  tick_both(1);  // Carries the detoured machine's C6 wake spike.
  for (int i = 0; i < 5; ++i) {
    const TickResult a = detoured.tick(work, dt);
    const TickResult b = direct.tick(work, dt);
    expect_bit_equal(a, b, i);
  }
  EXPECT_TRUE(bits_equal(detoured.last_effective_frequency_hz(),
                         direct.last_effective_frequency_hz()));
}

TEST(MachineFrequencyCache, I3DetourThroughLowFrequencyAndParking) {
  check_detour(i3_2120(), 1, [](Machine& m) { m.set_frequency(3.3e9); },
               [](Machine& m) { m.set_frequency(1.6e9); });
}

TEST(MachineFrequencyCache, I7TurboBinsFollowParking) {
  const CpuSpec spec = i7_2600();
  // With every core busy the set point's turbo bin applies; parking one
  // core raises the bin, unparking lowers it, with the set point unchanged.
  check_detour(spec, 3, [&](Machine& m) { m.set_frequency(spec.max_frequency_hz()); },
               [](Machine& m) { m.set_frequency(1.6e9); });
  Machine probe(spec);
  const auto work = all_active(spec, workloads::cpu_stress(0.9));
  probe.tick(work, ms_to_ns(1));
  const double four_busy = probe.last_effective_frequency_hz();
  probe.set_core_parked(3, true);
  probe.tick(work, ms_to_ns(1));
  EXPECT_GT(probe.last_effective_frequency_hz(), four_busy);
  EXPECT_GT(four_busy, spec.max_frequency_hz());
}

TEST(MachineFrequencyCache, BigLittlePerClusterPins) {
  const CpuSpec spec = big_little();
  check_detour(spec, 5,
               [](Machine& m) {
                 m.set_cluster_frequency(0, 2.6e9);
                 m.set_cluster_frequency(1, 1.5e9);
               },
               [](Machine& m) {
                 m.set_cluster_frequency(1, 0.6e9);
                 m.set_cluster_frequency(0, 1.0e9);
               });
}

}  // namespace
}  // namespace powerapi::simcpu
