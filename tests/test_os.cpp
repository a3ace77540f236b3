// Tests for the OS substrate: process lifecycle, schedulers, accounting,
// the DVFS governor and run_for semantics.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "os/scheduler.h"
#include "os/system.h"
#include "simcpu/counter_lanes.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

namespace powerapi::os {
namespace {

using util::ms_to_ns;
using util::seconds_to_ns;

std::unique_ptr<TaskBehavior> steady(double intensity = 1.0,
                                     util::DurationNs duration = 0) {
  return std::make_unique<workloads::SteadyBehavior>(workloads::cpu_stress(intensity),
                                                     duration);
}

TEST(System, SpawnAssignsIncreasingPids) {
  System system(simcpu::i3_2120());
  const Pid a = system.spawn("a", steady());
  const Pid b = system.spawn("b", steady());
  EXPECT_LT(a, b);
  EXPECT_TRUE(system.alive(a));
  EXPECT_EQ(system.pids().size(), 2u);
  EXPECT_THROW(system.spawn("empty", std::vector<std::unique_ptr<TaskBehavior>>{}),
               std::invalid_argument);
}

TEST(System, KillStopsScheduling) {
  System system(simcpu::i3_2120());
  const Pid pid = system.spawn("victim", steady());
  system.run_for(ms_to_ns(5));
  const auto before = system.proc_stat(pid)->counters.instructions;
  EXPECT_GT(before, 0u);
  system.kill(pid);
  EXPECT_FALSE(system.alive(pid));
  system.run_for(ms_to_ns(5));
  EXPECT_EQ(system.proc_stat(pid)->counters.instructions, before);
  // Killing an unknown pid is a no-op.
  system.kill(9999);
}

TEST(System, TasksExitWhenBehaviorCompletes) {
  System system(simcpu::i3_2120());
  const Pid pid = system.spawn("short", steady(1.0, ms_to_ns(3)));
  system.run_for(ms_to_ns(10));
  EXPECT_FALSE(system.alive(pid));
  EXPECT_TRUE(system.pids().empty());
}

TEST(System, ProcStatAccumulatesAcrossThreads) {
  System system(simcpu::i3_2120());
  std::vector<std::unique_ptr<TaskBehavior>> threads;
  threads.push_back(steady());
  threads.push_back(steady());
  const Pid pid = system.spawn("multi", std::move(threads));
  system.run_for(ms_to_ns(10));
  const auto stat = system.proc_stat(pid);
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->threads, 2u);
  EXPECT_GT(stat->counters.instructions, 0u);
  EXPECT_GT(stat->cpu_time_ns, 0);
  EXPECT_GT(stat->attributed_energy_joules, 0.0);
  EXPECT_FALSE(system.proc_stat(12345).has_value());
}

TEST(System, UtilizationReflectsLoad) {
  System idle_system(simcpu::i3_2120());
  idle_system.run_for(ms_to_ns(5));
  EXPECT_DOUBLE_EQ(idle_system.system_stat().utilization, 0.0);

  System busy_system(simcpu::i3_2120());
  for (int i = 0; i < 4; ++i) busy_system.spawn("t", steady());
  busy_system.run_for(ms_to_ns(5));
  EXPECT_NEAR(busy_system.system_stat().utilization, 1.0, 0.01);
}

TEST(System, ClockAdvancesByTicks) {
  System::Options options;
  options.tick_ns = ms_to_ns(2);
  System system(simcpu::i3_2120(), std::move(options));
  EXPECT_EQ(system.now_ns(), 0);
  system.tick();
  EXPECT_EQ(system.now_ns(), ms_to_ns(2));
  system.run_for(ms_to_ns(10));
  EXPECT_EQ(system.now_ns(), ms_to_ns(12));
  int ticks = 0;
  system.run_for(ms_to_ns(6), [&](const System&) { ++ticks; });
  EXPECT_EQ(ticks, 3);
}

TEST(System, PinFrequencyDisablesGovernor) {
  System::Options options;
  options.use_ondemand_governor = true;
  System system(simcpu::i3_2120(), std::move(options));
  EXPECT_DOUBLE_EQ(system.pin_frequency(1.6e9), 1.6e9);
  for (int i = 0; i < 4; ++i) system.spawn("t", steady());
  system.run_for(ms_to_ns(50));
  EXPECT_DOUBLE_EQ(system.system_stat().frequency_hz, 1.6e9);  // Stayed pinned.
}

TEST(OndemandGovernor, RampsUpUnderLoadAndDownWhenIdle) {
  System::Options options;
  options.use_ondemand_governor = true;
  System system(simcpu::i3_2120(), std::move(options));
  system.machine().set_frequency(1.6e9);
  for (int i = 0; i < 4; ++i) system.spawn("t", steady());
  system.run_for(ms_to_ns(20));
  EXPECT_DOUBLE_EQ(system.system_stat().frequency_hz, 3.3e9);  // Jumped to max.

  // Kill the load: frequency steps back down with hysteresis.
  for (const Pid pid : system.pids()) system.kill(pid);
  system.run_for(ms_to_ns(200));
  EXPECT_LT(system.system_stat().frequency_hz, 3.3e9);
}

// --- Schedulers ---

/// Behavior probe: captures which hardware thread each task ran on.
TEST(Schedulers, PackFillsSmtSiblingsFirst) {
  System::Options options;
  options.scheduler = std::make_unique<PackScheduler>();
  System system(simcpu::i3_2120(), std::move(options));
  const Pid a = system.spawn("a", steady());
  const Pid b = system.spawn("b", steady());
  system.run_for(ms_to_ns(2));
  // Both tasks share core 0 (hw threads 0 and 1): their counters must show
  // SMT co-residency.
  EXPECT_GT(system.proc_stat(a)->counters.smt_shared_cycles, 0u);
  EXPECT_GT(system.proc_stat(b)->counters.smt_shared_cycles, 0u);
}

TEST(Schedulers, SpreadUsesDistinctCoresFirst) {
  System::Options options;
  options.scheduler = std::make_unique<SpreadScheduler>();
  System system(simcpu::i3_2120(), std::move(options));
  const Pid a = system.spawn("a", steady());
  const Pid b = system.spawn("b", steady());
  system.run_for(ms_to_ns(2));
  EXPECT_EQ(system.proc_stat(a)->counters.smt_shared_cycles, 0u);
  EXPECT_EQ(system.proc_stat(b)->counters.smt_shared_cycles, 0u);
}

TEST(Schedulers, RoundRobinSharesCpuAmongExcessTasks) {
  System::Options options;
  options.scheduler = std::make_unique<RoundRobinScheduler>();
  System system(simcpu::i3_2120(), std::move(options));
  std::vector<Pid> pids;
  for (int i = 0; i < 8; ++i) pids.push_back(system.spawn("t", steady()));
  system.run_for(ms_to_ns(80));
  // Every task must have made progress (fair sharing), roughly equally.
  std::uint64_t min_instr = ~0ull;
  std::uint64_t max_instr = 0;
  for (const Pid pid : pids) {
    const auto instr = system.proc_stat(pid)->counters.instructions;
    EXPECT_GT(instr, 0u);
    min_instr = std::min(min_instr, instr);
    max_instr = std::max(max_instr, instr);
  }
  EXPECT_LT(static_cast<double>(max_instr) / static_cast<double>(min_instr), 2.0);
}

TEST(Schedulers, SpreadBeatsPackOnThroughput) {
  auto run = [](std::unique_ptr<Scheduler> scheduler) {
    System::Options options;
    options.scheduler = std::move(scheduler);
    System system(simcpu::i3_2120(), std::move(options));
    system.spawn("a", std::make_unique<workloads::SteadyBehavior>(workloads::cpu_stress(), 0));
    system.spawn("b", std::make_unique<workloads::SteadyBehavior>(workloads::cpu_stress(), 0));
    system.run_for(ms_to_ns(50));
    return system.machine().machine_counters().instructions;
  };
  const auto packed = run(std::make_unique<PackScheduler>());
  const auto spread = run(std::make_unique<SpreadScheduler>());
  EXPECT_GT(spread, packed);  // Two full cores beat one SMT-shared core.
}

// --- Runnable-list bookkeeping ---

/// Round-robin placement that also keeps the runnable list it was handed
/// each tick, so a test can read the kernel's per-task accounting (the
/// Task objects stay owned by their process after exit).
class RecordingScheduler final : public Scheduler {
 public:
  const char* name() const noexcept override { return "recording"; }
  void assign(std::span<Task* const> runnable, std::span<Task*> slots,
              const simcpu::CpuSpec& spec) override {
    runnable_.assign(runnable.begin(), runnable.end());
    inner_.assign(runnable, slots, spec);
  }
  const std::vector<Task*>& runnable() const noexcept { return runnable_; }
  Task* find(Pid pid) const {
    for (Task* task : runnable_) {
      if (task->pid() == pid) return task;
    }
    return nullptr;
  }

 private:
  std::vector<Task*> runnable_;
  RoundRobinScheduler inner_;
};

struct Recorded {
  std::unique_ptr<System> system;
  RecordingScheduler* recorder;
};

Recorded recorded_i3() {
  auto recorder = std::make_unique<RecordingScheduler>();
  RecordingScheduler* raw = recorder.get();
  System::Options options;
  options.scheduler = std::move(recorder);
  return {std::make_unique<System>(simcpu::i3_2120(), std::move(options)), raw};
}

TEST(RunnableList, SpawnedProcessRunsOnTheVeryNextQuantum) {
  auto [system, recorder] = recorded_i3();
  system->spawn("first", steady());
  for (int i = 0; i < 7; ++i) system->tick();
  const Pid late = system->spawn("late", steady());
  system->tick();
  Task* task = recorder->find(late);
  ASSERT_NE(task, nullptr);
  EXPECT_GE(task->last_hw_thread, 0);
  EXPECT_GT(task->last_utilization, 0.0);
  EXPECT_GT(system->proc_stat(late)->counters.instructions, 0u);
  EXPECT_EQ(system->proc_stat(late)->cpu_time_ns, system->tick_ns());
}

TEST(RunnableList, TaskThatRunsOutReadsAsNotRunAndStopsCounting) {
  auto [system, recorder] = recorded_i3();
  // Five tasks on four hardware threads: while the short one lives, one
  // task waits each tick; once it exits, all four others run every tick.
  std::vector<Pid> others;
  for (int i = 0; i < 2; ++i) others.push_back(system->spawn("long", steady()));
  const Pid short_pid = system->spawn("short", steady(1.0, ms_to_ns(4)));
  for (int i = 0; i < 2; ++i) others.push_back(system->spawn("long", steady()));
  system->tick();
  Task* task = recorder->find(short_pid);
  ASSERT_NE(task, nullptr);
  for (int i = 0; i < 100 && system->alive(short_pid); ++i) system->tick();
  ASSERT_FALSE(system->alive(short_pid));
  EXPECT_EQ(task->last_hw_thread, -1);
  EXPECT_EQ(task->last_utilization, 0.0);
  const simcpu::CounterBlock frozen = task->counters;
  const util::DurationNs frozen_cpu = task->cpu_time_ns;
  for (int i = 0; i < 10; ++i) {
    system->tick();
    EXPECT_EQ(recorder->find(short_pid), nullptr) << "tick " << i;
    EXPECT_EQ(recorder->runnable().size(), others.size());
    for (Task* other : recorder->runnable()) EXPECT_GE(other->last_hw_thread, 0);
  }
  EXPECT_EQ(task->counters, frozen);
  EXPECT_EQ(task->cpu_time_ns, frozen_cpu);
  EXPECT_EQ(task->last_hw_thread, -1);
  EXPECT_EQ(task->last_utilization, 0.0);
  EXPECT_EQ(system->proc_stat(short_pid)->last_utilization, 0.0);
}

TEST(RunnableList, KilledTaskReadsAsNotRunAndStopsCounting) {
  auto [system, recorder] = recorded_i3();
  const Pid keep = system->spawn("keep", steady());
  const Pid victim = system->spawn("victim", steady());
  for (int i = 0; i < 5; ++i) system->tick();
  Task* task = recorder->find(victim);
  ASSERT_NE(task, nullptr);
  ASSERT_GE(task->last_hw_thread, 0);
  system->kill(victim);
  EXPECT_EQ(task->last_hw_thread, -1);
  EXPECT_EQ(task->last_utilization, 0.0);
  const simcpu::CounterBlock frozen = task->counters;
  for (int i = 0; i < 5; ++i) {
    system->tick();
    EXPECT_EQ(recorder->find(victim), nullptr) << "tick " << i;
    ASSERT_NE(recorder->find(keep), nullptr);
  }
  EXPECT_EQ(task->counters, frozen);
  EXPECT_EQ(task->last_hw_thread, -1);
  EXPECT_EQ(task->last_utilization, 0.0);
  EXPECT_EQ(system->proc_stat(victim)->last_utilization, 0.0);
}

// --- gather_counter_lanes: the HPC sensor's one counter source ---

simcpu::CounterBlock lanes_row(const simcpu::CounterLanes& lanes, std::size_t row) {
  simcpu::CounterBlock block;
  block.cycles = lanes.lane(0)[row];
  block.instructions = lanes.lane(1)[row];
  block.cache_references = lanes.lane(2)[row];
  block.cache_misses = lanes.lane(3)[row];
  block.branch_instructions = lanes.lane(4)[row];
  block.branch_misses = lanes.lane(5)[row];
  block.bus_cycles = lanes.lane(6)[row];
  block.stalled_cycles_frontend = lanes.lane(7)[row];
  block.stalled_cycles_backend = lanes.lane(8)[row];
  block.ref_cycles = lanes.lane(9)[row];
  block.smt_shared_cycles = lanes.lane(simcpu::CounterLanes::kSmtLane)[row];
  return block;
}

TEST(GatherCounterLanes, MachineProcessAndUnknownRowsFollowTheContract) {
  System system(simcpu::i3_2120());
  const Pid single = system.spawn("single", steady());
  std::vector<std::unique_ptr<TaskBehavior>> threads;
  threads.push_back(steady(0.5));
  threads.push_back(steady(0.8));
  threads.push_back(steady(1.0));
  const Pid multi = system.spawn("multi", std::move(threads));
  system.run_for(ms_to_ns(20));

  simcpu::CounterLanes lanes;
  // First fill every row, so the unknown pid's row below must be cleared,
  // not inherited: a same-size gather keeps the lanes' storage.
  const std::vector<Pid> known = {-1, single, multi, single};
  system.gather_counter_lanes(known, lanes);
  ASSERT_EQ(lanes.rows(), known.size());
  ASSERT_GT(lanes.lane(1)[3], 0u);

  const Pid unknown = 999;
  ASSERT_FALSE(system.proc_stat(unknown).has_value());
  const std::vector<Pid> targets = {-1, single, multi, unknown};
  system.gather_counter_lanes(targets, lanes);
  ASSERT_EQ(lanes.rows(), targets.size());

  EXPECT_GT(system.machine_counters().instructions, 0u);
  EXPECT_EQ(lanes_row(lanes, 0), system.machine_counters());
  EXPECT_EQ(lanes.cpu_time()[0], 0);
  EXPECT_EQ(lanes.live()[0], 1);

  for (std::size_t row : {std::size_t{1}, std::size_t{2}}) {
    const auto stat = system.proc_stat(targets[row]);
    ASSERT_TRUE(stat.has_value());
    EXPECT_GT(stat->counters.instructions, 0u) << "row " << row;
    EXPECT_EQ(lanes_row(lanes, row), stat->counters) << "row " << row;
    EXPECT_EQ(lanes.cpu_time()[row], stat->cpu_time_ns) << "row " << row;
    EXPECT_EQ(lanes.live()[row], 1) << "row " << row;
  }
  EXPECT_EQ(system.proc_stat(multi)->threads, 3u);

  EXPECT_EQ(lanes_row(lanes, 3), simcpu::CounterBlock{});
  EXPECT_EQ(lanes.cpu_time()[3], 0);
  EXPECT_EQ(lanes.live()[3], 0);
}

}  // namespace
}  // namespace powerapi::os
