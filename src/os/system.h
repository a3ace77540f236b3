// The miniature operating system: owns the machine, the clock, the scheduler
// and the process table; advances everything in fixed ticks and maintains
// the /proc-like accounting that sensors read.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "os/monitorable_host.h"
#include "os/scheduler.h"
#include "os/task.h"
#include "periph/disk.h"
#include "periph/nic.h"
#include "simcpu/machine.h"
#include "util/clock.h"

namespace powerapi::os {

/// Simple DVFS governor in the style of Linux "ondemand".
class OndemandGovernor {
 public:
  struct Options {
    double up_threshold = 0.80;
    double down_threshold = 0.30;
    int hysteresis_ticks = 4;  ///< Consecutive ticks before stepping down.
  };
  OndemandGovernor() : OndemandGovernor(Options{}) {}
  explicit OndemandGovernor(Options options) : options_(options) {}

  /// Returns the frequency to apply given current utilization.
  double decide(double utilization, const simcpu::CpuSpec& spec, double current_hz);

 private:
  Options options_;
  int calm_ticks_ = 0;
};

class System final : public MonitorableHost {
 public:
  struct Options {
    util::DurationNs tick_ns = util::ms_to_ns(1);
    std::unique_ptr<Scheduler> scheduler;  ///< Defaults to RoundRobin.
    bool use_ondemand_governor = false;
    /// Attach the disk/NIC models: task IO demand (ExecProfile io fields)
    /// then burns peripheral power on top of the machine's. Off by default —
    /// the CPU experiments treat non-CPU power as the constant platform
    /// term, as the paper's testbed calibration does.
    bool with_peripherals = false;
    periph::DiskParams disk;
    periph::NicParams nic;
  };

  explicit System(simcpu::CpuSpec spec) : System(std::move(spec), Options{}) {}
  System(simcpu::CpuSpec spec, Options options,
         simcpu::GroundTruthParams ground_truth = {});

  // --- Process management ---
  Pid spawn(std::string name, std::vector<std::unique_ptr<TaskBehavior>> threads);
  Pid spawn(std::string name, std::unique_ptr<TaskBehavior> single_thread);
  /// Assigns the process to a cgroup/VM-style aggregation group; no-op for
  /// unknown pids. An empty string removes the process from its group.
  void set_group(Pid pid, std::string group);
  void kill(Pid pid);
  bool alive(Pid pid) const;
  std::vector<Pid> pids() const override;
  void pids_into(std::vector<Pid>& out) const override;

  // --- Time ---
  /// Advances one tick: schedule → execute → account.
  void tick();
  /// Advances until `duration` has elapsed, invoking `on_tick` (if set)
  /// after each tick.
  void run_for(util::DurationNs duration,
               const std::function<void(const System&)>& on_tick = {});
  /// MonitorableHost time control: one kernel run, no per-tick callback.
  void advance(util::DurationNs duration) override { run_for(duration); }
  util::TimestampNs now_ns() const override { return clock_.now(); }
  util::DurationNs tick_ns() const noexcept { return tick_ns_; }
  const util::SimClock& clock() const noexcept { return clock_; }

  // --- Introspection (the sensors' substrate) ---
  std::optional<ProcStat> proc_stat(Pid pid) const override;
  SystemStat system_stat() const override;
  /// Whole-system energy (machine + peripherals) — what a wall meter
  /// integrates. Equals machine energy when peripherals are disabled.
  double total_energy_joules() const noexcept override;
  double package_energy_joules() const noexcept override {
    return machine_.package_energy_joules();
  }
  const simcpu::CounterBlock& machine_counters() const noexcept override {
    return machine_.machine_counters();
  }
  std::size_t hw_threads() const noexcept override {
    return machine_.spec().hw_threads();
  }

  const IoTotals& io_totals() const noexcept override { return io_totals_; }
  /// SoA fast path: sums task counters straight into the lanes, skipping
  /// the name/group string copies a full ProcStat materializes.
  void gather_counter_lanes(std::span<const Pid> targets,
                            simcpu::CounterLanes& out) const override;
  const periph::DiskModel* disk() const noexcept override {
    return disk_ ? &*disk_ : nullptr;
  }
  const periph::NicModel* nic() const noexcept override {
    return nic_ ? &*nic_ : nullptr;
  }
  const simcpu::Machine& machine() const noexcept { return machine_; }
  simcpu::Machine& machine() noexcept { return machine_; }
  Scheduler& scheduler() noexcept { return *scheduler_; }

  /// Pins the package frequency (disables the governor for the call's
  /// duration — used by the model-training sampling phase).
  double pin_frequency(double hz);
  /// Pins ONE cluster's frequency on a heterogeneous part (disables the
  /// ondemand governor, which only knows the package ladder).
  double pin_cluster_frequency(std::size_t cluster, double hz);
  void set_governor_enabled(bool enabled) noexcept { governor_enabled_ = enabled; }

  // --- Core parking (governor actuation) ---
  /// Parks the `count` highest-indexed cores (absolute, not incremental);
  /// clamped so at least one core stays unparked. The scheduler stops
  /// placing tasks on parked cores' hardware threads and the machine
  /// power-gates them. Returns the applied parked count.
  std::size_t set_parked_cores(std::size_t count);
  std::size_t parked_cores() const noexcept { return parked_cores_; }

 private:
  const std::vector<Task*>& runnable_tasks();

  simcpu::Machine machine_;
  util::SimClock clock_;
  util::DurationNs tick_ns_;
  std::unique_ptr<Scheduler> scheduler_;
  bool governor_enabled_ = false;
  OndemandGovernor governor_;
  std::map<Pid, std::unique_ptr<Process>> processes_;
  Pid next_pid_ = 1;
  std::size_t parked_cores_ = 0;
  double last_utilization_ = 0.0;
  std::optional<periph::DiskModel> disk_;
  std::optional<periph::NicModel> nic_;
  IoTotals io_totals_;
  // Runnable tasks in (pid, tid) order, rebuilt only at the start of the
  // first tick after the set changed: spawn, kill, or a task's demand()
  // returning nullopt (the only way a task exits on its own).
  std::vector<Task*> runnable_;
  bool runnable_stale_ = true;
  // Per-tick scratch (sized to the hardware threads once, so the kernel
  // loop is allocation-free in steady state).
  std::vector<Task*> slots_scratch_;
  std::vector<simcpu::ThreadWork> work_scratch_;
};

}  // namespace powerapi::os
