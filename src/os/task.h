// Tasks and processes of the miniature OS.
//
// A Process owns one or more Tasks (threads). Each Task delegates its
// per-tick CPU demand to a TaskBehavior — the bridge to the workload
// library — and carries the accounting the kernel (System) maintains:
// cumulative counters, CPU time, last-tick utilization.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "simcpu/counters.h"
#include "simcpu/exec_profile.h"
#include "util/units.h"

namespace powerapi::os {

using Pid = std::int64_t;

/// Supplies a task's execution demand tick by tick. Implementations live in
/// the workload library; the OS only calls `next`.
class TaskBehavior {
 public:
  virtual ~TaskBehavior() = default;

  /// Demand for the window [now, now+dt), or nullopt when the task has run
  /// to completion (the kernel then reaps it).
  virtual std::optional<simcpu::ExecProfile> next(util::TimestampNs now,
                                                  util::DurationNs dt) = 0;
};

enum class RunState { kRunnable, kExited };

/// One schedulable thread. Owned by its Process; never copied.
class Task {
 public:
  Task(Pid pid, int tid, std::unique_ptr<TaskBehavior> behavior)
      : pid_(pid), tid_(tid), behavior_(std::move(behavior)) {}

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  Pid pid() const noexcept { return pid_; }
  int tid() const noexcept { return tid_; }
  RunState state() const noexcept { return state_; }

  /// Kernel-side: fetch this tick's demand; flips to kExited when done.
  std::optional<simcpu::ExecProfile> demand(util::TimestampNs now, util::DurationNs dt) {
    if (state_ == RunState::kExited) return std::nullopt;
    auto p = behavior_->next(now, dt);
    if (!p) state_ = RunState::kExited;
    return p;
  }

  /// Kernel-side (kill): exits without a final tick, so the task also
  /// reads as not run, like one that exited through demand().
  void force_exit() noexcept {
    state_ = RunState::kExited;
    last_utilization = 0.0;
    last_hw_thread = -1;
  }

  // --- Accounting, written by the kernel after each tick ---
  simcpu::CounterBlock counters;          ///< Cumulative HPC counts.
  util::DurationNs cpu_time_ns = 0;       ///< Time on a hardware thread.
  /// Ground-truth activity energy attributed by the simulator. Only meters
  /// and evaluation harnesses may read it — estimators must not.
  double attributed_energy_joules = 0.0;
  double last_utilization = 0.0;          ///< Busy fraction of the last tick run.
  int last_hw_thread = -1;                ///< Placement of the last tick (-1 = not run).

 private:
  Pid pid_;
  int tid_;
  std::unique_ptr<TaskBehavior> behavior_;
  RunState state_ = RunState::kRunnable;
};

/// A process: a pid, a name, its threads, and an optional group label.
/// Groups model cgroup/VM-style aggregation scopes: the paper's conclusion
/// singles out virtual machines as the next optimization target, and a VM is
/// (for power attribution) a named group of processes.
class Process {
 public:
  Process(Pid pid, std::string name) : pid_(pid), name_(std::move(name)) {}

  Pid pid() const noexcept { return pid_; }
  const std::string& name() const noexcept { return name_; }
  const std::string& group() const noexcept { return group_; }
  void set_group(std::string group) { group_ = std::move(group); }

  Task& add_task(std::unique_ptr<TaskBehavior> behavior) {
    tasks_.push_back(
        std::make_unique<Task>(pid_, static_cast<int>(tasks_.size()), std::move(behavior)));
    return *tasks_.back();
  }

  const std::vector<std::unique_ptr<Task>>& tasks() const noexcept { return tasks_; }
  std::vector<std::unique_ptr<Task>>& tasks() noexcept { return tasks_; }

  bool alive() const noexcept {
    for (const auto& t : tasks_) {
      if (t->state() != RunState::kExited) return true;
    }
    return false;
  }

 private:
  Pid pid_;
  std::string name_;
  std::string group_;
  std::vector<std::unique_ptr<Task>> tasks_;
};

}  // namespace powerapi::os
