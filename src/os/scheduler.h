// Schedulers: map runnable tasks onto hardware threads each tick.
//
// The paper motivates power monitoring with "informed decisions during the
// scheduling"; the A3 ablation compares these placement policies under the
// same workload. All schedulers are deterministic given the same input
// ordering (ties broken by task identity), so experiments replay exactly.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "os/task.h"
#include "simcpu/cpu_spec.h"

namespace powerapi::os {

/// Assignment result: `slots[i]` is the task placed on hardware thread i
/// (nullptr = idle). Tasks not placed this tick simply wait (no preemption
/// mid-tick; the tick is the timeslice).
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual const char* name() const noexcept = 0;

  /// `runnable` is ordered by (pid, tid); `slots.size()` == hw thread count.
  virtual void assign(std::span<Task* const> runnable, std::span<Task*> slots,
                      const simcpu::CpuSpec& spec) = 0;
};

/// Rotates which task gets placed first across ticks so CPU time is shared
/// fairly when tasks outnumber hardware threads. Fills hw threads in index
/// order (i.e., both hyperthreads of core 0 before core 1).
class RoundRobinScheduler final : public Scheduler {
 public:
  const char* name() const noexcept override { return "round-robin"; }
  void assign(std::span<Task* const> runnable, std::span<Task*> slots,
              const simcpu::CpuSpec& spec) override;

 private:
  std::size_t next_offset_ = 0;
};

/// Packs tasks onto as few cores as possible (both SMT siblings of a core
/// before touching the next core) — maximizes deep C-state residency of the
/// remaining cores at the cost of SMT throughput sharing.
class PackScheduler final : public Scheduler {
 public:
  const char* name() const noexcept override { return "pack"; }
  void assign(std::span<Task* const> runnable, std::span<Task*> slots,
              const simcpu::CpuSpec& spec) override;
};

/// Spreads tasks one per core before using SMT siblings — maximizes
/// per-task throughput, keeps every core awake. The slot order is built
/// from the first spec it is given (a host's spec never changes).
class SpreadScheduler final : public Scheduler {
 public:
  const char* name() const noexcept override { return "spread"; }
  void assign(std::span<Task* const> runnable, std::span<Task*> slots,
              const simcpu::CpuSpec& spec) override;

 private:
  std::vector<std::size_t> order_;
};

}  // namespace powerapi::os
