#include "os/system.h"

#include <algorithm>
#include <stdexcept>

#include "util/logging.h"

namespace powerapi::os {

double OndemandGovernor::decide(double utilization, const simcpu::CpuSpec& spec,
                                double current_hz) {
  const auto& ladder = spec.frequencies_hz;
  const std::size_t idx = spec.frequency_index(spec.closest_frequency_hz(current_hz));
  if (utilization > options_.up_threshold) {
    calm_ticks_ = 0;
    // Ondemand jumps straight to max on pressure.
    return ladder.back();
  }
  if (utilization < options_.down_threshold) {
    if (++calm_ticks_ >= options_.hysteresis_ticks) {
      calm_ticks_ = 0;
      if (idx > 0) return ladder[idx - 1];
    }
    return current_hz;
  }
  calm_ticks_ = 0;
  return current_hz;
}

System::System(simcpu::CpuSpec spec, Options options, simcpu::GroundTruthParams ground_truth)
    : machine_(std::move(spec), ground_truth),
      tick_ns_(options.tick_ns),
      scheduler_(options.scheduler ? std::move(options.scheduler)
                                   : std::make_unique<RoundRobinScheduler>()),
      governor_enabled_(options.use_ondemand_governor),
      slots_scratch_(machine_.spec().hw_threads(), nullptr),
      work_scratch_(machine_.spec().hw_threads()) {
  if (tick_ns_ <= 0) throw std::invalid_argument("System: non-positive tick");
  if (options.with_peripherals) {
    disk_.emplace(options.disk);
    nic_.emplace(options.nic);
  }
}

Pid System::spawn(std::string name, std::vector<std::unique_ptr<TaskBehavior>> threads) {
  if (threads.empty()) throw std::invalid_argument("System::spawn: process needs >= 1 thread");
  const Pid pid = next_pid_++;
  auto process = std::make_unique<Process>(pid, std::move(name));
  for (auto& behavior : threads) {
    process->add_task(std::move(behavior));
  }
  POWERAPI_LOG_DEBUG("os") << "spawn pid=" << pid << " name=" << process->name()
                           << " threads=" << process->tasks().size();
  processes_.emplace(pid, std::move(process));
  runnable_stale_ = true;
  return pid;
}

Pid System::spawn(std::string name, std::unique_ptr<TaskBehavior> single_thread) {
  std::vector<std::unique_ptr<TaskBehavior>> v;
  v.push_back(std::move(single_thread));
  return spawn(std::move(name), std::move(v));
}

void System::set_group(Pid pid, std::string group) {
  const auto it = processes_.find(pid);
  if (it == processes_.end()) return;
  it->second->set_group(std::move(group));
}

void System::kill(Pid pid) {
  const auto it = processes_.find(pid);
  if (it == processes_.end()) return;
  for (auto& task : it->second->tasks()) task->force_exit();
  runnable_stale_ = true;
}

bool System::alive(Pid pid) const {
  const auto it = processes_.find(pid);
  return it != processes_.end() && it->second->alive();
}

std::vector<Pid> System::pids() const {
  std::vector<Pid> out;
  out.reserve(processes_.size());
  pids_into(out);
  return out;
}

void System::pids_into(std::vector<Pid>& out) const {
  out.clear();
  for (const auto& [pid, process] : processes_) {
    if (process->alive()) out.push_back(pid);
  }
}

const std::vector<Task*>& System::runnable_tasks() {
  if (!runnable_stale_) return runnable_;
  runnable_.clear();
  for (auto& [pid, process] : processes_) {
    for (auto& task : process->tasks()) {
      if (task->state() == RunState::kRunnable) runnable_.push_back(task.get());
    }
  }
  runnable_stale_ = false;
  return runnable_;
}

void System::tick() {
  const std::size_t slots_n = machine_.spec().hw_threads();
  const auto& runnable = runnable_tasks();
  std::vector<Task*>& slots = slots_scratch_;
  std::fill(slots.begin(), slots.end(), nullptr);
  // Parked cores are invisible to the scheduler: it only sees the prefix of
  // hardware-thread slots belonging to unparked cores (parking always takes
  // the highest-indexed cores), so tasks pack onto what remains.
  const std::size_t active_n =
      slots_n - parked_cores_ * machine_.spec().threads_per_core;
  scheduler_->assign(runnable, std::span<Task*>(slots.data(), active_n),
                     machine_.spec());

  // Pull each placed task's demand; tasks may exit at this point (the
  // runnable list then goes stale, but stays as is for this tick's
  // accounting below).
  std::vector<simcpu::ThreadWork>& work = work_scratch_;
  const util::TimestampNs now = clock_.now();
  for (std::size_t i = 0; i < slots_n; ++i) {
    Task* task = slots[i];
    std::optional<simcpu::ExecProfile> profile;
    if (task != nullptr) {
      profile = task->demand(now, tick_ns_);
      if (!profile) {
        slots[i] = nullptr;
        runnable_stale_ = true;  // The task exited.
      }
    }
    if (!profile) {
      work[i] = simcpu::ThreadWork{};
      continue;
    }
    work[i].active = true;
    work[i].task_id = task->pid() * 1'000'000 + task->tid();
    work[i].profile = *profile;
  }

  const auto& result = machine_.tick(work, tick_ns_);

  // Peripheral power: aggregate the scheduled tasks' IO demand, scaled by
  // each task's duty cycle within the tick.
  if (disk_) {
    periph::DiskDemand disk_demand;
    periph::NicDemand nic_demand;
    for (std::size_t i = 0; i < slots_n; ++i) {
      if (!work[i].active) continue;
      const auto& p = work[i].profile;
      const double duty = p.active_fraction;
      disk_demand.iops += p.disk_iops * duty;
      disk_demand.bytes_per_sec += p.disk_bytes_per_sec * duty;
      nic_demand.tx_bytes_per_sec += p.net_tx_bytes_per_sec * duty;
      nic_demand.rx_bytes_per_sec += p.net_rx_bytes_per_sec * duty;
    }
    disk_->tick(disk_demand, tick_ns_);
    nic_->tick(nic_demand, tick_ns_);
    const double dt_s = util::ns_to_seconds(tick_ns_);
    io_totals_.disk_ops += disk_demand.iops * dt_s;
    io_totals_.disk_bytes += disk_demand.bytes_per_sec * dt_s;
    io_totals_.net_bytes +=
        (nic_demand.tx_bytes_per_sec + nic_demand.rx_bytes_per_sec) * dt_s;
  }

  // Accounting. Every runnable task first reads as not run this tick; the
  // scheduled ones are then overwritten.
  for (Task* task : runnable) {
    task->last_utilization = 0.0;
    task->last_hw_thread = -1;
  }
  double busy = 0.0;
  for (std::size_t i = 0; i < slots_n; ++i) {
    Task* task = slots[i];
    if (task == nullptr) continue;
    const auto& tr = result.threads[i];
    task->counters += tr.delta;
    task->attributed_energy_joules += tr.attributed_joules;
    task->cpu_time_ns += static_cast<util::DurationNs>(
        static_cast<double>(tick_ns_) * tr.utilization);
    task->last_utilization = tr.utilization;
    task->last_hw_thread = static_cast<int>(i);
    busy += tr.utilization;
  }
  last_utilization_ = busy / static_cast<double>(slots_n);

  if (governor_enabled_) {
    const double target = governor_.decide(last_utilization_, machine_.spec(),
                                           machine_.frequency());
    machine_.set_frequency(target);
  }
  clock_.advance(tick_ns_);
}

void System::run_for(util::DurationNs duration,
                     const std::function<void(const System&)>& on_tick) {
  const util::TimestampNs deadline = clock_.now() + duration;
  while (clock_.now() < deadline) {
    tick();
    if (on_tick) on_tick(*this);
  }
}

std::optional<ProcStat> System::proc_stat(Pid pid) const {
  const auto it = processes_.find(pid);
  if (it == processes_.end()) return std::nullopt;
  const Process& p = *it->second;
  ProcStat stat;
  stat.pid = pid;
  stat.name = p.name();
  stat.group = p.group();
  stat.alive = p.alive();
  stat.threads = p.tasks().size();
  for (const auto& task : p.tasks()) {
    stat.counters += task->counters;
    stat.cpu_time_ns += task->cpu_time_ns;
    stat.last_utilization += task->last_utilization;
    stat.attributed_energy_joules += task->attributed_energy_joules;
  }
  return stat;
}

void System::gather_counter_lanes(std::span<const Pid> targets,
                                  simcpu::CounterLanes& out) const {
  out.resize(targets.size());
  for (std::size_t row = 0; row < targets.size(); ++row) {
    if (targets[row] < 0) {
      out.store_block(row, machine_.machine_counters());
      out.cpu_time()[row] = 0;
      out.live()[row] = 1;
      continue;
    }
    const auto it = processes_.find(targets[row]);
    if (it == processes_.end()) {
      out.store_block(row, simcpu::CounterBlock{});
      out.cpu_time()[row] = 0;
      out.live()[row] = 0;
      continue;
    }
    // Same accounting as proc_stat(), minus the string materialization.
    simcpu::CounterBlock sum;
    util::DurationNs cpu_time = 0;
    for (const auto& task : it->second->tasks()) {
      sum += task->counters;
      cpu_time += task->cpu_time_ns;
    }
    out.store_block(row, sum);
    out.cpu_time()[row] = cpu_time;
    out.live()[row] = 1;
  }
}

SystemStat System::system_stat() const {
  SystemStat s;
  s.utilization = last_utilization_;
  s.power_watts = machine_.last_power_watts();
  // Report the frequency the machine actually ran at (turbo-aware), which
  // is what /proc/cpuinfo-style sampling would observe.
  s.frequency_hz = machine_.last_effective_frequency_hz();
  s.now_ns = clock_.now();
  if (disk_) {
    s.disk_watts = disk_->last_power_watts();
    s.nic_watts = nic_->last_power_watts();
    s.power_watts += s.disk_watts + s.nic_watts;
  }
  return s;
}

double System::total_energy_joules() const noexcept {
  double joules = machine_.total_energy_joules();
  if (disk_) joules += disk_->total_energy_joules() + nic_->total_energy_joules();
  return joules;
}

double System::pin_frequency(double hz) {
  governor_enabled_ = false;
  return machine_.set_frequency(hz);
}

double System::pin_cluster_frequency(std::size_t cluster, double hz) {
  governor_enabled_ = false;
  return machine_.set_cluster_frequency(cluster, hz);
}

std::size_t System::set_parked_cores(std::size_t count) {
  const std::size_t cores = machine_.spec().cores;
  count = std::min(count, cores - 1);  // At least one core stays awake.
  for (std::size_t core = 0; core < cores; ++core) {
    machine_.set_core_parked(core, core >= cores - count);
  }
  parked_cores_ = count;
  return parked_cores_;
}

}  // namespace powerapi::os
