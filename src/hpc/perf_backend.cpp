#include "hpc/perf_backend.h"

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "util/logging.h"

namespace powerapi::hpc {

#ifdef __linux__

namespace {

/// Maps a generic EventId to the PERF_TYPE_HARDWARE config, or -1 when the
/// event has no generic hardware mapping.
long long perf_config(EventId id) noexcept {
  switch (id) {
    case EventId::kCycles:
      return PERF_COUNT_HW_CPU_CYCLES;
    case EventId::kInstructions:
      return PERF_COUNT_HW_INSTRUCTIONS;
    case EventId::kCacheReferences:
      return PERF_COUNT_HW_CACHE_REFERENCES;
    case EventId::kCacheMisses:
      return PERF_COUNT_HW_CACHE_MISSES;
    case EventId::kBranchInstructions:
      return PERF_COUNT_HW_BRANCH_INSTRUCTIONS;
    case EventId::kBranchMisses:
      return PERF_COUNT_HW_BRANCH_MISSES;
    case EventId::kBusCycles:
      return PERF_COUNT_HW_BUS_CYCLES;
    case EventId::kStalledCyclesFrontend:
      return PERF_COUNT_HW_STALLED_CYCLES_FRONTEND;
    case EventId::kStalledCyclesBackend:
      return PERF_COUNT_HW_STALLED_CYCLES_BACKEND;
    case EventId::kRefCycles:
      return PERF_COUNT_HW_REF_CPU_CYCLES;
  }
  return -1;
}

int perf_event_open_fd(pid_t pid, long long config) noexcept {
  perf_event_attr attr{};
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = static_cast<unsigned long long>(config);
  attr.disabled = 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.inherit = 1;  // Follow threads of the target, like the paper's tool.
  attr.read_format = PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, pid, /*cpu=*/-1, /*group_fd=*/-1, /*flags=*/0));
}

}  // namespace

struct PerfBackend::OpenCounter {
  int fd = -1;
  EventId id = EventId::kCycles;

  ~OpenCounter() {
    if (fd >= 0) ::close(fd);
  }
};

struct PerfBackend::TargetCounters {
  std::vector<std::unique_ptr<OpenCounter>> counters;
};

PerfBackend::PerfBackend() = default;
PerfBackend::~PerfBackend() = default;

bool PerfBackend::available() noexcept {
  const int fd = perf_event_open_fd(0, PERF_COUNT_HW_CPU_CYCLES);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

util::Result<PerfBackend::TargetCounters*> PerfBackend::counters_for(std::int64_t pid) {
  if (pid < 0) {
    return util::Result<TargetCounters*>::failure(
        "perf backend: machine-wide counting requires per-CPU attach; "
        "monitor a pid instead");
  }
  auto it = targets_.find(pid);
  if (it != targets_.end()) return it->second.get();

  auto tc = std::make_unique<TargetCounters>();
  for (EventId id : all_events()) {
    const long long config = perf_config(id);
    if (config < 0) continue;
    auto counter = std::make_unique<OpenCounter>();
    counter->id = id;
    counter->fd = perf_event_open_fd(static_cast<pid_t>(pid), config);
    if (counter->fd < 0) {
      const int err = errno;
      // Missing PMU events (e.g. stalled-cycles on some parts) are fine;
      // a blanket EPERM/EACCES means perf is unusable for this target.
      if (err == EPERM || err == EACCES || err == ENOSYS) {
        return util::Result<TargetCounters*>::failure(
            std::string("perf_event_open denied: ") + std::strerror(err) +
            " (check /proc/sys/kernel/perf_event_paranoid)");
      }
      POWERAPI_LOG_DEBUG("perf") << "event " << to_string(id)
                                 << " unavailable: " << std::strerror(err);
      continue;
    }
    tc->counters.push_back(std::move(counter));
  }
  if (tc->counters.empty()) {
    return util::Result<TargetCounters*>::failure(
        "perf backend: no events could be opened for pid " + std::to_string(pid));
  }
  TargetCounters* raw = tc.get();
  targets_.emplace(pid, std::move(tc));
  return raw;
}

util::Result<EventValues> PerfBackend::read(std::int64_t pid) {
  auto counters = counters_for(pid);
  if (!counters.ok()) return util::Result<EventValues>::failure(counters.error_message());

  EventValues values;
  for (const auto& c : counters.value()->counters) {
    struct {
      std::uint64_t value;
      std::uint64_t time_enabled;
      std::uint64_t time_running;
    } data{};
    const ssize_t n = ::read(c->fd, &data, sizeof(data));
    if (n != static_cast<ssize_t>(sizeof(data))) {
      return util::Result<EventValues>::failure("perf read failed for " +
                                                std::string(to_string(c->id)));
    }
    std::uint64_t v = data.value;
    if (data.time_running > 0 && data.time_running < data.time_enabled) {
      // Kernel multiplexed this counter: scale to the full window.
      const double scale = static_cast<double>(data.time_enabled) /
                           static_cast<double>(data.time_running);
      v = static_cast<std::uint64_t>(static_cast<double>(v) * scale);
    }
    values[c->id] = v;
  }
  return values;
}

#else  // !__linux__

struct PerfBackend::OpenCounter {};
struct PerfBackend::TargetCounters {};

PerfBackend::PerfBackend() = default;
PerfBackend::~PerfBackend() = default;
bool PerfBackend::available() noexcept { return false; }

util::Result<PerfBackend::TargetCounters*> PerfBackend::counters_for(std::int64_t) {
  return util::Result<TargetCounters*>::failure("perf backend: not a Linux build");
}

util::Result<EventValues> PerfBackend::read(std::int64_t) {
  return util::Result<EventValues>::failure("perf backend: not a Linux build");
}

#endif

}  // namespace powerapi::hpc
