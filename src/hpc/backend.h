// Counter-backend interface: a standalone per-target counter source — the
// simulator (deterministic experiments) or perf_event_open (live counters
// on a real Linux box), optionally behind the multiplexing emulation. The
// monitoring pipeline does not read through it: its HPC sensor gathers
// from an os::MonitorableHost (os::MonitorableHost::gather_counter_lanes).
#pragma once

#include <cstdint>
#include <string>

#include "hpc/events.h"
#include "util/result.h"

namespace powerapi::hpc {

/// Target of a counter read: a process (pid > 0) or the whole machine.
struct Target {
  static constexpr std::int64_t kMachine = -1;
  std::int64_t pid = kMachine;

  static Target machine() noexcept { return Target{kMachine}; }
  static Target process(std::int64_t pid) noexcept { return Target{pid}; }
  bool is_machine() const noexcept { return pid == kMachine; }
};

class CounterBackend {
 public:
  virtual ~CounterBackend() = default;

  virtual std::string name() const = 0;
  virtual bool supports(EventId id) const = 0;

  /// Cumulative event values for the target since it became observable.
  /// Fails (Result error) when the target is unknown or the read races a
  /// process exit — sensors log and skip the tick.
  virtual util::Result<EventValues> read(Target target) = 0;
};

}  // namespace powerapi::hpc
