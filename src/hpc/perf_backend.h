// Real Linux perf_event_open counter source.
//
// Meant for live monitoring on actual hardware (repro band: "native counter
// access, commodity Linux box"). Counters are opened lazily per (pid,
// event) with TIME_ENABLED/TIME_RUNNING read format so kernel multiplexing
// is scaled out, exactly as libpfm4-based tools do. When the kernel denies
// access (perf_event_paranoid, seccomp, missing PMU in containers) every
// read fails with a descriptive error — nothing in the library
// hard-depends on real counters. The monitoring pipeline does not read
// through it: its HPC sensor gathers every target from an
// os::MonitorableHost (os::MonitorableHost::gather_counter_lanes).
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "hpc/events.h"
#include "util/result.h"

namespace powerapi::hpc {

class PerfBackend {
 public:
  PerfBackend();
  ~PerfBackend();

  PerfBackend(const PerfBackend&) = delete;
  PerfBackend& operator=(const PerfBackend&) = delete;

  /// Cumulative event values for process `pid` (0 = the calling process)
  /// since its counters were opened. Fails (Result error) for a negative
  /// pid, when the kernel denies access, or when the read races the
  /// process's exit.
  util::Result<EventValues> read(std::int64_t pid);

  /// Quick availability probe: can this process count its own cycles?
  static bool available() noexcept;

 private:
  struct OpenCounter;
  struct TargetCounters;

  util::Result<TargetCounters*> counters_for(std::int64_t pid);

  std::map<std::int64_t, std::unique_ptr<TargetCounters>> targets_;
};

}  // namespace powerapi::hpc
