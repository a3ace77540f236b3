// Counter backend over a monitorable host: per-process reads come from the
// host's task accounting, machine-wide reads from the machine counters.
// Depends only on the MonitorableHost interface, so the same backend serves
// the simulated System and any other host implementation. It reads one
// target per call (the multiplexing emulation wraps it); the pipeline's HPC
// sensor does not use it but gathers every target in one call to the host
// (os::MonitorableHost::gather_counter_lanes).
#pragma once

#include "hpc/backend.h"
#include "os/monitorable_host.h"

namespace powerapi::hpc {

class SimBackend final : public CounterBackend {
 public:
  /// The backend observes but never mutates the host; the reference must
  /// outlive the backend.
  explicit SimBackend(const os::MonitorableHost& host) : host_(&host) {}

  std::string name() const override { return "sim"; }
  bool supports(EventId) const override { return true; }
  util::Result<EventValues> read(Target target) override;

 private:
  const os::MonitorableHost* host_;
};

}  // namespace powerapi::hpc
