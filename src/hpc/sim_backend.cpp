#include "hpc/sim_backend.h"

#include <string>

namespace powerapi::hpc {

util::Result<EventValues> SimBackend::read(Target target) {
  if (target.is_machine()) {
    return EventValues::from_block(host_->machine_counters());
  }
  const auto stat = host_->proc_stat(target.pid);
  if (!stat) {
    return util::Result<EventValues>::failure("sim backend: unknown pid " +
                                              std::to_string(target.pid));
  }
  return EventValues::from_block(stat->counters);
}

}  // namespace powerapi::hpc
