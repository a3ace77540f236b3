#include "powerapi/remote_reporter.h"

namespace powerapi::api {

void RemoteReporter::receive(actors::Envelope& envelope) {
  if (const auto* row = envelope.payload.get<AggregatedPower>()) client_->report(*row);
}

}  // namespace powerapi::api
