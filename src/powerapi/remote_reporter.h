// RemoteReporter: the reporter that leaves the process — forwards the
// pipeline's aggregated rows ("power:aggregated") to a
// net::TelemetryClient, which batches and ships them to a CollectorServer.
// Attach via Pipeline::add_remote_reporter() /
// FleetMonitor::add_remote_reporter(); the client is caller-owned (its
// lifetime spans connect/reconnect cycles, not one pipeline) and must
// outlive the actor system.
#pragma once

#include "actors/actor.h"
#include "net/telemetry_client.h"
#include "powerapi/messages.h"

namespace powerapi::api {

class RemoteReporter final : public actors::Actor {
 public:
  explicit RemoteReporter(net::TelemetryClient& client) : client_(&client) {}

  void receive(actors::Envelope& envelope) override;

 private:
  net::TelemetryClient* client_;
};

}  // namespace powerapi::api
