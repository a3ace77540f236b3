// RemoteReporter: the reporter that leaves the process — forwards the
// pipeline's aggregated rows to a net::TelemetryClient, which batches and
// ships them to a CollectorServer. Attach via
// Pipeline::add_remote_reporter() / FleetMonitor::add_remote_reporter();
// the client is caller-owned (its lifetime spans connect/reconnect cycles,
// not one pipeline) and must outlive the pipeline.
#pragma once

#include "net/telemetry_client.h"
#include "powerapi/messages.h"
#include "powerapi/reporters.h"

namespace powerapi::api {

class RemoteReporter final : public Reporter {
 public:
  explicit RemoteReporter(net::TelemetryClient& client) : client_(&client) {}

  void report(const AggregatedPower& row) override { client_->report(row); }

 private:
  net::TelemetryClient* client_;
};

}  // namespace powerapi::api
