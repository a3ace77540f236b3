#include "powerapi/power_meter.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace powerapi::api {

PowerMeter::PowerMeter(os::MonitorableHost& host, model::CpuPowerModel model,
                       Config config)
    : host_(&host),
      config_(config),
      actors_(config.observability),
      bus_(actors_) {
  PipelineSpec spec = std::move(config);
  if (!model.empty()) spec.model = std::move(model);
  if (spec.observability != nullptr) bus_.set_observability(spec.observability);
  pipeline_ = std::make_unique<Pipeline>(actors_, bus_, *host_, std::move(spec));
}

PowerMeter::~PowerMeter() {
  finish();
  // Stop every actor while the bus is alive; the base destructor would do
  // this too, but only after bus_ is already gone.
  actors_.shutdown();
  actors_.drain();
}

void PowerMeter::monitor(std::vector<std::int64_t> pids) {
  pipeline_->monitor(std::move(pids));
}

void PowerMeter::monitor_all() { pipeline_->monitor_all(); }

void PowerMeter::add_estimator(
    std::shared_ptr<const baselines::MachinePowerEstimator> estimator) {
  pipeline_->add_estimator(std::move(estimator));
}

void PowerMeter::add_console_reporter(std::ostream& out) {
  pipeline_->add_console_reporter(out);
}

void PowerMeter::add_csv_reporter(std::ostream& out) {
  pipeline_->add_csv_reporter(out);
}

void PowerMeter::add_callback_reporter(CallbackReporter::Callback callback) {
  pipeline_->add_callback_reporter(std::move(callback));
}

MemoryReporter& PowerMeter::add_memory_reporter() {
  return pipeline_->add_memory_reporter();
}

void PowerMeter::add_remote_reporter(net::TelemetryClient& client) {
  pipeline_->add_remote_reporter(client);
}

void PowerMeter::run_for(util::DurationNs duration) {
  if (finished_) throw std::logic_error("PowerMeter::run_for after finish()");
  const util::TimestampNs deadline = host_->now_ns() + duration;
  while (host_->now_ns() < deadline) {
    // Advance the host by one monitoring period (in host ticks), then fire.
    const util::DurationNs chunk =
        std::min<util::DurationNs>(config_.period, deadline - host_->now_ns());
    host_->advance(chunk);
    pipeline_->run_due_ticks();
    actors_.drain();
  }
}

void PowerMeter::finish() {
  if (finished_) return;
  finished_ = true;
  pipeline_->finish();  // Flushes the aggregator's pending groups.
  actors_.drain();
}

}  // namespace powerapi::api
