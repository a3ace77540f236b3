// Per-stage observability hooks shared by the pipeline stages.
//
// Every Sensor/Formula/Aggregator stage owns one StageObs, built at
// construction when the pipeline was assembled with an Observability
// bundle. It provides the two things a stage records per call: a
// Chrome-trace span named after the stage ("sensor-hpc", "h3/formula-hpc";
// correlated across stages by the tick seq id) and a throughput counter.
// Unobserved (or disabled) stages pay one branch per call — the pipeline
// works identically without observability.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/observability.h"

namespace powerapi::api {

class StageObs {
 public:
  StageObs() = default;

  /// `obs` is non-owning and may be null (stage not observed). The span
  /// name and the counter ("pipeline.sensor_reports", "pipeline.estimates",
  /// ...) are interned once, here.
  StageObs(obs::Observability* obs, std::string_view name, std::string_view counter_name)
      : obs_(obs) {
    if (obs_ == nullptr) return;
    name_id_ = obs_->trace.intern(name);
    counter_ = &obs_->metrics.counter(counter_name);
  }

  bool active() const noexcept { return obs_ != nullptr && obs_->enabled(); }

  /// Span covering one stage call.
  obs::ScopedSpan span(std::uint64_t seq) const {
    if (!active()) return obs::ScopedSpan(nullptr, 0, 0);
    return obs::ScopedSpan(&obs_->trace, name_id_, seq);
  }

  void count(std::uint64_t n = 1) {
    if (counter_ != nullptr && obs_->enabled()) counter_->add(n);
  }

 private:
  obs::Observability* obs_ = nullptr;
  obs::TraceCollector::NameId name_id_ = 0;
  obs::Counter* counter_ = nullptr;
};

}  // namespace powerapi::api
