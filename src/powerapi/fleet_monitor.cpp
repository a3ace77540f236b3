#include "powerapi/fleet_monitor.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "powerapi/remote_reporter.h"

namespace powerapi::api {

FleetMonitor::FleetMonitor(Options options)
    : options_(options),
      obs_(options.with_observability ? std::make_unique<obs::Observability>()
                                      : nullptr),
      actors_(actors::ActorSystem::Mode::kManual, 1, obs_.get()),
      bus_(actors_),
      fleet_topic_(bus_.intern("fleet/power:aggregated")) {
  if (obs_ != nullptr) bus_.set_observability(obs_.get());
}

FleetMonitor::~FleetMonitor() {
  finish();
  actors_.shutdown();
  actors_.drain();
}

std::size_t FleetMonitor::add_host(os::MonitorableHost& host, PipelineSpec spec) {
  const std::size_t index = entries_.size();
  auto entry = std::make_unique<HostEntry>();
  entry->host = &host;
  entry->group = actors_.add_group();
  // The fleet's bundle observes every host pipeline unless the spec brought
  // its own.
  if (obs_ != nullptr && spec.observability == nullptr) {
    spec.observability = obs_.get();
  }
  const std::string ns = "h" + std::to_string(index) + "/";
  PipelineBuilder builder(actors_, bus_);
  entry->pipeline = builder.build(host, std::move(spec), ns, entry->group);
  if (options_.fleet_aggregation) {
    const auto tap = actors_.spawn_in<CallbackReporter>(
        entry->group, ns + "fleet-tap", [rows = &entry->fleet_rows](const AggregatedPower& row) {
          if (FleetSum::counts(row)) rows->push_back(row);
        });
    bus_.subscribe(entry->pipeline->aggregated_topic(), tap);
  }
  entries_.push_back(std::move(entry));
  return index;
}

void FleetMonitor::monitor(std::size_t host, std::vector<std::int64_t> pids) {
  entries_[host]->pipeline->monitor(std::move(pids));
}

void FleetMonitor::monitor_all(std::size_t host) {
  entries_[host]->pipeline->monitor_all();
}

MemoryReporter& FleetMonitor::add_memory_reporter(std::size_t host) {
  return entries_[host]->pipeline->add_memory_reporter();
}

void FleetMonitor::add_callback_reporter(std::size_t host,
                                         CallbackReporter::Callback callback) {
  entries_[host]->pipeline->add_callback_reporter(std::move(callback));
}

void FleetMonitor::add_remote_reporter(std::size_t host,
                                       net::TelemetryClient& client) {
  entries_[host]->pipeline->add_remote_reporter(client);
}

void FleetMonitor::add_fleet_remote_reporter(net::TelemetryClient& client) {
  if (!options_.fleet_aggregation) {
    throw std::logic_error("FleetMonitor: fleet_aggregation disabled in Options");
  }
  const auto reporter =
      actors_.spawn_as<RemoteReporter>("fleet/reporter-remote", client);
  bus_.subscribe(fleet_topic_, reporter);
}

MemoryReporter& FleetMonitor::add_fleet_reporter() {
  if (!options_.fleet_aggregation) {
    throw std::logic_error("FleetMonitor: fleet_aggregation disabled in Options");
  }
  auto owned = std::make_unique<MemoryReporter>();
  MemoryReporter& ref = *owned;
  const auto reporter = actors_.spawn("fleet/reporter-memory", std::move(owned));
  bus_.subscribe(fleet_topic_, reporter);
  return ref;
}

void FleetMonitor::add_metrics_reporter(std::ostream& out,
                                        MetricsReporter::Format format,
                                        std::uint64_t every_n_ticks) {
  if (obs_ == nullptr) {
    throw std::logic_error(
        "FleetMonitor::add_metrics_reporter: requires Options.with_observability");
  }
  if (entries_.empty()) {
    throw std::logic_error(
        "FleetMonitor::add_metrics_reporter: add a host first (the reporter "
        "snapshots on host 0's ticks)");
  }
  entries_.front()->pipeline->add_metrics_reporter(out, format, every_n_ticks);
}

void FleetMonitor::write_chrome_trace(std::ostream& out) const {
  if (obs_ == nullptr) {
    throw std::logic_error(
        "FleetMonitor::write_chrome_trace: requires Options.with_observability");
  }
  obs_->trace.write_chrome_trace(out);
}

void FleetMonitor::settle() {
  // Host groups first (their rows feed the fold), then the fleet level;
  // repeat while the fleet level did anything, since it may tell hosts.
  do {
    for (const auto& entry : entries_) actors_.drain_group(entry->group);
    fold_fleet_rows();
  } while (actors_.drain_group(actors::ActorSystem::kDefaultGroup) != 0);
}

void FleetMonitor::fold_fleet_rows() {
  for (const auto& entry : entries_) {
    for (const AggregatedPower& row : entry->fleet_rows) {
      if (auto out = fleet_sum_.add(row, entries_.size())) {
        bus_.publish(fleet_topic_, std::move(*out));
      }
    }
    entry->fleet_rows.clear();
  }
}

void FleetMonitor::start_slices() {
  const std::size_t hosts = entries_.size();
  const std::size_t slices =
      options_.mode == actors::ActorSystem::Mode::kThreaded
          ? std::min(hosts, options_.workers + 1)
          : 1;
  if (slice_begin_.size() == slices + 1 && slice_begin_.back() == hosts) return;
  stop_slices();
  slice_begin_.clear();
  for (std::size_t s = 0; s <= slices; ++s) slice_begin_.push_back(s * hosts / slices);
  slice_errors_.assign(slices, nullptr);
  if (slices == 1) return;
  start_ = std::make_unique<std::barrier<>>(static_cast<std::ptrdiff_t>(slices));
  done_ = std::make_unique<std::barrier<>>(static_cast<std::ptrdiff_t>(slices));
  for (std::size_t s = 1; s < slices; ++s) {
    threads_.emplace_back([this, s] { slice_loop(s); });
  }
}

void FleetMonitor::stop_slices() {
  if (threads_.empty()) return;
  stopping_ = true;
  start_->arrive_and_wait();
  threads_.clear();  // Joins.
  stopping_ = false;
}

void FleetMonitor::slice_loop(std::size_t slice) {
  for (;;) {
    start_->arrive_and_wait();
    if (stopping_) return;
    try {
      run_slice(slice);
    } catch (...) {
      slice_errors_[slice] = std::current_exception();
    }
    done_->arrive_and_wait();
  }
}

void FleetMonitor::run_slice(std::size_t slice) {
  for (std::size_t i = slice_begin_[slice]; i < slice_begin_[slice + 1]; ++i) {
    HostEntry& entry = *entries_[i];
    entry.host->advance(step_);
    entry.pipeline->publish_due_ticks();
    actors_.drain_group(entry.group);
  }
}

void FleetMonitor::step_hosts(util::DurationNs step) {
  step_ = step;
  if (threads_.empty()) {
    run_slice(0);
    return;
  }
  start_->arrive_and_wait();
  try {
    run_slice(0);
  } catch (...) {
    slice_errors_[0] = std::current_exception();
  }
  done_->arrive_and_wait();
  for (std::exception_ptr& error : slice_errors_) {
    if (error) std::rethrow_exception(std::exchange(error, nullptr));
  }
}

void FleetMonitor::run_for(util::DurationNs duration) {
  run_for(duration, {});
}

void FleetMonitor::run_for(
    util::DurationNs duration,
    const std::function<void(util::DurationNs advanced_ns)>& on_chunk) {
  if (finished_) throw std::logic_error("FleetMonitor::run_for after finish()");
  if (entries_.empty() || duration <= 0) return;
  start_slices();
  // Step at the smallest monitoring period so no host's ticks coalesce
  // beyond what its own PowerMeter-equivalent run would produce.
  util::DurationNs period = entries_.front()->pipeline->ticker().period();
  for (const auto& entry : entries_) {
    period = std::min(period, entry->pipeline->ticker().period());
  }
  util::DurationNs advanced = 0;
  while (advanced < duration) {
    const util::DurationNs step = std::min(period, duration - advanced);
    step_hosts(step);
    settle();
    advanced += step;
    if (on_chunk) {
      // The fleet is quiescent here: callbacks may actuate hosts or tell
      // actors; settle again so their effects land before the next step.
      on_chunk(advanced);
      settle();
    }
  }
}

void FleetMonitor::finish() {
  if (finished_) return;
  finished_ = true;
  stop_slices();
  settle();
  // Host aggregators flush first (their pending groups feed the fleet
  // dimension), then the fleet dimension flushes its partial buckets.
  for (const auto& entry : entries_) entry->pipeline->finish();
  settle();
  for (AggregatedPower& row : fleet_sum_.flush()) bus_.publish(fleet_topic_, std::move(row));
  settle();
}

}  // namespace powerapi::api
