#include "powerapi/fleet_monitor.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace powerapi::api {
namespace {

using Clock = std::chrono::steady_clock;

// Spin budgets of the step hand-off, measured on a 4-vCPU VM (EXPERIMENTS
// O10). The caller's serial section between steps — settle(), mostly the
// fleet fold — is ~9 us on a 32-host 1 ms fleet, long enough for an idle
// vCPU to halt, so a slice thread that parks at once pays a cross-vCPU
// wake-up every step. A slice thread therefore spins for the next release
// for up to kSliceSpin, but only when the caller's previous serial gap fit
// in that budget: callers that work longer between steps (a median ~45 us
// of settle + network polling on a remote fleet, ~35 us of settle +
// governor + settle on a governed one) would only burn the spin, so their
// slices park at once. The caller, which has nothing else to run, spins up to kCallerSpin
// for the last slice thread before it parks.
constexpr Clock::duration kSliceSpin = std::chrono::microseconds(25);
constexpr Clock::duration kCallerSpin = std::chrono::microseconds(50);

/// Waits until `done(word)`: spins on the word for up to `spin`, then parks
/// in atomic::wait. Every load acquires. Returns whether it parked.
template <typename Done>
bool spin_then_park(const std::atomic<std::uint32_t>& word, Clock::duration spin,
                    Done done) {
  std::uint32_t value = word.load(std::memory_order_acquire);
  if (done(value)) return false;
  if (spin > Clock::duration::zero()) {
    const Clock::time_point deadline = Clock::now() + spin;
    do {
      // Yield, not pause: a pause loop can hold a CPU that another fleet
      // thread is queued on for the whole budget (after the machine sat
      // idle, a 1 ms 8-host step took ~150 us with pause, 20-30 us with
      // yield).
      std::this_thread::yield();
      value = word.load(std::memory_order_acquire);
      if (done(value)) return false;
    } while (Clock::now() < deadline);
  }
  do {
    word.wait(value, std::memory_order_acquire);
    value = word.load(std::memory_order_acquire);
  } while (!done(value));
  return true;
}

}  // namespace

FleetMonitor::FleetMonitor(Options options)
    : options_(options),
      actors_(options.observability),
      bus_(actors_),
      fleet_topic_(bus_.intern("fleet/power:aggregated")) {
  if (options_.observability != nullptr) bus_.set_observability(options_.observability);
}

FleetMonitor::~FleetMonitor() {
  finish();
  actors_.shutdown();
  actors_.drain();
  for (MetricsReporter& reporter : metrics_reporters_) reporter.finish();
}

std::size_t FleetMonitor::add_host(os::MonitorableHost& host, PipelineSpec spec) {
  const std::size_t index = entries_.size();
  auto entry = std::make_unique<HostEntry>();
  entry->host = &host;
  // The fleet's bundle observes every host pipeline unless the spec brought
  // its own.
  if (spec.observability == nullptr) spec.observability = options_.observability;
  std::string ns = "h";
  ns.append(std::to_string(index)).append("/");
  entry->pipeline =
      std::make_unique<Pipeline>(bus_, host, std::move(spec), std::move(ns));
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

MemoryReporter& FleetMonitor::add_fleet_reporter() {
  auto owned = std::make_unique<MemoryReporter>();
  MemoryReporter& ref = *owned;
  fleet_reporters_.push_back(std::move(owned));
  return ref;
}

void FleetMonitor::add_metrics_reporter(std::ostream& out,
                                        MetricsReporter::Format format,
                                        std::uint64_t every_n_ticks) {
  if (options_.observability == nullptr) {
    throw std::logic_error(
        "FleetMonitor::add_metrics_reporter: requires Options.observability");
  }
  if (entries_.empty()) {
    throw std::logic_error(
        "FleetMonitor::add_metrics_reporter: add a host first (the reporter "
        "snapshots on host 0's ticks)");
  }
  metrics_reporters_.emplace_back(*options_.observability,
                                  MetricsReporter::Options{&out, format, every_n_ticks});
  entries_.front()->pipeline->tap_ticks(&host0_ticks_);
}

void FleetMonitor::write_chrome_trace(std::ostream& out) const {
  if (options_.observability == nullptr) {
    throw std::logic_error(
        "FleetMonitor::write_chrome_trace: requires Options.observability");
  }
  options_.observability->trace.write_chrome_trace(out);
}

void FleetMonitor::settle() {
  fold_fleet_rows();
  actors_.drain();
  for (const std::uint64_t seq : host0_ticks_) {
    for (MetricsReporter& reporter : metrics_reporters_) reporter.tick(seq);
  }
  host0_ticks_.clear();
}

void FleetMonitor::tap_fleet_rows() {
  const bool consumed =
      !fleet_reporters_.empty() || bus_.subscriber_count(fleet_topic_) != 0;
  for (const auto& entry : entries_) {
    entry->pipeline->tap_machine_rows(consumed ? &entry->fleet_rows : nullptr);
  }
}

void FleetMonitor::fold_fleet_rows() {
  for (const auto& entry : entries_) {
    for (const AggregatedPower& row : entry->fleet_rows) {
      fleet_sum_.add(row, entries_.size(), fleet_out_);
    }
    entry->fleet_rows.clear();
  }
  report_fleet_rows();
}

void FleetMonitor::report_fleet_rows() {
  const bool publish = bus_.subscriber_count(fleet_topic_) != 0;
  for (const AggregatedPower& row : fleet_out_) {
    for (const auto& reporter : fleet_reporters_) reporter->report(row);
    if (publish) bus_.publish(fleet_topic_, row);
  }
  fleet_out_.clear();
}

void FleetMonitor::start_slices() {
  // A spinning slice must not hold a CPU another slice needs.
  static const std::size_t cpus = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t hosts = entries_.size();
  const std::size_t slices =
      options_.mode == actors::ActorSystem::Mode::kThreaded
          ? std::min({hosts, options_.workers + 1, cpus})
          : 1;
  if (slice_begin_.size() == slices + 1 && slice_begin_.back() == hosts) return;
  stop_slices();
  obs::Observability* obs = options_.observability;
  if (slices > 1 && obs != nullptr && slice_wait_ns_ == nullptr) {
    slice_wait_ns_ = &obs->metrics.histogram("fleet.slice_wait_ns");
    slice_parks_ = &obs->metrics.counter("fleet.slice_parks");
  }
  slice_begin_.clear();
  for (std::size_t s = 0; s <= slices; ++s) slice_begin_.push_back(s * hosts / slices);
  slice_errors_.assign(slices, nullptr);
  const std::uint32_t epoch = step_epoch_.load(std::memory_order_relaxed);
  for (std::size_t s = 1; s < slices; ++s) {
    threads_.emplace_back([this, s, epoch] { slice_loop(s, epoch); });
  }
}

void FleetMonitor::stop_slices() {
  if (threads_.empty()) return;
  stopping_ = true;
  step_epoch_.fetch_add(1, std::memory_order_release);
  step_epoch_.notify_all();
  threads_.clear();  // Joins.
  stopping_ = false;
}

void FleetMonitor::slice_loop(std::size_t slice, std::uint32_t epoch) {
  Clock::duration spin{};  // The first release may be far off: park.
  for (;;) {
    const bool parked = spin_then_park(
        step_epoch_, spin, [epoch](std::uint32_t now) { return now != epoch; });
    // The caller releases once per step and not again before every slice
    // has counted itself out, so the epoch moved by exactly one.
    ++epoch;
    if (stopping_) return;
    if (parked && slice_parks_ != nullptr && options_.observability->enabled()) {
      slice_parks_->add();
    }
    try {
      run_slice(slice);
    } catch (...) {
      slice_errors_[slice] = std::current_exception();
    }
    // Read before counting out: the caller rewrites it once all have.
    spin = serial_gap_ <= kSliceSpin ? kSliceSpin : Clock::duration::zero();
    if (slices_pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      slices_pending_.notify_one();
    }
  }
}

void FleetMonitor::run_slice(std::size_t slice) {
  for (std::size_t i = slice_begin_[slice]; i < slice_begin_[slice + 1]; ++i) {
    HostEntry& entry = *entries_[i];
    entry.host->advance(step_);
    entry.pipeline->run_due_ticks();
  }
}

void FleetMonitor::step_hosts(util::DurationNs step) {
  step_ = step;
  if (threads_.empty()) {
    run_slice(0);
    return;
  }
  serial_gap_ = Clock::now() - slices_done_;
  slices_pending_.store(static_cast<std::uint32_t>(threads_.size()),
                        std::memory_order_relaxed);
  step_epoch_.fetch_add(1, std::memory_order_release);
  step_epoch_.notify_all();
  try {
    run_slice(0);
  } catch (...) {
    slice_errors_[0] = std::current_exception();
  }
  const Clock::time_point own_done = Clock::now();
  spin_then_park(slices_pending_, kCallerSpin,
                 [](std::uint32_t pending) { return pending == 0; });
  slices_done_ = Clock::now();
  if (slice_wait_ns_ != nullptr && options_.observability->enabled()) {
    slice_wait_ns_->record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(slices_done_ - own_done)
            .count());
  }
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
  tap_fleet_rows();
  // Step at the smallest monitoring period so no host's ticks coalesce
  // beyond what a run of that host alone would produce.
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
  tap_fleet_rows();
  for (const auto& entry : entries_) entry->pipeline->finish();
  settle();
  fleet_sum_.flush(fleet_out_);
  report_fleet_rows();
  settle();
}

}  // namespace powerapi::api
