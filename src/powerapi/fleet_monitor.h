// FleetMonitor: N hosts monitored in parallel host slices — the one
// pipeline driver (PowerMeter is a FleetMonitor of one host).
//
// Each host gets its own Pipeline under topic namespace "h<i>/": a plain
// call chain (sensors → formulas → calibration → aggregator → reporters)
// that runs on whichever thread advances the host. run_for() cuts time into
// steps of the smallest pipeline period and the fleet into contiguous
// slices of hosts, one per thread: min(hosts, workers + 1, CPUs) slices in
// threaded mode, one in kManual — the same code either way, and one host
// always runs as one slice on the caller. The caller runs slice 0; the
// other slices run on plain threads, one hand-off per step: the caller
// releases a step by bumping an epoch, each slice thread counts itself out
// when done, and the last one wakes the caller. Both sides spin briefly
// before they park in atomic::wait (see fleet_monitor.cpp for the budgets).
// For each host of its slice, a thread advances the host and runs its due
// ticks through the pipeline. A host is only ever touched by its slice's
// thread, so its series is bit-for-bit the same at every slice count, and
// the same as a PowerMeter's over an identically constructed host.
//
// Everything spawned through actor_system() — bus-subscribed sinks, a
// metrics reporter — is fleet-level: slice threads only tell() into it
// (mailboxes are MPSC, e.g. a sink subscribed to "h3/power:aggregated"),
// and the caller drains it in settle(), after the hand-off. Plain objects
// the driver calls between run_for chunks (a governor, a watchdog) need no
// actor: a governor observes each host's rows through a callback reporter
// on that host's slice thread.
//
// The fleet dimension runs only while something consumes it: an attached
// fleet reporter or a bus subscriber on "fleet/power:aggregated" (checked
// at the start of each run_for and in finish). Then each host's pipeline
// appends its machine-scope aggregated rows to a host-local buffer before
// its reporters see them (Pipeline::tap_machine_rows), and after every
// step the caller folds the buffers in host order (FleetSum, the bucket
// logic a telemetry collector also uses). Once all hosts have
// reported a timestamp, the per-formula sum across hosts goes to the fleet
// reporters by direct call, in attach order, and to the bus topic when
// subscribed; older buckets of that formula that a host skipped (a dropped
// meter sample) go first, as partial sums in timestamp order. The fixed
// fold order makes fleet rows, too, identical at every slice count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "actors/actor_system.h"
#include "actors/event_bus.h"
#include "obs/observability.h"
#include "powerapi/pipeline.h"
#include "powerapi/reporters.h"

namespace powerapi::api {

class FleetMonitor {
 public:
  struct Options {
    /// kThreaded steps host slices in parallel; kManual steps them all on
    /// the caller. Output is identical.
    actors::ActorSystem::Mode mode = actors::ActorSystem::Mode::kThreaded;
    /// Threaded mode: slice threads beside the caller. Capped so that no
    /// more slices than CPUs run (a spinning slice must not hold a CPU
    /// another slice needs): min(hosts, workers + 1, CPUs) slices.
    std::size_t workers = 4;
    /// Self-observability bundle (non-owning; must outlive the monitor),
    /// wired through the actor system, the event bus and every host
    /// pipeline whose spec brings none: metrics, stage spans and the
    /// monitor's own CPU/power accounting, exportable via
    /// add_metrics_reporter() and write_chrome_trace(). With slice threads,
    /// the caller also records its wait for them per step
    /// ("fleet.slice_wait_ns"), and slice threads count their waits that
    /// parked in atomic::wait ("fleet.slice_parks").
    obs::Observability* observability = nullptr;
  };

  FleetMonitor() : FleetMonitor(Options{}) {}
  explicit FleetMonitor(Options options);
  ~FleetMonitor();

  FleetMonitor(const FleetMonitor&) = delete;
  FleetMonitor& operator=(const FleetMonitor&) = delete;

  /// Adds a host under namespace "h<index>/" and returns its index. The
  /// host must outlive the monitor. A host added after a run_for() joins
  /// at the next one, which rebuilds the slice layout.
  std::size_t add_host(os::MonitorableHost& host, PipelineSpec spec);

  /// The host's pipeline: retarget monitoring, attach reporters, etc.
  Pipeline& pipeline(std::size_t host) { return *entries_[host]->pipeline; }

  // Per-host conveniences.
  void monitor(std::size_t host, std::vector<std::int64_t> pids);
  void monitor_all(std::size_t host);
  MemoryReporter& add_memory_reporter(std::size_t host);
  void add_callback_reporter(std::size_t host, CallbackReporter::Callback callback);

  /// Reporter over the fleet dimension: rows carry group "(fleet)" and the
  /// per-formula machine power summed across hosts. Fleet reporters are
  /// called by the caller's fold, in attach order; one attached between two
  /// run_for calls receives the rows from the next run_for on.
  MemoryReporter& add_fleet_reporter();

  /// Forwards one host's aggregated rows to a caller-owned telemetry
  /// client (a distributed agent shipping its output to a collector).
  void add_remote_reporter(std::size_t host, net::TelemetryClient& client);

  /// The fleet's observability bundle; null unless Options.observability.
  obs::Observability* observability() const noexcept { return options_.observability; }
  /// Snapshots the whole fleet's metrics to `out` every N ticks of host 0.
  /// Requires Options.observability and at least one host.
  void add_metrics_reporter(std::ostream& out,
                            MetricsReporter::Format format = MetricsReporter::Format::kText,
                            std::uint64_t every_n_ticks = 1);
  /// Writes the recorded message-flow trace as Chrome trace_event JSON
  /// (open in chrome://tracing or Perfetto). Requires Options.observability.
  void write_chrome_trace(std::ostream& out) const;

  /// Advances every host by `duration` in steps of the smallest pipeline
  /// period, firing due ticks per host per step. Time is counted as
  /// requested: each step calls every host's advance(step) once, whatever
  /// the host clock reads afterwards (a host whose kernel quantum exceeds
  /// the step runs a whole quantum per step). Host slices run in parallel
  /// in threaded mode.
  void run_for(util::DurationNs duration);

  /// Like run_for, but invokes `on_chunk(advanced_ns)` after every step has
  /// settled — the fleet is quiescent, so the callback may safely mutate
  /// hosts (the governor's actuation channel) or inject messages; anything
  /// it sends is processed before the next step advances. Step boundaries
  /// depend only on pipeline periods.
  ///
  /// A host, stage or reporter that throws on any slice stops the step;
  /// run_for rethrows the first such error after every slice has counted
  /// itself out, and a later run_for continues from there.
  void run_for(util::DurationNs duration,
               const std::function<void(util::DurationNs advanced_ns)>& on_chunk);

  /// Flushes every pipeline's pending aggregation groups, then the fleet
  /// dimension's; call once after the last run_for.
  void finish();

  std::size_t host_count() const noexcept { return entries_.size(); }
  actors::ActorSystem& actor_system() noexcept { return actors_; }
  actors::EventBus& bus() noexcept { return bus_; }

 private:
  struct HostEntry {
    os::MonitorableHost* host = nullptr;
    std::unique_ptr<Pipeline> pipeline;
    /// Machine rows awaiting the fleet fold; filled by the host's slice.
    std::vector<AggregatedPower> fleet_rows;
  };

  /// Folds the fleet dimension, then drains the fleet-level actors until
  /// the system is quiescent; run_for does this after every step (and
  /// after on_chunk), so callers never need to.
  void settle();
  /// (Re)starts the slice threads when the slice layout no longer matches
  /// the host count; a no-op otherwise.
  void start_slices();
  void stop_slices();
  /// A slice thread's loop; `epoch` is the step epoch when it was created.
  void slice_loop(std::size_t slice, std::uint32_t epoch);
  /// Advances every host of one slice by step_ and runs its due ticks.
  void run_slice(std::size_t slice);
  /// Runs every slice for one step and rethrows the first slice failure.
  void step_hosts(util::DurationNs step);
  /// Points every host's fleet tap at its buffer while a fleet reporter or
  /// a bus subscriber consumes the fleet rows, and unsets it otherwise.
  void tap_fleet_rows();
  void fold_fleet_rows();
  /// Hands fleet_out_ to the fleet reporters and the bus, then empties it.
  void report_fleet_rows();

  Options options_;
  actors::ActorSystem actors_;
  actors::EventBus bus_;
  actors::EventBus::TopicId fleet_topic_;
  std::vector<std::unique_ptr<HostEntry>> entries_;
  std::vector<std::unique_ptr<Reporter>> fleet_reporters_;
  FleetSum fleet_sum_;
  std::vector<AggregatedPower> fleet_out_;  ///< Rows the fold closed this step.
  bool finished_ = false;

  // Host slices. Slice s owns hosts [slice_begin_[s], slice_begin_[s+1]);
  // the plain fields below are written by the caller only while the slice
  // threads wait for the next step_epoch_.
  std::vector<std::size_t> slice_begin_;
  util::DurationNs step_ = 0;
  bool stopping_ = false;
  /// The caller's serial time from the previous step's completion to this
  /// step's release; slice threads read it to choose spin or park.
  std::chrono::steady_clock::duration serial_gap_{};
  std::chrono::steady_clock::time_point slices_done_{};
  std::vector<std::exception_ptr> slice_errors_;  ///< Slot s: written by slice s.
  /// Bumped (release) by the caller to start a step or, with stopping_, to
  /// stop the slice threads.
  alignas(64) std::atomic<std::uint32_t> step_epoch_{0};
  /// Slice threads still running the current step; the last to finish
  /// notifies the caller.
  alignas(64) std::atomic<std::uint32_t> slices_pending_{0};
  /// Null without observability or slice threads.
  obs::Histogram* slice_wait_ns_ = nullptr;
  obs::Counter* slice_parks_ = nullptr;
  std::vector<std::jthread> threads_;  ///< Slices 1..n-1; declared last, joined first.
};

}  // namespace powerapi::api
