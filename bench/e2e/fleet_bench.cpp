// fleet_bench: the end-to-end benchmark of a monitored fleet (README.md).
//
//   fleet_bench --workload=fleet_1ms --seed=1 --seconds=20
//   fleet_bench --workload=fleet_1ms --seed=1 --seconds=20 --trace=t.json
//   fleet_bench --check --benchmark-json=BENCHMARK.json
//
// Each workload assembles a fleet of simulated i3-2120 hosts under one
// FleetMonitor (threaded dispatcher: 3 workers plus this main thread) and
// drives it in a closed loop: the next fleet tick starts only after
// run_for(period) has settled. Set-up (model training, fleet assembly, one
// simulated second of warm-up) is timed on its own and repeated; the
// measured phase then runs ticks for --seconds of wall time.
//
// Every layer is timed from outside, through the calls the pipeline makes
// into it: a TimedHost wraps each os::System and times advance() and
// gather_counter_lanes(), callback reporters stamp rows as they arrive,
// getrusage gives the process CPU time and /proc/self/status the peak RSS.
//
// Outputs are checked, not only timed: every host's aggregated series over
// a fixed simulated window must be bit-identical (CRC32C) to a kManual
// reference run in-process, and every host-tick must deliver its machine
// rows. The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics, or with --trace
// the per-layer ones.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "governor/governor.h"
#include "model/feature_matrix.h"
#include "model/model_registry.h"
#include "model/trainer.h"
#include "net/bus_bridge.h"
#include "net/collector_server.h"
#include "net/telemetry_client.h"
#include "obs/trace.h"
#include "os/system.h"
#include "powerapi/fleet_monitor.h"
#include "util/arg_parser.h"
#include "util/crc32c.h"
#include "util/logging.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

using namespace powerapi;

namespace {

using Mode = actors::ActorSystem::Mode;

constexpr util::DurationNs kWarmup = util::seconds_to_ns(1);
constexpr std::size_t kWorkers = 3;
constexpr std::size_t kThreads = kWorkers + 1;  // Plus the main thread.
constexpr std::size_t kClients = 4;
/// Untraced runs measure this many fleets in turn, each for an equal share
/// of the time. Each is the last of a block of timed set-ups, and one more
/// block follows the last fleet, so the set-up median draws on three blocks
/// spread over the run: the machine's slow spells, which last about a
/// second, then cannot decide it by landing on one block.
constexpr int kMeasuredFleets = 2;
constexpr int kSetupsPerBlock = 3;
/// The measured phase is cut into intervals of this many ticks, and every
/// end-to-end figure is a median over intervals, so interference from
/// outside the process that lasts less than half the run moves a few
/// intervals rather than the figure; 500 ticks still give the slowest
/// workload about 18 intervals in 20 s. No tail percentile is reported: tick
/// times are bimodal (two or three chunk-times, by how fast parked workers
/// wake), the share of slow ticks follows the machine's load, and p90 and
/// p99 flipped between the modes from run to run. Traced runs alternate
/// untraced and traced intervals, so the tracing overhead is measured
/// against the same stretch of load.
constexpr std::uint64_t kIntervalTicks = 500;
constexpr std::uint64_t kTraceSpanTicks = 1000;
constexpr std::size_t kReplayLaneSets = 1000;

// The governed workload: a demand spike per 60-simulated-second episode.
constexpr util::DurationNs kEpisode = util::seconds_to_ns(60);
constexpr util::DurationNs kSpikeAt = util::seconds_to_ns(5);
constexpr std::size_t kScansPerHost = 2;
constexpr std::uint64_t kScanInstructions = 6'000'000'000ULL;
/// Between a host's draw before the spike (~50 W) and during it (~62 W),
/// so the governor acts during the spike and rests after it.
constexpr double kBudgetPerHostWatts = 56.0;
constexpr double kHysteresisWatts = 1.5;

struct Workload {
  const char* name;
  std::size_t hosts;
  util::DurationNs period;
  bool remote;    ///< Per-process rows over loopback TCP to a collector.
  bool governed;  ///< GovernorActor plus a demand spike per episode.
  /// End of the simulated window (from boot) whose series must match the
  /// kManual reference bit for bit.
  util::DurationNs window_end;
};

constexpr Workload kWorkloads[] = {
    {"fleet_1ms", 32, util::ms_to_ns(1), false, false, util::seconds_to_ns(3)},
    {"fleet_250ms", 32, util::ms_to_ns(250), false, false, util::seconds_to_ns(3)},
    {"remote_1ms", 32, util::ms_to_ns(1), true, false, util::seconds_to_ns(3)},
    {"governed_10ms", 16, util::ms_to_ns(10), false, true, kEpisode},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_ticks_per_s", "1/s"},
    {"tick_p50_us", "us"},
    {"cpu_us_per_host_tick", "us"},
    {"peak_rss_mb", "MB"},
    {"delivery_p50_us", "us"},
};

constexpr MetricSpec kPerLayer[] = {
    {"host_tick_cpu_ns", "ns"},
    {"os.advance_ns", "ns"},
    {"os.advance_calls", "count"},
    {"hpc.gather_ns", "ns"},
    {"hpc.gather_rows", "count"},
    {"model.extract_ns_per_row", "ns"},
    {"model.sweep_ns_per_row", "ns"},
    {"powerapi.pipeline_ns", "ns"},
    {"actors.idle_frac", "fraction"},
    {"net.report_cpu_pct", "%"},
    {"net.client_poll_pct", "%"},
    {"net.server_poll_pct", "%"},
    {"net.bytes_per_record", "B"},
    {"net.backlog_max", "count"},
    {"governor.decide_pct", "%"},
    {"governor.actuations", "count"},
    {"trace.overhead_pct", "%"},
};

std::int64_t wall_ns() { return obs::wall_now_ns(); }

/// Process CPU time: all threads, user plus system.
std::int64_t process_cpu_ns() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return (static_cast<std::int64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1'000'000 +
          ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
         1000;
}

/// Peak RSS of this program image (VmHWM). getrusage's ru_maxrss would
/// also count whatever process exec'd it, which survives execve.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Log-linear histogram of nanosecond values: exact below 128 ns, then 128
/// sub-buckets per octave (under 0.4 % error at the bucket midpoint), where
/// obs::Histogram's 16 (about 6 %) would be coarse next to the metrics'
/// bounds. The size is fixed, so recording costs no memory that grows with
/// run length.
class LatencyHistogram {
 public:
  void record(std::int64_t ns) {
    ++counts_[index(static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0)))];
    ++count_;
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  std::uint64_t count() const { return count_; }

  void reset() {
    counts_.fill(0);
    count_ = 0;
  }

  /// The value of rank ceil(q * count), as its bucket's midpoint; 0 when
  /// empty.
  double quantile_ns(double q) const {
    if (count_ == 0) return 0.0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) return midpoint(i);
    }
    return midpoint(counts_.size() - 1);
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int octave = std::bit_width(v) - 1 - kSubBits;
    return static_cast<std::size_t>(kSub + static_cast<std::uint64_t>(octave) * kSub +
                                    ((v >> octave) & (kSub - 1)));
  }

  static double midpoint(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const std::uint64_t octave = (i - kSub) / kSub;
    const std::uint64_t sub = (i - kSub) % kSub;
    const double width = static_cast<double>(std::uint64_t{1} << octave);
    return static_cast<double>(kSub + sub) * width + width / 2.0;
  }

  std::array<std::uint32_t, kSub + (64 - kSubBits) * kSub> counts_{};
  std::uint64_t count_ = 0;
};

std::uint32_t row_crc(std::uint32_t crc, const api::AggregatedPower& row) {
  crc = util::crc32c_extend(crc, &row.timestamp, sizeof row.timestamp);
  crc = util::crc32c_extend(crc, &row.pid, sizeof row.pid);
  crc = util::crc32c_extend(crc, &row.watts, sizeof row.watts);
  crc = util::crc32c_extend(crc, row.formula.data(), row.formula.size());
  return util::crc32c_extend(crc, row.group.data(), row.group.size());
}

/// 0 for the paper's formula, 1 for the wall meter, -1 for anything else.
int formula_index(const std::string& formula) {
  if (formula == "powerapi-hpc") return 0;
  if (formula == "powerspy") return 1;
  return -1;
}

/// Switches of one run's external timers. The main thread flips them only
/// while the fleet is quiescent; workers read them inside ticks.
struct Probe {
  std::atomic<bool> timing{false};
  /// Spans, and lane sets for the kernel replay, from the first traced ticks.
  std::atomic<bool> spans{false};
  /// Sized so no shard drops a span even when one worker records them all.
  obs::TraceCollector trace{std::size_t{1} << 22};
  obs::TraceCollector::NameId advance_span = trace.intern("os.advance");
  obs::TraceCollector::NameId gather_span = trace.intern("hpc.gather");
  obs::TraceCollector::NameId tick_span = trace.intern("tick");
  obs::TraceCollector::NameId client_poll_span = trace.intern("net.client.poll");
  obs::TraceCollector::NameId server_poll_span = trace.intern("net.server.poll");
  obs::TraceCollector::NameId decide_span = trace.intern("governor.decide");

  bool on() const { return timing.load(std::memory_order_relaxed); }
  bool spanning() const { return spans.load(std::memory_order_relaxed); }
};

/// Times the two calls the pipeline makes into a simulated host: advance()
/// from the fleet's chunk agents and gather_counter_lanes() from the HPC
/// sensor. Everything else forwards. Each host is driven by one actor at a
/// time, so the sums need no locks; the main thread reads them after a
/// settle.
class TimedHost final : public os::MonitorableHost {
 public:
  /// One gathered counter set, kept for the model-kernel replay.
  struct LaneSet {
    simcpu::CounterLanes lanes;
    std::vector<os::Pid> pids;
    double frequency_hz = 0.0;
  };

  TimedHost(os::System& inner, Probe& probe, std::size_t capture_limit)
      : inner_(&inner), probe_(&probe), capture_limit_(capture_limit) {}

  std::vector<os::Pid> pids() const override { return inner_->pids(); }
  std::optional<os::ProcStat> proc_stat(os::Pid pid) const override {
    return inner_->proc_stat(pid);
  }
  os::SystemStat system_stat() const override { return inner_->system_stat(); }
  util::TimestampNs now_ns() const override { return inner_->now_ns(); }
  const simcpu::CounterBlock& machine_counters() const override {
    return inner_->machine_counters();
  }
  std::size_t hw_threads() const override { return inner_->hw_threads(); }
  double total_energy_joules() const override { return inner_->total_energy_joules(); }
  double package_energy_joules() const override {
    return inner_->package_energy_joules();
  }
  const os::IoTotals& io_totals() const override { return inner_->io_totals(); }
  const periph::DiskModel* disk() const override { return inner_->disk(); }
  const periph::NicModel* nic() const override { return inner_->nic(); }

  void advance(util::DurationNs duration) override {
    if (!probe_->on()) {
      inner_->advance(duration);
      return;
    }
    const std::int64_t start = wall_ns();
    inner_->advance(duration);
    const std::int64_t took = wall_ns() - start;
    advance_ns_ += took;
    ++advance_calls_;
    if (probe_->spanning()) probe_->trace.complete(probe_->advance_span, start, took);
  }

  void gather_counter_lanes(std::span<const os::Pid> targets,
                            simcpu::CounterLanes& out) const override {
    if (!probe_->on()) {
      inner_->gather_counter_lanes(targets, out);
      return;
    }
    const std::int64_t start = wall_ns();
    inner_->gather_counter_lanes(targets, out);
    const std::int64_t took = wall_ns() - start;
    gather_ns_ += took;
    ++gather_calls_;
    gather_rows_ += targets.size();
    if (probe_->spanning()) probe_->trace.complete(probe_->gather_span, start, took);
    if (probe_->spanning() && captured_.size() < capture_limit_) {
      captured_.push_back({out, {targets.begin(), targets.end()},
                           inner_->machine().frequency()});
    }
  }

  std::int64_t advance_ns() const { return advance_ns_; }
  std::uint64_t advance_calls() const { return advance_calls_; }
  std::int64_t gather_ns() const { return gather_ns_; }
  std::uint64_t gather_calls() const { return gather_calls_; }
  std::uint64_t gather_rows() const { return gather_rows_; }
  const std::vector<LaneSet>& captured() const { return captured_; }

 private:
  os::System* inner_;
  Probe* probe_;
  std::size_t capture_limit_;
  std::int64_t advance_ns_ = 0;
  std::uint64_t advance_calls_ = 0;
  mutable std::int64_t gather_ns_ = 0;
  mutable std::uint64_t gather_calls_ = 0;
  mutable std::uint64_t gather_rows_ = 0;
  mutable std::vector<LaneSet> captured_;
};

/// Builds host `index` of a fleet: a simulated i3-2120 running four apps
/// that cycle through three kinds (CPU-bound batch, bursty web, a cache
/// scan larger than the LLC) plus the background daemon. All randomness
/// forks from (seed, index).
std::unique_ptr<os::System> make_host(std::uint64_t seed, std::size_t index) {
  const util::Rng rng = util::Rng(seed).fork(index);
  auto host = std::make_unique<os::System>(simcpu::i3_2120());
  for (std::size_t app = 0; app < 4; ++app) {
    switch ((index + app) % 3) {
      case 0:
        host->spawn("batch", std::make_unique<workloads::SteadyBehavior>(
                                 workloads::cpu_stress(0.85), 0));
        break;
      case 1:
        host->spawn("web", std::make_unique<workloads::BurstyBehavior>(
                               workloads::mixed_stress(0.3, 8.0 * 1024 * 1024),
                               util::ms_to_ns(20), util::ms_to_ns(30), 0,
                               rng.fork(10 + app)));
        break;
      default:
        host->spawn("cache", std::make_unique<workloads::SteadyBehavior>(
                                 workloads::memory_stress(24.0 * 1024 * 1024), 0));
        break;
    }
  }
  host->spawn("kdaemon", workloads::make_background_daemon(rng.fork(1)));
  return host;
}

std::shared_ptr<model::ModelRegistry> train_registry() {
  model::Trainer trainer(simcpu::i3_2120(), simcpu::GroundTruthParams{},
                         model::paper_trainer_options());
  return std::make_shared<model::ModelRegistry>(trainer.train().model);
}

void settle(actors::ActorSystem& system) {
  if (system.mode() == Mode::kThreaded) {
    system.await_idle();
  } else {
    system.drain();
  }
}

/// What a run must reproduce exactly: the kManual reference and the
/// measured run agree on every field, bit for bit.
struct Digest {
  std::uint32_t series_crc32c = 0;
  double mdape_pct = 0.0;
  std::size_t ape_samples = 0;
  double joules_per_gi = 0.0;  ///< Governed only: first episode.
  double over_budget_s = 0.0;  ///< Governed only: first episode.
  std::uint64_t actuations = 0;

  bool operator==(const Digest&) const = default;
};

/// Per-host consumer state, written only by that host's callback reporter
/// (one message at a time) and read by the main thread after a settle.
struct HostSink {
  struct Pair {
    util::TimestampNs timestamp = -1;
    double watts[2] = {0.0, 0.0};
    bool seen[2] = {false, false};
  };

  std::array<std::uint32_t, 2> crc{};
  std::uint64_t estimate_rows = 0;  ///< Machine rows of the paper's formula.
  std::array<util::TimestampNs, 2> last_timestamp{-1, -1};
  std::uint64_t bad_rows = 0;
  std::array<Pair, 8> pairs{};
  std::vector<double> ape_pct;
  LatencyHistogram delivery;
  // Rows handed to the telemetry client (remote workload).
  std::uint64_t reported = 0;
  std::uint64_t reported_digest = 0;
  std::int64_t report_ns = 0;
};

/// Rows of the fleet dimension, per formula.
struct FleetSink {
  std::array<std::uint64_t, 2> rows{};
  std::uint64_t bad_rows = 0;
};

/// Collector end of the remote workload: a kManual bus behind a BusBridge
/// behind a CollectorServer, plus the agents' clients. All of it is polled
/// by the main thread between ticks.
struct Net {
  explicit Net(std::size_t clients)
      : bridge(bus, [] {
          net::BusBridgeOptions options;
          options.per_agent_topics = false;  // Only the merged topic is read.
          return options;
        }()),
        server(net::CollectorServerOptions{}, bridge) {
    if (!server.listening()) throw std::runtime_error("collector: " + server.error());
    for (std::size_t i = 0; i < clients; ++i) {
      net::TelemetryClientOptions options;
      options.port = server.port();
      options.agent_id = "agent" + std::to_string(i);
      this->clients.push_back(std::make_unique<net::TelemetryClient>(options));
    }
  }

  std::uint64_t enqueued() const {
    std::uint64_t n = 0;
    for (const auto& client : clients) n += client->stats().records_enqueued;
    return n;
  }

  actors::ActorSystem actors{Mode::kManual};
  actors::EventBus bus{actors};
  net::BusBridge bridge;
  net::CollectorServer server;
  std::vector<std::unique_ptr<net::TelemetryClient>> clients;

  std::uint64_t delivered = 0;
  std::uint64_t delivered_digest = 0;
  LatencyHistogram delivery;
  std::int64_t client_poll_ns = 0;
  std::int64_t server_poll_ns = 0;
  std::uint64_t backlog_max = 0;
};

/// One assembled fleet for one workload: hosts, the FleetMonitor and its
/// consumers, and (per workload) the collector or the governor.
class Bench {
 public:
  Bench(const Workload& workload, std::uint64_t seed, Mode mode,
        std::shared_ptr<model::ModelRegistry> registry, Probe* probe, bool with_net)
      : w_(workload),
        registry_(std::move(registry)),
        probe_(probe),
        fleet_(fleet_options(mode)) {
    const std::size_t capture_limit =
        (kReplayLaneSets + w_.hosts - 1) / w_.hosts + 1;
    for (std::size_t i = 0; i < w_.hosts; ++i) {
      systems_.push_back(make_host(seed, i));
      if (probe_ != nullptr) {
        timed_.push_back(std::make_unique<TimedHost>(*systems_[i], *probe_, capture_limit));
      }
      sinks_.push_back(std::make_unique<HostSink>());
    }
    if (w_.remote && with_net) net_ = std::make_unique<Net>(kClients);

    for (std::size_t i = 0; i < w_.hosts; ++i) {
      api::PipelineSpec spec;
      spec.period = w_.period;
      spec.with_powerspy = true;
      spec.registry = registry_;
      spec.seed = util::Rng(seed).fork(i).fork(2).seed();
      spec.dimension = w_.remote ? api::AggregationDimension::kPid
                                 : api::AggregationDimension::kTimestamp;
      os::MonitorableHost& host =
          probe_ != nullptr ? static_cast<os::MonitorableHost&>(*timed_[i]) : *systems_[i];
      const std::size_t index = fleet_.add_host(host, spec);
      fleet_.monitor_all(index);
      net::TelemetryClient* client =
          net_ ? net_->clients[i * kClients / w_.hosts].get() : nullptr;
      fleet_.add_callback_reporter(index, [this, i, client](const api::AggregatedPower& row) {
        on_host_row(i, row, client);
      });
    }
    const auto fleet_sink = fleet_.actor_system().spawn_as<api::CallbackReporter>(
        "bench/fleet-sink", [this](const api::AggregatedPower& row) {
          const int f = formula_index(row.formula);
          if (f < 0 || !std::isfinite(row.watts)) {
            ++fleet_sink_.bad_rows;
          } else {
            ++fleet_sink_.rows[f];
          }
        });
    fleet_.bus().subscribe("fleet/power:aggregated", fleet_sink);

    if (net_) {
      const auto collector_sink = net_->actors.spawn_as<api::CallbackReporter>(
          "bench/collector-sink",
          [this](const api::AggregatedPower& row) { on_collector_row(row); });
      net_->bus.subscribe(net_->bridge.aggregated_topic(), collector_sink);
      connect();
    }
    if (w_.governed) add_governor();
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  util::TimestampNs now() const { return systems_.front()->now_ns(); }

  void warm_up() {
    while (now() < kWarmup) tick(wall_ns());
  }

  /// Starts stamping delivery latencies: from here on, measured tick m
  /// samples at t0 + (m + 1) * period.
  void begin_measure() {
    measure_t0_ = now();
    measured_ticks_ = 0;
  }

  /// Stops stamping: rows flushed after the measured phase are not timed.
  void end_measure() { measure_t0_ = -1; }

  /// Moves the delivery latencies stamped so far into `out`. Call between
  /// ticks only: the in-process consumers run on worker threads.
  void take_delivery(LatencyHistogram& out) {
    if (net_) {
      out.merge(net_->delivery);
      net_->delivery.reset();
      return;
    }
    for (const auto& sink : sinks_) {
      out.merge(sink->delivery);
      sink->delivery.reset();
    }
  }

  /// One closed-loop iteration: advance the fleet one period (run_for
  /// settles before returning), then pump the collector path.
  void tick(std::int64_t start_ns) {
    if (measure_t0_ >= 0) tick_start_[measured_ticks_++ % tick_start_.size()] = start_ns;
    const bool spans = probe_ != nullptr && probe_->spanning();
    if (w_.governed) {
      fleet_.run_for(w_.period, [this](util::DurationNs) { on_chunk(); });
    } else {
      fleet_.run_for(w_.period);
    }
    if (net_) poll_net();
    if (spans) {
      probe_->trace.complete(probe_->tick_span, start_ns, wall_ns() - start_ns,
                             measured_ticks_);
    }
  }

  /// The simulated window the digest covers is complete, rows included.
  bool window_done() const { return now() >= w_.window_end + 2 * w_.period; }

  /// Flushes every pending row through to its consumer.
  void finish() {
    fleet_.finish();
    if (!net_) return;
    const std::int64_t deadline = wall_ns() + 5'000'000'000;
    const std::uint64_t enqueued = net_->enqueued();
    while (net_->delivered < enqueued && wall_ns() < deadline) {
      for (auto& client : net_->clients) client->poll_once(1);
      net_->server.poll_once(1);
      net_->actors.drain();
    }
  }

  Digest digest() const {
    Digest d;
    std::vector<double> ape;
    for (const auto& sink : sinks_) {
      for (const std::uint32_t crc : sink->crc) {
        d.series_crc32c = util::crc32c_extend(d.series_crc32c, &crc, sizeof crc);
      }
      ape.insert(ape.end(), sink->ape_pct.begin(), sink->ape_pct.end());
    }
    d.ape_samples = ape.size();
    if (!ape.empty()) {
      const auto mid = ape.begin() + static_cast<std::ptrdiff_t>(ape.size() / 2);
      std::nth_element(ape.begin(), mid, ape.end());
      // Median on the 0.01-percentage-point grid.
      d.mdape_pct = std::round(*mid * 100.0) / 100.0;
    }
    if (w_.governed) {
      d.joules_per_gi = episode_joules_per_gi_;
      d.over_budget_s = util::ns_to_seconds(over_budget_ns_);
      d.actuations = episode_actuations_;
    }
    return d;
  }

  /// Host-ticks with a missing or malformed machine row, plus (remote)
  /// records dropped, never delivered or delivered altered.
  std::uint64_t failed_ops() const {
    // Every tick after the priming one yields one machine estimate per host,
    // and one fleet row per formula.
    const auto expected = static_cast<std::uint64_t>(now() / w_.period) - 1;
    const auto gap = [expected](std::uint64_t rows) {
      return rows > expected ? rows - expected : expected - rows;
    };
    std::uint64_t failed = fleet_sink_.bad_rows;
    for (const std::uint64_t rows : fleet_sink_.rows) failed += gap(rows);
    std::uint64_t reported = 0;
    std::uint64_t reported_digest = 0;
    for (const auto& sink : sinks_) {
      failed += sink->bad_rows + gap(sink->estimate_rows);
      reported += sink->reported;
      reported_digest += sink->reported_digest;
    }
    if (net_) {
      for (const auto& client : net_->clients) failed += client->stats().records_dropped;
      failed += reported > net_->delivered ? reported - net_->delivered : 0;
      if (reported == net_->delivered && reported_digest != net_->delivered_digest) ++failed;
    }
    return failed;
  }

  const Workload& workload() const { return w_; }
  Net* net() { return net_.get(); }
  const std::vector<std::unique_ptr<TimedHost>>& timed() const { return timed_; }
  const std::vector<std::unique_ptr<HostSink>>& sinks() const { return sinks_; }
  std::int64_t decide_ns() const { return decide_ns_; }
  const model::CpuPowerModel& model() const { return registry_->current()->model; }
  std::uint64_t dead_letters() { return fleet_.bus().dead_letter_count(); }

 private:
  static api::FleetMonitor::Options fleet_options(Mode mode) {
    api::FleetMonitor::Options options;
    options.mode = mode;
    options.workers = kWorkers;
    return options;
  }

  void on_host_row(std::size_t host, const api::AggregatedPower& row,
                   net::TelemetryClient* client) {
    HostSink& sink = *sinks_[host];
    const int f = formula_index(row.formula);
    if (f < 0 || !std::isfinite(row.watts)) {
      ++sink.bad_rows;
      return;
    }
    const bool in_window = row.timestamp <= w_.window_end;
    if (in_window) sink.crc[f] = row_crc(sink.crc[f], row);
    if (row.pid == api::kMachinePid && row.group.empty()) {
      // The estimate covers every tick; the wall meter may drop a sample
      // (its simulated bluetooth loss) but never repeats or reorders one.
      const util::TimestampNs last = sink.last_timestamp[f];
      if (last >= 0 && (f == 0 ? row.timestamp != last + w_.period : row.timestamp <= last)) {
        ++sink.bad_rows;
      }
      sink.last_timestamp[f] = row.timestamp;
      if (f == 0) ++sink.estimate_rows;
      if (in_window) pair_for_accuracy(sink, f, row);
    }
    if (client != nullptr) {
      const std::int64_t start = probe_ != nullptr && probe_->on() ? wall_ns() : 0;
      client->report(row);
      if (start != 0) sink.report_ns += wall_ns() - start;
      ++sink.reported;
      sink.reported_digest += row_crc(0, row);
    } else {
      record_delivery(sink.delivery, row.timestamp);
    }
  }

  void on_collector_row(const api::AggregatedPower& row) {
    ++net_->delivered;
    net_->delivered_digest += row_crc(0, row);
    record_delivery(net_->delivery, row.timestamp);
  }

  /// Wall time from the start of the tick that sampled `timestamp` to now.
  void record_delivery(LatencyHistogram& histogram, util::TimestampNs timestamp) {
    if (measure_t0_ < 0 || timestamp <= measure_t0_) return;
    const auto tick = static_cast<std::uint64_t>((timestamp - measure_t0_) / w_.period - 1);
    histogram.record(wall_ns() - tick_start_[tick % tick_start_.size()]);
  }

  /// Machine-scope APE of the paper's formula against the wall meter.
  void pair_for_accuracy(HostSink& sink, int f, const api::AggregatedPower& row) {
    HostSink::Pair& pair =
        sink.pairs[static_cast<std::size_t>(row.timestamp / w_.period) % sink.pairs.size()];
    if (pair.timestamp != row.timestamp) pair = HostSink::Pair{row.timestamp};
    pair.watts[f] = row.watts;
    pair.seen[f] = true;
    if (pair.seen[0] && pair.seen[1] && pair.watts[1] > 0.0) {
      sink.ape_pct.push_back(100.0 * std::fabs(pair.watts[0] - pair.watts[1]) / pair.watts[1]);
    }
  }

  void connect() {
    const std::int64_t deadline = wall_ns() + 5'000'000'000;
    const auto connected = [this] {
      for (const auto& client : net_->clients) {
        if (!client->connected()) return false;
      }
      return net_->server.connection_count() == net_->clients.size();
    };
    while (!connected()) {
      if (wall_ns() > deadline) throw std::runtime_error("clients did not connect");
      for (auto& client : net_->clients) client->poll_once(1);
      net_->server.poll_once(1);
    }
  }

  void poll_net() {
    const bool timing = probe_ != nullptr && probe_->on();
    const bool spans = timing && probe_->spanning();
    std::int64_t start = timing ? wall_ns() : 0;
    for (auto& client : net_->clients) client->poll_once(0);
    if (timing) {
      const std::int64_t end = wall_ns();
      net_->client_poll_ns += end - start;
      if (spans) probe_->trace.complete(probe_->client_poll_span, start, end - start);
      start = end;
    }
    net_->server.poll_once(0);
    net_->actors.drain();
    if (timing) {
      const std::int64_t end = wall_ns();
      net_->server_poll_ns += end - start;
      if (spans) probe_->trace.complete(probe_->server_poll_span, start, end - start);
      const std::uint64_t enqueued = net_->enqueued();
      if (enqueued > net_->delivered) {
        net_->backlog_max = std::max(net_->backlog_max, enqueued - net_->delivered);
      }
    }
  }

  void add_governor() {
    governor::GovernorOptions options;
    options.budget_watts = kBudgetPerHostWatts * static_cast<double>(w_.hosts);
    options.hysteresis_watts = kHysteresisWatts;
    options.cooldown_ns = util::seconds_to_ns(1);
    options.max_step = 2;
    options.formula = "powerapi-hpc";
    std::vector<governor::HostControl> controls;
    for (std::size_t i = 0; i < w_.hosts; ++i) {
      controls.push_back(governor::control_for("host" + std::to_string(i), *systems_[i]));
    }
    auto actor = std::make_unique<governor::GovernorActor>(fleet_.bus(), options,
                                                           std::move(controls));
    governor_ = actor.get();
    governor_ref_ = fleet_.actor_system().spawn("governor", std::move(actor));
    for (std::size_t i = 0; i < w_.hosts; ++i) {
      governor::GovernorActor::spawn_sense_relay(
          fleet_.actor_system(), fleet_.bus(), fleet_.pipeline(i).aggregated_topic(),
          governor_ref_, i, "sense-h" + std::to_string(i));
    }
    // The scan jobs exist from boot with their gates shut, so every host
    // keeps the same process table across episodes.
    for (std::size_t i = 0; i < w_.hosts; ++i) {
      for (std::size_t j = 0; j < kScansPerHost; ++j) {
        Scan scan;
        scan.host = i;
        scan.gate = std::make_shared<bool>(false);
        const double working_set = 64e6 * static_cast<double>(1 + (i + j) % 3);
        scan.pid = systems_[i]->spawn(
            "scan", std::make_unique<workloads::GatedBehavior>(
                        std::make_unique<workloads::SteadyBehavior>(
                            workloads::memory_stress(working_set, 1.0), 0),
                        scan.gate));
        scans_.push_back(std::move(scan));
      }
    }
  }

  /// Governed workload, between settled chunks: the spike schedule, the
  /// governor's decision and the first episode's ground truth.
  void on_chunk() {
    const util::TimestampNs t = now();
    const util::DurationNs phase = t % kEpisode;
    const std::int64_t episode = t / kEpisode;
    if (phase >= kSpikeAt && spiked_episode_ < episode) {
      spiked_episode_ = episode;
      for (std::size_t k = 0; k < scans_.size(); ++k) {
        Scan& scan = scans_[k];
        const auto stat = systems_[scan.host]->proc_stat(scan.pid);
        scan.target = stat->counters.instructions + kScanInstructions +
                      250'000'000ULL * (k % 3);
        *scan.gate = true;
      }
    }
    for (Scan& scan : scans_) {
      if (!*scan.gate) continue;
      const auto stat = systems_[scan.host]->proc_stat(scan.pid);
      // Work-bounded: shut the gate the chunk the target is reached, and at
      // the latest when the episode ends.
      if (stat->counters.instructions >= scan.target || phase == 0) *scan.gate = false;
    }

    const bool timing = probe_ != nullptr && probe_->on();
    const std::int64_t start = timing ? wall_ns() : 0;
    fleet_.actor_system().tell(governor_ref_, actors::Payload(governor::GovernorTick{t}));
    settle(fleet_.actor_system());
    if (timing) {
      const std::int64_t took = wall_ns() - start;
      decide_ns_ += took;
      if (probe_->spanning()) probe_->trace.complete(probe_->decide_span, start, took);
    }

    if (t > kEpisode) return;
    double joules = 0.0;
    for (const auto& system : systems_) joules += system->total_energy_joules();
    const double watts = (joules - last_joules_) / util::ns_to_seconds(w_.period);
    last_joules_ = joules;
    if (watts > kBudgetPerHostWatts * static_cast<double>(w_.hosts) + kHysteresisWatts) {
      over_budget_ns_ += w_.period;
    }
    if (t == kEpisode) {
      double instructions = 0.0;
      for (const auto& system : systems_) {
        instructions += static_cast<double>(system->machine_counters().instructions);
      }
      episode_joules_per_gi_ = joules / (instructions / 1e9);
      episode_actuations_ = governor_->actuation_count();
    }
  }

  struct Scan {
    std::size_t host = 0;
    os::Pid pid = 0;
    workloads::GatedBehavior::Gate gate;
    std::uint64_t target = 0;
  };

  const Workload& w_;
  std::shared_ptr<model::ModelRegistry> registry_;
  Probe* probe_;
  // Declared before fleet_: its actors call into all of these until the
  // FleetMonitor is destroyed.
  std::vector<std::unique_ptr<os::System>> systems_;
  std::vector<std::unique_ptr<TimedHost>> timed_;
  std::vector<std::unique_ptr<HostSink>> sinks_;
  FleetSink fleet_sink_;
  std::unique_ptr<Net> net_;
  util::TimestampNs measure_t0_ = -1;
  std::uint64_t measured_ticks_ = 0;
  /// Wall start of recent measured ticks; rows arrive within a few ticks.
  std::array<std::int64_t, 4096> tick_start_{};
  api::FleetMonitor fleet_;

  governor::GovernorActor* governor_ = nullptr;
  actors::ActorRef governor_ref_;
  std::vector<Scan> scans_;
  std::int64_t spiked_episode_ = -1;
  std::int64_t decide_ns_ = 0;
  double last_joules_ = 0.0;
  util::DurationNs over_budget_ns_ = 0;
  double episode_joules_per_gi_ = 0.0;
  std::uint64_t episode_actuations_ = 0;
};

/// Runs a fresh fleet over the digest window only.
std::pair<Digest, std::uint64_t> run_window(const Workload& w, std::uint64_t seed, Mode mode,
                                            bool with_net) {
  Bench bench(w, seed, mode, train_registry(), nullptr, with_net);
  while (!bench.window_done()) bench.tick(wall_ns());
  bench.finish();
  return {bench.digest(), bench.failed_ops()};
}

/// One interval of the measured phase.
struct Interval {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::uint64_t ticks = 0;
  bool traced = false;
  double tick_p50_ns = 0.0;
  double delivery_p50_ns = 0.0;
};

/// Median of `f` over the intervals of one kind (traced or not). The last,
/// partial interval counts only when a run is too short for a full one.
template <typename F>
double interval_median(const std::vector<Interval>& intervals, bool traced, F f) {
  std::vector<double> full, all;
  for (const Interval& interval : intervals) {
    if (interval.traced != traced || interval.ticks == 0) continue;
    all.push_back(f(interval));
    if (interval.ticks >= kIntervalTicks) full.push_back(f(interval));
  }
  std::vector<double>& values = full.empty() ? all : full;
  if (values.empty()) return std::nan("");
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

/// Model kernels replayed on the lane sets the TimedHosts captured: the
/// feature extraction and the per-frequency sweep, in ns per row.
std::pair<double, double> replay_kernels(const Bench& bench) {
  struct Pair {
    const TimedHost::LaneSet* prev;
    const TimedHost::LaneSet* cur;
    std::size_t hw_threads;
  };
  std::vector<Pair> pairs;
  for (const auto& host : bench.timed()) {
    const auto& sets = host->captured();
    for (std::size_t i = 1; i < sets.size(); ++i) {
      if (sets[i].pids == sets[i - 1].pids) {
        pairs.push_back({&sets[i - 1], &sets[i], host->hw_threads()});
      }
    }
  }
  if (pairs.empty()) return {0.0, 0.0};
  std::vector<model::FeatureMatrix> features(pairs.size());
  std::vector<std::vector<double>> windows(pairs.size());
  std::vector<std::vector<double>> watts(pairs.size());
  std::size_t rows = 0;
  const double window_s = util::ns_to_seconds(bench.workload().period);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const std::size_t n = pairs[i].cur->pids.size();
    features[i].resize(n);
    std::copy(pairs[i].cur->pids.begin(), pairs[i].cur->pids.end(), features[i].pids());
    features[i].frequency_hz = pairs[i].cur->frequency_hz;
    windows[i].assign(n, window_s);
    watts[i].assign(n, 0.0);
    rows += n;
  }
  const model::CpuPowerModel& model = bench.model();
  // Repeat each kernel over the whole set until it has run for 50 ms.
  const auto time_per_row = [&](const auto& kernel) {
    std::uint64_t passes = 0;
    const std::int64_t start = wall_ns();
    std::int64_t elapsed = 0;
    do {
      for (std::size_t i = 0; i < pairs.size(); ++i) kernel(i);
      ++passes;
      elapsed = wall_ns() - start;
    } while (elapsed < 50'000'000);
    return static_cast<double>(elapsed) / static_cast<double>(passes * rows);
  };
  const double extract = time_per_row([&](std::size_t i) {
    model::extract_features_rows(pairs[i].cur->lanes, pairs[i].prev->lanes,
                                 windows[i].data(), pairs[i].hw_threads, features[i]);
  });
  const double sweep = time_per_row([&](std::size_t i) {
    model.estimate_activity_rows(features[i], watts[i]);
  });
  return {extract, sweep};
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

#ifndef POWERAPI_BUILD_TYPE
#define POWERAPI_BUILD_TYPE "unknown"
#endif

/// The machine a result was measured on; numbers from two fingerprints are
/// not comparable.
std::string fingerprint() {
  std::ostringstream out;
  out << "nproc=" << std::thread::hardware_concurrency() << " cpu=\"" << cpu_model()
      << "\" compiler=\"" << __VERSION__ << "\" build=" << POWERAPI_BUILD_TYPE;
  return out.str();
}

/// Prints `name value unit` for every metric of `specs` (all must be set),
/// then the result object as the last line.
void print_result(std::span<const MetricSpec> specs, const std::map<std::string, double>& values,
                  bool correct, std::uint64_t attempted, std::uint64_t failed) {
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = values.find(specs[i].name);
    if (it == values.end()) throw std::logic_error(std::string("unset metric ") + specs[i].name);
    if (!std::isfinite(it->second)) {
      throw std::runtime_error(std::string("no value for ") + specs[i].name +
                               " (measured phase too short?)");
    }
    std::printf("%s %.6g %s\n", specs[i].name, it->second, specs[i].unit);
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", it->second);
    json << (i == 0 ? "" : ", ") << '"' << specs[i].name << "\": {\"value\": " << number
         << ", \"unit\": \"" << specs[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

/// What the measured phase leaves behind besides the fleet's own state.
struct Measurement {
  std::vector<Interval> intervals;
  std::uint64_t delivered_rows = 0;  ///< Rows whose delivery was timed.
  std::uint64_t records = 0;         ///< Enqueued on the telemetry clients (remote).
};

/// Runs ticks for `seconds` of wall time (and at least until the digest
/// window is complete), appending to `m`. Traced runs alternate untraced and
/// traced intervals.
void measure(Bench& bench, Probe& probe, bool traced, double seconds, Measurement& m) {
  Interval current;
  LatencyHistogram ticks;
  LatencyHistogram delivery;
  std::uint64_t traced_ticks = 0;
  const std::uint64_t enqueued_before = bench.net() ? bench.net()->enqueued() : 0;
  bench.begin_measure();
  const std::int64_t deadline = wall_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t interval_cpu = process_cpu_ns();
  // Between ticks, so none of this is inside a tick's or a row's timing.
  const auto close_interval = [&] {
    const std::int64_t cpu = process_cpu_ns();
    current.cpu_ns = cpu - interval_cpu;
    interval_cpu = cpu;
    bench.take_delivery(delivery);
    m.delivered_rows += delivery.count();
    current.tick_p50_ns = ticks.quantile_ns(0.50);
    current.delivery_p50_ns = delivery.quantile_ns(0.50);
    ticks.reset();
    delivery.reset();
    m.intervals.push_back(current);
    current = Interval{};
    current.traced = traced && !m.intervals.back().traced;
    probe.timing = current.traced;
    probe.spans = current.traced && traced_ticks < kTraceSpanTicks;
  };
  while (true) {
    const std::int64_t start = wall_ns();
    bench.tick(start);
    const std::int64_t end = wall_ns();
    ticks.record(end - start);
    current.wall_ns += end - start;
    ++current.ticks;
    if (current.traced && ++traced_ticks == kTraceSpanTicks) probe.spans = false;
    if (end >= deadline && bench.window_done()) break;
    if (current.ticks == kIntervalTicks) close_interval();
  }
  close_interval();
  bench.end_measure();
  probe.timing = false;
  probe.spans = false;
  if (bench.net()) m.records += bench.net()->enqueued() - enqueued_before;
}

double host_ticks_per_s(const Interval& interval, std::size_t hosts) {
  return static_cast<double>(interval.ticks * hosts) /
         (static_cast<double>(interval.wall_ns) / 1e9);
}

/// Every end-to-end figure except setup_s, which needs set-ups after the run.
std::map<std::string, double> end_to_end_values(const Workload& w, const Measurement& m) {
  const std::size_t hosts = w.hosts;
  std::uint64_t ticks = 0;
  for (const Interval& interval : m.intervals) ticks += interval.ticks;
  std::printf("intervals %zu count\ntick_samples %llu count\ndelivery_samples %llu count\n",
              m.intervals.size(), static_cast<unsigned long long>(ticks),
              static_cast<unsigned long long>(m.delivered_rows));
  const auto median_of = [&m](double Interval::*field) {
    return interval_median(m.intervals, false,
                           [field](const Interval& i) { return i.*field / 1e3; });
  };
  std::map<std::string, double> values;
  values["host_ticks_per_s"] = interval_median(
      m.intervals, false, [hosts](const Interval& i) { return host_ticks_per_s(i, hosts); });
  values["tick_p50_us"] = median_of(&Interval::tick_p50_ns);
  values["cpu_us_per_host_tick"] = interval_median(m.intervals, false, [hosts](const Interval& i) {
    return static_cast<double>(i.cpu_ns) / 1e3 / static_cast<double>(i.ticks * hosts);
  });
  values["peak_rss_mb"] = peak_rss_mb();
  values["delivery_p50_us"] = median_of(&Interval::delivery_p50_ns);
  return values;
}

/// Per-layer figures over the traced intervals.
std::map<std::string, double> per_layer_values(Bench& bench, const Measurement& m,
                                               const Digest& digest) {
  const std::size_t hosts = bench.workload().hosts;
  Interval traced;
  for (const Interval& interval : m.intervals) {
    if (!interval.traced) continue;
    traced.wall_ns += interval.wall_ns;
    traced.cpu_ns += interval.cpu_ns;
    traced.ticks += interval.ticks;
  }
  const double host_ticks = static_cast<double>(traced.ticks * hosts);
  const double cpu = static_cast<double>(traced.cpu_ns);
  const double wall = static_cast<double>(traced.wall_ns);
  double advance = 0, advance_calls = 0, gather = 0, gather_calls = 0, gather_rows = 0;
  for (const auto& host : bench.timed()) {
    advance += static_cast<double>(host->advance_ns());
    advance_calls += static_cast<double>(host->advance_calls());
    gather += static_cast<double>(host->gather_ns());
    gather_calls += static_cast<double>(host->gather_calls());
    gather_rows += static_cast<double>(host->gather_rows());
  }
  double report_ns = 0;
  for (const auto& sink : bench.sinks()) report_ns += static_cast<double>(sink->report_ns);
  const auto [extract, sweep] = replay_kernels(bench);
  const auto rate = [hosts](const Interval& i) { return host_ticks_per_s(i, hosts); };

  std::map<std::string, double> values;
  values["host_tick_cpu_ns"] = cpu / host_ticks;
  values["os.advance_ns"] = advance / host_ticks;
  values["os.advance_calls"] = advance_calls / host_ticks;
  values["hpc.gather_ns"] = gather / host_ticks;
  values["hpc.gather_rows"] = gather_calls > 0 ? gather_rows / gather_calls : 0.0;
  values["model.extract_ns_per_row"] = extract;
  values["model.sweep_ns_per_row"] = sweep;
  values["powerapi.pipeline_ns"] = (cpu - advance - gather) / host_ticks;
  values["actors.idle_frac"] = 1.0 - cpu / (static_cast<double>(kThreads) * wall);
  values["net.report_cpu_pct"] = 100.0 * report_ns / cpu;
  values["net.client_poll_pct"] = 0.0;
  values["net.server_poll_pct"] = 0.0;
  values["net.bytes_per_record"] = 0.0;
  values["net.backlog_max"] = 0.0;
  if (const Net* net = bench.net()) {
    double bytes = 0, sent = 0;
    for (const auto& client : net->clients) {
      bytes += static_cast<double>(client->stats().bytes_sent);
      sent += static_cast<double>(client->stats().records_sent);
    }
    values["net.client_poll_pct"] = 100.0 * static_cast<double>(net->client_poll_ns) / wall;
    values["net.server_poll_pct"] = 100.0 * static_cast<double>(net->server_poll_ns) / wall;
    values["net.bytes_per_record"] = sent > 0 ? bytes / sent : 0.0;
    values["net.backlog_max"] = static_cast<double>(net->backlog_max);
  }
  values["governor.decide_pct"] = 100.0 * static_cast<double>(bench.decide_ns()) / wall;
  values["governor.actuations"] = static_cast<double>(digest.actuations);
  values["trace.overhead_pct"] = 100.0 * (1.0 - interval_median(m.intervals, true, rate) /
                                                    interval_median(m.intervals, false, rate));
  return values;
}

int run_workload(const Workload& w, std::uint64_t seed, double seconds,
                 const std::string& trace_path) {
  const bool traced = !trace_path.empty();
  std::printf("fingerprint %s\n", fingerprint().c_str());
  std::printf("workload %s seed %llu hosts %zu period_ns %lld\n", w.name,
              static_cast<unsigned long long>(seed), w.hosts,
              static_cast<long long>(w.period));

  const auto [reference, reference_failed] = run_window(w, seed, Mode::kManual, false);

  Probe probe;
  std::vector<double> setup_s;
  // A block of timed set-ups (model training, fleet assembly, warm-up); the
  // last fleet built is returned for measuring.
  const auto set_up_block = [&] {
    std::unique_ptr<Bench> bench;
    for (int r = 0; r < kSetupsPerBlock; ++r) {
      if (bench) bench->finish();  // Drain the previous fleet before tearing it down.
      const std::int64_t start = wall_ns();
      bench = std::make_unique<Bench>(w, seed, Mode::kThreaded, train_registry(),
                                      traced ? &probe : nullptr, true);
      bench->warm_up();
      setup_s.push_back(static_cast<double>(wall_ns() - start) / 1e9);
    }
    return bench;
  };

  // A traced run keeps one fleet: its per-layer sums live in that fleet.
  const int fleets = traced ? 1 : kMeasuredFleets;
  Measurement m;
  Digest digest;
  bool reproduced = true;
  std::uint64_t failed = reference_failed;
  std::unique_ptr<Bench> bench;
  for (int f = 0; f < fleets; ++f) {
    bench.reset();
    bench = set_up_block();
    measure(*bench, probe, traced, seconds / fleets, m);
    bench->finish();
    digest = bench->digest();
    reproduced = reproduced && digest == reference;
    failed += bench->failed_ops();
  }

  std::uint64_t measured_ticks = 0;
  for (const Interval& interval : m.intervals) measured_ticks += interval.ticks;
  const std::uint64_t ops = w.remote ? m.records : measured_ticks * w.hosts;
  const bool sane = digest.ape_samples > 0 && digest.mdape_pct > 0.0 &&
                    digest.mdape_pct < 100.0 && (!w.governed || digest.actuations > 0);
  const bool correct = reproduced && failed == 0 && sane;

  std::printf("ops %llu count\nfailed_ops %llu count\n", static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(failed));
  std::printf("series_crc32c %08x reference %08x\n", digest.series_crc32c,
              reference.series_crc32c);
  std::printf("estimate_mdape_pct %.2f %% (%zu samples, reference %.2f)\n", digest.mdape_pct,
              digest.ape_samples, reference.mdape_pct);
  if (w.governed) {
    std::printf("joules_per_gi %.6f J/Gi (reference %.6f)\n", digest.joules_per_gi,
                reference.joules_per_gi);
    std::printf("over_budget_s %.2f s (reference %.2f)\n", digest.over_budget_s,
                reference.over_budget_s);
    std::printf("actuations %llu count (reference %llu)\n",
                static_cast<unsigned long long>(digest.actuations),
                static_cast<unsigned long long>(reference.actuations));
  }
  std::printf("fleets %d count\nmeasured_ticks %llu count\ndead_letters %llu count\n",
              fleets, static_cast<unsigned long long>(measured_ticks),
              static_cast<unsigned long long>(bench->dead_letters()));
  if (!correct) std::fprintf(stderr, "fleet_bench: output check FAILED\n");

  if (!traced) {
    auto values = end_to_end_values(w, m);
    bench.reset();
    set_up_block()->finish();
    std::sort(setup_s.begin(), setup_s.end());
    values["setup_s"] = setup_s[setup_s.size() / 2];
    print_result(kEndToEnd, values, correct, ops, failed);
    return correct ? 0 : 1;
  }
  const auto values = per_layer_values(*bench, m, digest);
  std::ofstream trace_out(trace_path);
  probe.trace.write_chrome_trace(trace_out);
  if (!trace_out) {
    std::fprintf(stderr, "fleet_bench: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  print_result(kPerLayer, values, correct, ops, failed);
  return correct ? 0 : 1;
}

/// Self-test: every workload's series over its digest window matches in
/// kManual and in the workload's own threaded mode with no failed ops, and
/// BENCHMARK.json lists exactly the workloads and metrics printed here.
int run_check(const std::string& benchmark_json) {
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    const auto [manual, manual_failed] = run_window(w, 1, Mode::kManual, false);
    const auto [threaded, threaded_failed] = run_window(w, 1, Mode::kThreaded, true);
    const bool match = manual == threaded && manual_failed == 0 && threaded_failed == 0;
    std::printf("check %-14s crc %08x / %08x failed %llu / %llu mdape %.2f %s\n", w.name,
                manual.series_crc32c, threaded.series_crc32c,
                static_cast<unsigned long long>(manual_failed),
                static_cast<unsigned long long>(threaded_failed), threaded.mdape_pct,
                match ? "ok" : "FAIL");
    ok = ok && match;
  }
  std::ifstream in(benchmark_json);
  if (!in) {
    std::fprintf(stderr, "check: cannot read %s\n", benchmark_json.c_str());
    return 1;
  }
  const std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  std::size_t listed = 0;
  for (std::size_t at = text.find("\"name\""); at != std::string::npos;
       at = text.find("\"name\"", at + 1)) {
    ++listed;
  }
  const auto expect = [&](const std::string& needle) {
    if (text.find(needle) != std::string::npos) return;
    std::printf("check BENCHMARK.json lacks %s\n", needle.c_str());
    ok = false;
  };
  for (const Workload& w : kWorkloads) expect("{\"name\": \"" + std::string(w.name) + "\"");
  for (const std::span<const MetricSpec> specs :
       {std::span<const MetricSpec>(kEndToEnd), std::span<const MetricSpec>(kPerLayer)}) {
    for (const MetricSpec& spec : specs) {
      expect("{\"name\": \"" + std::string(spec.name) + "\", \"unit\": \"" + spec.unit + "\"");
    }
  }
  const std::size_t printed =
      std::size(kWorkloads) + std::size(kEndToEnd) + std::size(kPerLayer);
  if (listed != printed) {
    std::printf("check BENCHMARK.json names %zu entries, the program %zu\n", listed, printed);
    ok = false;
  }
  std::printf("check %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::configure_logging(argc, argv);
  std::string workload_name;
  std::size_t seed = 1;
  double seconds = 20.0;
  std::string trace_path;
  bool check = false;
  std::string benchmark_json = "BENCHMARK.json";
  util::ArgParser parser("fleet_bench",
                         "End-to-end fleet monitoring benchmark: closed-loop fleet "
                         "ticks, wall-clock metrics and a per-layer budget.");
  parser.add_string("workload", &workload_name,
                    "fleet_1ms | fleet_250ms | remote_1ms | governed_10ms");
  parser.add_size("seed", &seed, "input seed (hosts, apps, meter noise)");
  parser.add_double("seconds", &seconds, "wall time of the measured phase");
  parser.add_string("trace", &trace_path,
                    "traced run: per-layer metrics, Chrome trace written here");
  parser.add_flag("check", &check, "self-test: kManual vs threaded on every workload");
  parser.add_string("benchmark-json", &benchmark_json, "BENCHMARK.json read by --check");
  if (const auto exit_code = parser.parse(argc, argv)) return *exit_code;

  try {
    if (check) return run_check(benchmark_json);
    for (const Workload& w : kWorkloads) {
      if (workload_name == w.name) return run_workload(w, seed, seconds, trace_path);
    }
    std::fprintf(stderr, "fleet_bench: unknown --workload '%s'\n", workload_name.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fleet_bench: %s\n", error.what());
    return 1;
  }
}
