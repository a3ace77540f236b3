// distributed_fleet: the pipeline leaves the process — N agent processes
// each monitor one (simulated) machine and ship their aggregated rows over
// loopback TCP to a collector, where a BusBridge republishes them onto a
// local event bus and a FleetAggregator sums the fleet dimension exactly as
// an in-process FleetMonitor would.
//
// The punchline is the cross-check: after the distributed run, the same
// hosts are monitored again by an ordinary in-process FleetMonitor with the
// same seeds, and the two "(fleet)" power series must agree to 1e-6 W —
// the wire carries doubles bit-exactly, so distribution changes where the
// rows are summed, not what they sum to.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "model/trainer.h"
#include "net/bus_bridge.h"
#include "net/collector_server.h"
#include "net/collector_status.h"
#include "net/telemetry_client.h"
#include "obs/observability.h"
#include "obs/trace_merge.h"
#include "os/system.h"
#include "powerapi/fleet_monitor.h"
#include "powerapi/power_meter.h"
#include "util/arg_parser.h"
#include "util/logging.h"
#include "util/stats.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

using namespace powerapi;

namespace {

/// Deterministic heterogeneous host `i` — same recipe as the fleet_monitor
/// example, so agent process i and reference host i are identical.
std::unique_ptr<os::System> make_host(std::size_t i) {
  auto host = std::make_unique<os::System>(simcpu::i3_2120());
  util::Rng rng(2000 + static_cast<std::uint64_t>(i));
  switch (i % 3) {
    case 0:
      host->spawn("batch", std::make_unique<workloads::SteadyBehavior>(
                               workloads::cpu_stress(0.85), 0));
      break;
    case 1:
      host->spawn("web", std::make_unique<workloads::BurstyBehavior>(
                             workloads::mixed_stress(0.5, 8e6, 0.9),
                             util::ms_to_ns(60), util::ms_to_ns(120), 0, rng.fork(1)));
      break;
    default:
      host->spawn("cache", std::make_unique<workloads::SteadyBehavior>(
                               workloads::memory_stress(24e6), 0));
      break;
  }
  host->spawn("kdaemon", workloads::make_background_daemon(rng.fork(2)));
  return host;
}

api::PipelineSpec make_spec(const model::CpuPowerModel& power_model,
                            util::DurationNs period) {
  api::PipelineSpec spec;
  spec.model = power_model;
  spec.period = period;
  return spec;
}

/// One agent process: a standalone kManual PowerMeter over host `index`,
/// with a RemoteReporter shipping every aggregated row to the collector.
/// With obs_cadence_ms > 0 the agent also ships its own metrics snapshots
/// and trace spans, feeding the collector's merged Chrome trace.
int agent_main(std::size_t index, std::uint16_t port,
               const model::CpuPowerModel& power_model, util::DurationNs period,
               util::DurationNs duration, std::int64_t obs_cadence_ms) {
  obs::Observability obs;
  net::TelemetryClientOptions options;
  options.port = port;
  options.agent_id = "h" + std::to_string(index);
  options.obs = &obs;
  options.obs_interval_ms = obs_cadence_ms;  // 0 = PR-5-identical wire.
  net::TelemetryClient client(options);
  client.start();

  const auto host = make_host(index);
  api::PowerMeter meter(*host, {}, make_spec(power_model, period));
  meter.add_remote_reporter(client);

  // Advance in chunks so each agent records a handful of "agent/run" spans
  // bracketing real wall time — the payload of the merged trace. Chunks are
  // whole monitoring periods: run_for samples at its advance boundaries, so
  // a misaligned chunk would shift sampling points versus the in-process
  // reference and break the bit-exact cross-check.
  const auto run_span = obs.trace.intern("agent/run");
  const util::DurationNs chunk =
      period * std::max<util::DurationNs>(1, duration / 8 / period);
  util::DurationNs remaining = duration;
  std::uint64_t seq = 0;
  while (remaining > 0) {
    const util::DurationNs step = std::min(chunk, remaining);
    const std::int64_t start = obs::wall_now_ns();
    meter.run_for(step);
    obs.trace.complete(run_span, start, obs::wall_now_ns() - start, seq++);
    remaining -= step;
  }
  meter.finish();

  const bool flushed = client.flush(5000);
  client.stop();
  const auto stats = client.stats();
  std::printf("agent h%zu: sent %llu records in %llu frames (%llu bytes)%s\n",
              index, static_cast<unsigned long long>(stats.records_sent),
              static_cast<unsigned long long>(stats.frames_sent),
              static_cast<unsigned long long>(stats.bytes_sent),
              flushed ? "" : " [flush timed out]");
  return flushed && stats.records_dropped == 0 ? 0 : 1;
}

using SeriesKey = std::pair<std::string, util::TimestampNs>;

std::map<SeriesKey, double> fleet_series(const std::vector<api::AggregatedPower>& rows) {
  std::map<SeriesKey, double> series;
  for (const auto& row : rows) {
    if (row.group == "(fleet)") series[{row.formula, row.timestamp}] = row.watts;
  }
  return series;
}

}  // namespace

int main(int argc, char** argv) {
  util::configure_logging(argc, argv);

  std::int64_t agents = 3;
  std::int64_t duration_s = 10;
  std::int64_t period_ms = 250;
  std::int64_t obs_cadence_ms = 200;
  std::int64_t status_port = 0;
  std::string trace_path;
  util::ArgParser parser("distributed_fleet",
                         "Collector + N agent processes over loopback TCP, "
                         "cross-checked against an in-process FleetMonitor.");
  parser.add_int64("agents", &agents, "agent processes (monitored hosts)");
  parser.add_int64("duration", &duration_s, "monitored seconds per host");
  parser.add_int64("period-ms", &period_ms, "monitoring period in ms");
  parser.add_int64("obs-cadence-ms", &obs_cadence_ms,
                   "agents ship metrics snapshots + spans this often (0 = off)");
  parser.add_int64("status-port", &status_port,
                   "TCP status listener port (0 = no listener)");
  parser.add_string("trace", &trace_path,
                    "write the merged fleet Chrome trace (all agents + the "
                    "collector, clock-corrected) to this file");
  if (const auto exit_code = parser.parse(argc, argv)) return *exit_code;
  const auto hosts = static_cast<std::size_t>(agents);
  const util::DurationNs period = util::ms_to_ns(period_ms);
  const util::DurationNs duration = util::seconds_to_ns(duration_s);

  // One model serves the fleet; trained before the fork so every agent
  // inherits the identical model.
  const model::CpuPowerModel power_model = examples::train_quick_model();

  // --- Collector: server + bridge + fleet aggregation over the bridge ---
  actors::ActorSystem system;
  actors::EventBus bus(system);
  net::BusBridgeOptions bridge_options;
  bridge_options.per_agent_topics = false;  // Only the merged topic is consumed.
  net::BusBridge bridge(bus, bridge_options);
  obs::TraceMerger merger;
  net::CollectorStatusOptions status_options;
  status_options.merger = &merger;
  net::CollectorStatus status(bridge, status_options);
  net::CollectorServer server({}, status);
  if (!server.listening()) {
    std::fprintf(stderr, "collector: %s\n", server.error().c_str());
    return 1;
  }
  status.attach_server(&server);
  // The collector is its own trace source: it defines the merged timeline,
  // so its offset is zero by construction.
  const auto collector_src = merger.add_source("collector");
  merger.set_offset(collector_src, 0);
  std::unique_ptr<net::StatusListener> listener;
  if (status_port > 0) {
    listener = std::make_unique<net::StatusListener>(
        static_cast<std::uint16_t>(status_port),
        [&status](std::ostream& out, bool json) {
          json ? status.render_json(out) : status.render_text(out);
        });
    if (listener->listening()) {
      std::printf("status listener on 127.0.0.1:%u\n", listener->port());
    } else {
      std::fprintf(stderr, "status listener: %s\n", listener->error().c_str());
    }
  }
  std::printf("=== distributed_fleet: collector on 127.0.0.1:%u, %zu agents ===\n",
              server.port(), hosts);

  const auto fleet_topic = bus.intern("fleet/power:aggregated");
  auto host_count = std::make_shared<std::size_t>(hosts);
  const auto aggregator = system.spawn_as<api::FleetAggregator>(
      "collector/fleet-aggregator", bus, fleet_topic, host_count);
  bus.subscribe(bridge.aggregated_topic(), aggregator);
  auto owned = std::make_unique<api::MemoryReporter>();
  api::MemoryReporter& collected = *owned;
  bus.subscribe(fleet_topic, system.spawn("collector/reporter", std::move(owned)));

  // --- Fork the agents ---
  std::fflush(stdout);
  std::vector<pid_t> children;
  for (std::size_t i = 0; i < hosts; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      const int code = agent_main(i, server.port(), power_model, period, duration,
                                  obs_cadence_ms);
      std::fflush(stdout);
      ::_exit(code);
    }
    children.push_back(pid);
  }

  // --- Single-threaded collection loop: poll sockets, drain the bus ---
  int failures = 0;
  std::size_t live = children.size();
  std::uint64_t poll_seq = 0;
  while (live > 0 || server.connection_count() > 0) {
    const std::int64_t poll_start = obs::wall_now_ns();
    server.poll_once(20);
    const std::size_t processed = system.drain();
    // Only busy iterations become spans, so the merged trace shows when the
    // collector actually worked rather than a wall of idle polls.
    if (processed > 0) {
      merger.add_span(collector_src, "collector/drain", 0, poll_start,
                      obs::wall_now_ns() - poll_start, poll_seq++);
    }
    if (listener != nullptr) listener->poll_once(0);
    int wait_status = 0;
    const pid_t done = ::waitpid(-1, &wait_status, WNOHANG);
    if (done > 0) {
      --live;
      if (!WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) ++failures;
    }
  }
  server.poll_once(0);  // Final reads raced with the last disconnect.
  system.drain();
  system.stop(aggregator);  // Flush straggler buckets.
  system.drain();

  const auto stats = server.stats();
  std::printf("collector: %llu records in %llu frames from %llu connections "
              "(%llu decode errors, %llu snapshots, %llu span frames)\n",
              static_cast<unsigned long long>(stats.records_decoded),
              static_cast<unsigned long long>(stats.frames_decoded),
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.decode_errors),
              static_cast<unsigned long long>(stats.snapshots_decoded),
              static_cast<unsigned long long>(stats.spans_decoded));
  for (const auto& agent : status.agents()) {
    if (agent.snapshots == 0 && agent.spans == 0) continue;
    std::printf("  %-6s %llu snapshots, %llu spans, clock offset %+.3f ms, "
                "self %.3f W\n",
                agent.label.c_str(),
                static_cast<unsigned long long>(agent.snapshots),
                static_cast<unsigned long long>(agent.spans),
                agent.has_offset ? static_cast<double>(agent.clock_offset_ns) / 1e6
                                 : 0.0,
                agent.self_watts);
  }

  if (!trace_path.empty()) {
    std::ofstream trace_out(trace_path);
    if (!trace_out) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    merger.write_chrome_trace(trace_out);
    std::printf("merged trace: %zu spans -> %s (open in Perfetto / "
                "chrome://tracing)\n",
                merger.size(), trace_path.c_str());
  }

  // --- Reference: the same fleet, in one process ---
  std::vector<std::unique_ptr<os::System>> ref_hosts;
  for (std::size_t i = 0; i < hosts; ++i) ref_hosts.push_back(make_host(i));
  api::FleetMonitor::Options ref_options;
  ref_options.mode = actors::ActorSystem::Mode::kManual;
  api::FleetMonitor reference(ref_options);
  for (auto& host : ref_hosts) {
    reference.add_host(*host, make_spec(power_model, period));
  }
  api::MemoryReporter& expected = reference.add_fleet_reporter();
  reference.run_for(duration);
  reference.finish();

  // --- Cross-check ---
  const auto got = fleet_series(collected.all());
  const auto want = fleet_series(expected.all());
  double worst = 0.0;
  std::size_t missing = 0;
  for (const auto& [key, watts] : want) {
    const auto it = got.find(key);
    if (it == got.end()) {
      ++missing;
      continue;
    }
    worst = std::max(worst, std::fabs(it->second - watts));
  }
  std::printf("cross-check: %zu fleet rows expected, %zu collected, "
              "%zu missing, worst |Δ| = %.3g W\n",
              want.size(), got.size(), missing, worst);

  const bool ok = failures == 0 && missing == 0 && !want.empty() &&
                  got.size() == want.size() && worst <= 1e-6;
  std::printf("%s\n", ok ? "MATCH: distributed == in-process (<= 1e-6 W)"
                         : "MISMATCH between distributed and in-process runs");
  return ok ? 0 : 1;
}
