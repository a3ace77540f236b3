// observability: the monitor watching itself.
//
// Runs a single-host PowerMeter with the self-observability bundle
// attached: every pipeline stage records spans and throughput counters,
// and the SelfMonitor converts the monitor's own CPU share into watts — the
// energy spent measuring energy. The run emits:
//
//   - periodic metrics snapshots on stdout (MetricsReporter, text format),
//   - a final registry dump with percentiles,
//   - the self-overhead ledger (CPU share, estimated watts, joules),
//   - powerapi.trace.json — open it in Perfetto (https://ui.perfetto.dev)
//     or chrome://tracing to see the tick → sensor → formula → aggregator
//     message flow, correlated by tick sequence id.
//
//   $ ./observability [--log-level=info]
#include <cstdio>
#include <fstream>
#include <iostream>

#include "common.h"
#include "model/trainer.h"
#include "obs/observability.h"
#include "os/system.h"
#include "powerapi/power_meter.h"
#include "util/arg_parser.h"
#include "util/logging.h"
#include "util/stats.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

using namespace powerapi;

int main(int argc, char** argv) {
  util::configure_logging(argc, argv);
  std::int64_t duration_s = 10;
  std::int64_t period_ms = 100;
  util::ArgParser parser("observability",
                         "Run a monitored workload with the self-observability "
                         "bundle: metrics snapshots, self-overhead, a trace.");
  parser.add_int64("duration", &duration_s, "simulated seconds to monitor");
  parser.add_int64("period-ms", &period_ms, "monitoring period in ms");
  if (const auto exit_code = parser.parse(argc, argv)) return *exit_code;
  std::printf("=== observability: the monitor watching itself ===\n");

  const model::CpuPowerModel power_model = examples::train_quick_model();

  os::System system(simcpu::i3_2120());
  util::Rng rng(31);
  system.spawn("kdaemon", workloads::make_background_daemon(rng.fork(1)));
  system.spawn("app", std::make_unique<workloads::SteadyBehavior>(
                          workloads::mixed_stress(0.6, 16e6, 0.85), 0));

  // The bundle is owned by the caller and must outlive the meter: the actor
  // system and bus unregister their collectors from it on shutdown.
  obs::Observability obs;

  api::PowerMeter::Config config;
  config.period = util::ms_to_ns(period_ms);
  config.observability = &obs;
  api::PowerMeter meter(system, power_model, config);
  meter.add_metrics_reporter(std::cout, api::MetricsReporter::Format::kText,
                             /*every_n_ticks=*/50);
  auto& memory = meter.add_memory_reporter();
  meter.monitor_all();
  meter.run_for(util::seconds_to_ns(duration_s));
  meter.finish();

  const auto estimated = api::MemoryReporter::watts_of(memory.series("powerapi-hpc"));
  std::printf("\nestimated machine power: %.2f W mean over %zu samples\n",
              util::mean(estimated), estimated.size());

  // The energy spent measuring energy. Cumulative fields, not the last
  // window: every metrics snapshot samples (and thus resets) the window.
  const obs::SelfMonitor::Usage usage = obs.self.sample();
  const double wall_s = static_cast<double>(obs::wall_now_ns()) / 1e9;
  std::printf("\n--- self-overhead ---\n");
  std::printf("monitor cpu time : %.3f s over %.3f s of wall time\n",
              usage.total_cpu_seconds, wall_s);
  std::printf("cpu share        : %.4f cores\n", usage.total_cpu_seconds / wall_s);
  std::printf("estimated energy : %.3f J (at %.1f W/core)\n", usage.total_joules,
              obs.self.watts_per_core());

  std::ofstream trace("powerapi.trace.json");
  obs.trace.write_chrome_trace(trace);
  std::printf("\nwrote powerapi.trace.json (%zu events) — open in Perfetto\n",
              obs.trace.size());
  return 0;
}
