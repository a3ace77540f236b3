#include "scenario/scenario_runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "governor/governor.h"
#include "hpc/events.h"
#include "model/trainer.h"
#include "net/watchdog.h"
#include "os/system.h"
#include "powerapi/fleet_monitor.h"
#include "util/rng.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"
#include "workloads/zoo.h"

namespace powerapi::scenario {

namespace {

simcpu::CpuSpec resolve_cpu(const CpuDecl& decl) {
  if (decl.preset == "i3_2120") return simcpu::i3_2120();
  if (decl.preset == "i3_2120_no_smt") return simcpu::i3_2120_no_smt();
  if (decl.preset == "i7_2600") return simcpu::i7_2600();
  if (decl.preset == "quad_core") return simcpu::quad_core();
  if (decl.preset == "big_little") return simcpu::big_little();
  // Custom part.
  simcpu::CpuSpec spec;
  spec.vendor = "Scenario";
  spec.model = decl.id;
  spec.cores = decl.cores;
  spec.threads_per_core = decl.threads_per_core;
  spec.tdp_watts = decl.tdp_watts;
  spec.speedstep = decl.speedstep;
  spec.c_states = decl.c_states;
  spec.turbo_boost = false;
  if (!decl.clusters.empty()) {
    for (const CpuDecl::Cluster& cl : decl.clusters) {
      simcpu::CoreClusterSpec cluster;
      cluster.name = cl.name;
      cluster.cores = cl.cores;
      cluster.frequencies_hz = cl.ladder;
      cluster.perf_scale = cl.perf;
      cluster.energy_scale = cl.energy;
      spec.clusters.push_back(std::move(cluster));
    }
    spec.frequencies_hz = spec.clusters.front().frequencies_hz;
  } else {
    spec.frequencies_hz = decl.ladder;
  }
  spec.caches = {
      {"L1d", 32 * 1024, false, 4},
      {"L2", 256 * 1024, false, 12},
      {"L3", 4 * 1024 * 1024, true, 30},
  };
  try {
    spec.validate();
  } catch (const std::exception& e) {
    throw std::runtime_error("scenario cpu '" + decl.id + "': " + e.what());
  }
  return spec;
}

simcpu::ExecProfile resolve_profile(const ProfileSpec& p) {
  if (p.kind == "cpu") return workloads::cpu_stress(p.intensity);
  if (p.kind == "memory") return workloads::memory_stress(p.working_set_bytes, p.intensity);
  if (p.kind == "mixed") {
    return workloads::mixed_stress(p.memory_share, p.working_set_bytes, p.intensity);
  }
  if (p.kind == "branchy") return workloads::branchy_stress(p.intensity);
  return workloads::idle_profile();
}

/// Builds one behavior instance. `instance`/`instances` index this copy
/// among every instance of the declaration scenario-wide (diurnal phase
/// spreading); `rng` is already forked uniquely for this instance.
std::unique_ptr<os::TaskBehavior> make_behavior(const WorkloadDecl& w, util::Rng rng,
                                                std::size_t instance,
                                                std::size_t instances) {
  std::unique_ptr<os::TaskBehavior> behavior;
  if (w.kind == "steady") {
    behavior = std::make_unique<workloads::SteadyBehavior>(resolve_profile(w.profile),
                                                           w.duration);
  } else if (w.kind == "bursty") {
    behavior = std::make_unique<workloads::BurstyBehavior>(
        resolve_profile(w.profile), w.mean_burst, w.mean_gap, w.duration, rng.fork(1));
  } else if (w.kind == "phased") {
    std::vector<workloads::Phase> phases;
    for (const PhaseSpec& phase : w.phases) {
      phases.push_back({resolve_profile(phase.profile), phase.duration});
    }
    behavior = std::make_unique<workloads::PhasedBehavior>(std::move(phases), w.loop);
  } else if (w.kind == "llm") {
    workloads::LlmInferenceBehavior::Options options;
    options.mean_interarrival = w.mean_interarrival;
    options.mean_prefill = w.mean_prefill;
    options.mean_decode = w.mean_decode;
    options.working_set_bytes = w.working_set_bytes;
    options.duration = w.duration;
    behavior = workloads::make_llm_inference(options, rng.fork(1));
  } else if (w.kind == "diurnal") {
    workloads::DiurnalBehavior::Options options;
    options.peak_profile = resolve_profile(w.profile);
    options.period = w.period;
    options.valley_load = w.valley;
    options.peak_load = w.peak;
    if (!w.flash_crowds) options.mean_flash_interarrival = 0;
    if (w.spread_phase && instances > 1) {
      options.phase_offset = static_cast<util::DurationNs>(
          static_cast<double>(w.period) * static_cast<double>(instance) /
          static_cast<double>(instances));
    }
    options.duration = w.duration;
    behavior = workloads::make_diurnal(options, rng.fork(1));
  } else {
    throw std::runtime_error("scenario workload '" + w.id + "': unknown kind '" + w.kind +
                             "'");
  }
  if (w.jitter) {
    behavior = std::make_unique<workloads::JitterBehavior>(std::move(behavior), rng.fork(2));
  }
  return behavior;
}

model::CpuPowerModel fixed_model(const FormulaSpec& formula, const simcpu::CpuSpec& cpu) {
  std::vector<model::FrequencyFormula> formulas;
  const double hz_max = cpu.max_frequency_hz();
  for (const double hz : cpu.frequencies_hz) {
    model::FrequencyFormula f;
    f.frequency_hz = hz;
    f.events.assign(hpc::paper_events().begin(), hpc::paper_events().end());
    const double scale = hz / hz_max;
    for (const double c : formula.coefficients) f.coefficients.push_back(c * scale);
    formulas.push_back(std::move(f));
  }
  return model::CpuPowerModel(formula.idle_watts, std::move(formulas));
}

model::CpuPowerModel trained_model(const FormulaSpec& formula, const simcpu::CpuSpec& cpu,
                                   std::uint64_t seed) {
  model::TrainerOptions options;
  options.grid.intensities = formula.intensities;
  if (!formula.memory_shares.empty()) options.grid.memory_shares = formula.memory_shares;
  options.point_duration = formula.point_duration;
  options.seed = seed;
  model::Trainer trainer(cpu, simcpu::GroundTruthParams{}, options);
  return trainer.train().model;
}

api::AggregationDimension resolve_dimension(const std::string& name) {
  if (name == "pid") return api::AggregationDimension::kPid;
  if (name == "group") return api::AggregationDimension::kGroup;
  return api::AggregationDimension::kTimestamp;
}

std::string hex_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

}  // namespace

void write_csv(std::ostream& out, const RunResult& result) {
  out << "host,formula,timestamp,pid,group,watts\n";
  for (const HostSeries& host : result.hosts) {
    for (const api::AggregatedPower& row : host.rows) {
      out << host.id << ',' << row.formula << ',' << row.timestamp << ',' << row.pid
          << ',' << row.group << ',' << hex_double(row.watts) << '\n';
    }
  }
  for (const api::AggregatedPower& row : result.fleet) {
    out << "(fleet)," << row.formula << ',' << row.timestamp << ',' << row.pid << ','
        << row.group << ',' << hex_double(row.watts) << '\n';
  }
}

/// Everything the run owns; hidden so the header stays light.
struct ScenarioRunner::Impl {
  struct Host {
    std::string id;
    const HostDecl* decl = nullptr;
    std::unique_ptr<os::System> system;
    /// Process name → live pids, for kill/shift injections.
    std::multimap<std::string, os::Pid> named_pids;
    util::Rng rng{0};
    std::size_t spawn_counter = 0;
  };
  std::vector<Host> hosts;
  bool ran = false;
};

ScenarioRunner::ScenarioRunner(ScenarioSpec spec)
    : spec_(std::move(spec)), impl_(std::make_unique<Impl>()) {}

ScenarioRunner::~ScenarioRunner() = default;

RunResult ScenarioRunner::run(const RunOptions& options) {
  if (impl_->ran) throw std::logic_error("ScenarioRunner: one run per runner");
  impl_->ran = true;

  // --- Resolve CPUs and models (one per distinct cpu declaration) ---
  std::map<std::string, simcpu::CpuSpec> cpu_specs;
  std::map<std::string, model::CpuPowerModel> cpu_models;
  for (const CpuDecl& decl : spec_.cpus) cpu_specs.emplace(decl.id, resolve_cpu(decl));
  for (const auto& [id, cpu] : cpu_specs) {
    if (spec_.formula.mode == "fixed") {
      cpu_models.emplace(id, fixed_model(spec_.formula, cpu));
    } else if (spec_.formula.mode == "trained") {
      cpu_models.emplace(id, trained_model(spec_.formula, cpu, spec_.seed));
    }
  }

  // --- Count instances per workload (diurnal phase spreading) ---
  std::map<std::string, std::size_t> workload_instances;
  for (const HostDecl& h : spec_.hosts) {
    for (const RunDecl& r : h.runs) workload_instances[r.workload] += h.count * r.copies;
  }
  std::map<std::string, const WorkloadDecl*> workloads_by_id;
  for (const WorkloadDecl& w : spec_.workloads) workloads_by_id.emplace(w.id, &w);
  std::map<std::string, std::size_t> next_instance;

  // --- Build hosts ---
  const util::Rng base_rng(spec_.seed);
  std::size_t host_index = 0;
  for (const HostDecl& decl : spec_.hosts) {
    for (std::size_t copy = 0; copy < decl.count; ++copy, ++host_index) {
      Impl::Host host;
      host.id = decl.count <= 1 ? decl.id : decl.id + std::to_string(copy);
      host.decl = &decl;
      host.rng = base_rng.fork(1000 + host_index);
      os::System::Options sys_options;
      sys_options.tick_ns = spec_.tick;
      host.system = std::make_unique<os::System>(cpu_specs.at(decl.cpu),
                                                 std::move(sys_options));
      if (decl.daemon) {
        host.system->spawn("kdaemon", workloads::make_background_daemon(host.rng.fork(0)));
      }
      for (const RunDecl& r : decl.runs) {
        const WorkloadDecl& w = *workloads_by_id.at(r.workload);
        for (std::size_t i = 0; i < r.copies; ++i) {
          const std::size_t instance = next_instance[r.workload]++;
          auto behavior = make_behavior(w, host.rng.fork(10 + host.spawn_counter++),
                                        instance, workload_instances[r.workload]);
          const os::Pid pid = host.system->spawn(r.name, std::move(behavior));
          host.named_pids.emplace(r.name, pid);
        }
      }
      impl_->hosts.push_back(std::move(host));
    }
  }

  // --- Wire the fleet ---
  // Declared before the fleet, which must not outlive them: the fleet's
  // pipelines report to the governor until the fleet is destroyed.
  std::optional<governor::Governor> gov;
  std::unique_ptr<obs::Observability> observability;
  if (spec_.observe.enabled) observability = std::make_unique<obs::Observability>();
  api::FleetMonitor::Options fleet_options;
  fleet_options.mode = options.mode;
  fleet_options.workers = spec_.workers;
  fleet_options.observability = observability.get();
  api::FleetMonitor fleet(fleet_options);

  std::atomic<std::size_t> swaps{0};
  std::vector<api::MemoryReporter*> reporters;
  for (Impl::Host& host : impl_->hosts) {
    api::PipelineSpec pipeline;
    pipeline.period = spec_.monitor.period;
    pipeline.with_powerspy = spec_.monitor.powerspy;
    pipeline.with_rapl = spec_.monitor.rapl;
    pipeline.dimension = resolve_dimension(spec_.monitor.dimension);
    pipeline.seed = spec_.seed;
    const auto model_it = cpu_models.find(host.decl->cpu);
    if (model_it != cpu_models.end()) pipeline.model = model_it->second;
    if (spec_.calibration.enabled) {
      pipeline.with_calibration = true;
      pipeline.calibration.drift_window = spec_.calibration.drift_window;
      pipeline.calibration.drift_threshold_watts = spec_.calibration.threshold_watts;
      pipeline.calibration.min_samples_per_fit = spec_.calibration.min_samples;
      pipeline.calibration.min_refit_interval = spec_.calibration.refit_interval;
    }
    const std::size_t index = fleet.add_host(*host.system, std::move(pipeline));
    reporters.push_back(&fleet.add_memory_reporter(index));
    if (spec_.monitor.all) {
      fleet.monitor_all(index);
    } else {
      fleet.monitor(index, {});
    }
    if (spec_.calibration.enabled) {
      fleet.pipeline(index).add_model_update_callback(
          [&swaps](const api::ModelUpdated&) { swaps.fetch_add(1); });
    }
  }
  api::MemoryReporter* fleet_reporter =
      spec_.fleet_reporter ? &fleet.add_fleet_reporter() : nullptr;

  // --- Observability plane (observe directive) ---
  // In-process there is no collector, so the watchdog's sample synthesizes a
  // single "fleet" agent from the monitor's own metrics: trace drops feed
  // the drop-spike rule and the self-monitor gauge feeds the watts budget.
  // last_activity_wall_ns stays 0, which disables the staleness rule (it
  // only makes sense for remote agents).
  std::optional<net::Watchdog> watchdog;
  if (spec_.observe.enabled) {
    net::WatchdogOptions watchdog_options;
    watchdog_options.self_watts_budget = spec_.observe.self_watts_budget;
    watchdog_options.obs = fleet.observability();
    watchdog.emplace(watchdog_options);
  }
  const bool governing = spec_.govern.enabled;
  auto watchdog_sample = [obs = observability.get(), governing] {
    net::WatchdogSample sample;
    const obs::MetricsSnapshot snapshot = obs->metrics.snapshot();
    sample.fleet_self_watts = snapshot.value_of("self.watts");
    if (governing) {
      // The governor's gauges feed the budget-violation rule.
      sample.fleet_power_watts = snapshot.value_of("governor.fleet_watts");
      sample.power_budget_watts = snapshot.value_of("governor.budget_watts");
    }
    net::WatchdogSample::Agent agent;
    agent.label = "fleet";
    agent.connected = true;
    agent.records_dropped =
        static_cast<std::uint64_t>(snapshot.value_of("obs.trace.spans_dropped"));
    sample.agents.push_back(std::move(agent));
    return sample;
  };

  // --- Power governor (govern directive) ---
  // One Governor holds the fleet watt budget; each host's pipeline hands it
  // that host's aggregated rows through a callback reporter. Decisions are
  // made between run chunks (see advance below), so both modes yield the
  // same decisions.
  if (governing) {
    governor::GovernorOptions gov_options;
    gov_options.budget_watts = spec_.govern.budget_w;
    gov_options.policy = spec_.govern.policy == "race"
                             ? governor::Policy::kRaceToIdle
                             : governor::Policy::kPaceToDeadline;
    gov_options.hysteresis_watts = spec_.govern.hysteresis_w;
    gov_options.cooldown_ns =
        static_cast<util::DurationNs>(spec_.govern.cooldown_ms * 1e6);
    gov_options.max_step = spec_.govern.max_step;
    gov_options.min_active_cores = spec_.govern.min_active_cores;
    gov_options.obs = fleet.observability();
    std::vector<governor::HostControl> controls;
    for (Impl::Host& host : impl_->hosts) {
      controls.push_back(governor::control_for(host.id, *host.system));
    }
    governor::Governor& g = gov.emplace(std::move(gov_options), std::move(controls));
    for (std::size_t i = 0; i < impl_->hosts.size(); ++i) {
      fleet.pipeline(i).add_callback_reporter(
          [&g, i](const api::AggregatedPower& row) { g.observe(i, row); });
    }
  }

  // --- Simulate, pausing at injection times ---
  util::DurationNs duration = spec_.duration;
  if (options.max_duration > 0) duration = std::min(duration, options.max_duration);

  std::vector<const InjectDecl*> injections;
  for (const InjectDecl& inj : spec_.injections) {
    if (inj.at <= duration) injections.push_back(&inj);
  }
  std::stable_sort(injections.begin(), injections.end(),
                   [](const InjectDecl* a, const InjectDecl* b) { return a->at < b->at; });

  auto apply = [&](const InjectDecl& inj) {
    for (Impl::Host& host : impl_->hosts) {
      if (inj.host != "all" && inj.host != host.id) continue;
      if (inj.kind == "frequency") {
        if (inj.cluster.empty()) {
          host.system->pin_frequency(inj.frequency_hz);
        } else {
          // Validated cross-ref: the cluster name exists on this host's CPU.
          const simcpu::CpuSpec& cpu = cpu_specs.at(host.decl->cpu);
          for (std::size_t c = 0; c < cpu.clusters.size(); ++c) {
            if (cpu.clusters[c].name == inj.cluster) {
              host.system->pin_cluster_frequency(c, inj.frequency_hz);
              break;
            }
          }
        }
        continue;
      }
      if (inj.kind == "kill" || inj.kind == "shift") {
        const auto [begin, end] = host.named_pids.equal_range(inj.name);
        for (auto it = begin; it != end; ++it) host.system->kill(it->second);
        host.named_pids.erase(begin, end);
      }
      if (inj.kind == "spawn" || inj.kind == "shift") {
        const WorkloadDecl& w = *workloads_by_id.at(inj.workload);
        auto behavior = make_behavior(w, host.rng.fork(10 + host.spawn_counter++),
                                      /*instance=*/0, /*instances=*/1);
        const os::Pid pid = host.system->spawn(inj.name, std::move(behavior));
        host.named_pids.emplace(inj.name, pid);
      }
    }
  };

  // The run advances on event boundaries: each enabled control plane (the
  // watchdog at the observe cadence, the governor at its decision interval)
  // keeps a persistent next-fire timestamp, and every chunk runs the fleet
  // exactly to the nearest boundary and then calls the due planes —
  // governor first, so the watchdog's sample reads fresh fleet gauges. The
  // timestamps persist across advance() calls, so injection pauses never
  // shift the control-plane phase.
  util::TimestampNs now = 0;
  constexpr util::TimestampNs kNever = std::numeric_limits<util::TimestampNs>::max();
  const util::DurationNs governor_interval =
      static_cast<util::DurationNs>(spec_.govern.interval_ms * 1e6);
  util::TimestampNs next_watchdog =
      (watchdog && spec_.observe.cadence > 0) ? spec_.observe.cadence : kNever;
  util::TimestampNs next_governor =
      (gov && governor_interval > 0) ? governor_interval : kNever;
  auto advance = [&](util::DurationNs amount) {
    const util::TimestampNs until = now + amount;
    while (now < until) {
      const util::TimestampNs stop =
          std::min(until, std::min(next_watchdog, next_governor));
      fleet.run_for(stop - now);
      now = stop;
      if (now >= next_governor) {
        gov->decide(now);
        next_governor += governor_interval;
      }
      if (now >= next_watchdog) {
        watchdog->check(now, watchdog_sample());
        next_watchdog += spec_.observe.cadence;
      }
    }
  };

  std::size_t next = 0;
  while (next < injections.size()) {
    const util::TimestampNs at = injections[next]->at;
    if (at > now) advance(at - now);
    while (next < injections.size() && injections[next]->at == at) {
      apply(*injections[next]);
      ++next;
    }
  }
  if (duration > now) advance(duration - now);
  fleet.finish();

  // --- Collect ---
  RunResult result;
  for (std::size_t i = 0; i < impl_->hosts.size(); ++i) {
    result.hosts.push_back({impl_->hosts[i].id, reporters[i]->all()});
  }
  if (fleet_reporter) result.fleet = fleet_reporter->all();
  result.model_swaps = swaps.load();
  if (fleet.observability() != nullptr) {
    result.metrics = fleet.observability()->metrics.snapshot();
  }
  if (watchdog) result.watchdog_alerts = watchdog->alerts_raised();
  if (gov) result.governor_actuations = gov->actuation_count();
  return result;
}

}  // namespace powerapi::scenario
