#include "scenario/scenario_spec.h"

#include <cstdio>
#include <sstream>

namespace powerapi::scenario {

namespace {

std::string num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string num_list(const std::vector<double>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += num(values[i]);
  }
  return out;
}

const char* onoff(bool value) { return value ? "on" : "off"; }

void write_profile_args(std::ostringstream& out, const ProfileSpec& p) {
  out << p.kind << " intensity=" << num(p.intensity)
      << " working_set=" << num(p.working_set_bytes)
      << " share=" << num(p.memory_share);
}

}  // namespace

std::vector<std::string> ScenarioSpec::expanded_host_ids() const {
  std::vector<std::string> ids;
  for (const HostDecl& h : hosts) {
    if (h.count <= 1) {
      ids.push_back(h.id);
    } else {
      for (std::size_t i = 0; i < h.count; ++i) ids.push_back(h.id + std::to_string(i));
    }
  }
  return ids;
}

std::string serialize(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << "scenario " << spec.name << "\n";
  out << "seed " << spec.seed << "\n";
  out << "duration " << spec.duration << "\n";
  out << "tick " << spec.tick << "\n";

  for (const CpuDecl& cpu : spec.cpus) {
    if (cpu.preset != "custom") {
      out << "cpu " << cpu.id << " " << cpu.preset << "\n";
      continue;
    }
    out << "cpu " << cpu.id << " custom\n";
    out << "  cores " << cpu.cores << "\n";
    out << "  threads_per_core " << cpu.threads_per_core << "\n";
    out << "  tdp " << num(cpu.tdp_watts) << "\n";
    out << "  speedstep " << onoff(cpu.speedstep) << "\n";
    out << "  c_states " << onoff(cpu.c_states) << "\n";
    if (!cpu.ladder.empty()) out << "  ladder " << num_list(cpu.ladder) << "\n";
    for (const CpuDecl::Cluster& cl : cpu.clusters) {
      out << "  cluster name=" << cl.name << " cores=" << cl.cores
          << " ladder=" << num_list(cl.ladder) << " perf=" << num(cl.perf)
          << " energy=" << num(cl.energy) << "\n";
    }
    out << "end\n";
  }

  for (const WorkloadDecl& w : spec.workloads) {
    out << "workload " << w.id << "\n";
    out << "  kind " << w.kind << "\n";
    if (w.kind == "phased") {
      for (const PhaseSpec& phase : w.phases) {
        out << "  phase profile=" << phase.profile.kind
            << " intensity=" << num(phase.profile.intensity)
            << " working_set=" << num(phase.profile.working_set_bytes)
            << " share=" << num(phase.profile.memory_share)
            << " duration=" << phase.duration << "\n";
      }
      out << "  loop " << onoff(w.loop) << "\n";
    } else {
      out << "  profile ";
      write_profile_args(out, w.profile);
      out << "\n";
    }
    if (w.duration > 0) out << "  duration " << w.duration << "\n";
    if (w.jitter) out << "  jitter on\n";
    if (w.kind == "bursty") {
      out << "  mean_burst " << w.mean_burst << "\n";
      out << "  mean_gap " << w.mean_gap << "\n";
    }
    if (w.kind == "llm") {
      out << "  mean_interarrival " << w.mean_interarrival << "\n";
      out << "  mean_prefill " << w.mean_prefill << "\n";
      out << "  mean_decode " << w.mean_decode << "\n";
      out << "  working_set " << num(w.working_set_bytes) << "\n";
    }
    if (w.kind == "diurnal") {
      out << "  period " << w.period << "\n";
      out << "  valley " << num(w.valley) << "\n";
      out << "  peak " << num(w.peak) << "\n";
      out << "  flash_crowds " << onoff(w.flash_crowds) << "\n";
      out << "  spread_phase " << onoff(w.spread_phase) << "\n";
    }
    out << "end\n";
  }

  for (const HostDecl& h : spec.hosts) {
    out << "host " << h.id << "\n";
    if (h.count != 1) out << "  count " << h.count << "\n";
    out << "  cpu " << h.cpu << "\n";
    out << "  daemon " << onoff(h.daemon) << "\n";
    for (const RunDecl& r : h.runs) {
      out << "  run " << r.workload;
      if (r.copies != 1) out << " copies=" << r.copies;
      if (!r.name.empty() && r.name != r.workload) out << " name=" << r.name;
      out << "\n";
    }
    out << "end\n";
  }

  out << "monitor period=" << spec.monitor.period
      << " dimension=" << spec.monitor.dimension
      << " powerspy=" << onoff(spec.monitor.powerspy)
      << " rapl=" << onoff(spec.monitor.rapl)
      << " all=" << onoff(spec.monitor.all) << "\n";

  out << "formula " << spec.formula.mode;
  if (spec.formula.mode == "fixed") {
    out << " idle=" << num(spec.formula.idle_watts)
        << " coefficients=" << num_list(spec.formula.coefficients);
  } else if (spec.formula.mode == "trained") {
    out << " intensities=" << num_list(spec.formula.intensities);
    if (!spec.formula.memory_shares.empty()) {
      out << " memory_shares=" << num_list(spec.formula.memory_shares);
    }
    out << " point_duration=" << spec.formula.point_duration;
  }
  out << "\n";

  if (spec.calibration.enabled) {
    out << "calibration on drift_window=" << spec.calibration.drift_window
        << " threshold=" << num(spec.calibration.threshold_watts)
        << " min_samples=" << spec.calibration.min_samples
        << " refit_interval=" << spec.calibration.refit_interval << "\n";
  }

  if (spec.observe.enabled) {
    out << "observe cadence=" << spec.observe.cadence
        << " self_watts_budget=" << num(spec.observe.self_watts_budget) << "\n";
  }

  if (spec.govern.enabled) {
    out << "govern budget_w=" << num(spec.govern.budget_w)
        << " policy=" << spec.govern.policy
        << " hysteresis_w=" << num(spec.govern.hysteresis_w)
        << " cooldown_ms=" << num(spec.govern.cooldown_ms)
        << " interval_ms=" << num(spec.govern.interval_ms)
        << " max_step=" << spec.govern.max_step
        << " min_active_cores=" << spec.govern.min_active_cores << "\n";
  }

  out << "fleet aggregation=" << onoff(spec.fleet_reporter)
      << " workers=" << spec.workers << "\n";

  for (const InjectDecl& inj : spec.injections) {
    out << "inject at=" << inj.at << " host=" << inj.host;
    if (inj.kind == "frequency") {
      if (!inj.cluster.empty()) out << " cluster=" << inj.cluster;
      out << " frequency=" << num(inj.frequency_hz);
    } else if (inj.kind == "spawn") {
      out << " spawn=" << inj.workload << " name=" << inj.name;
    } else if (inj.kind == "kill") {
      out << " kill=" << inj.name;
    } else if (inj.kind == "shift") {
      out << " shift=" << inj.name << ":" << inj.workload;
    }
    out << "\n";
  }

  return out.str();
}

}  // namespace powerapi::scenario
