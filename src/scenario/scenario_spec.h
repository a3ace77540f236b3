// The declarative scenario layer: a whole monitored deployment — machines,
// their CPUs (including heterogeneous big.LITTLE parts), the workload mix,
// the monitoring pipeline configuration and timed fault injections — as one
// validated value type.
//
// A ScenarioSpec is produced by ScenarioParser from a line-oriented text
// file (see DESIGN.md §"Scenario layer" for the grammar) and consumed by
// ScenarioRunner, which lowers it onto PipelineSpec/FleetMonitor. The spec
// is a plain value: comparable (operator==) and serializable (serialize()),
// so `parse(serialize(spec)) == spec` round-trips exactly — the property
// scripts/check_scenarios.py enforces for every committed scenario.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.h"

namespace powerapi::scenario {

/// One execution-profile reference: a stress-factory kind plus parameters.
struct ProfileSpec {
  /// "cpu", "memory", "mixed", "branchy" or "idle".
  std::string kind = "cpu";
  double intensity = 1.0;
  double working_set_bytes = 8.0 * 1024 * 1024;  ///< memory/mixed kinds.
  double memory_share = 0.5;                     ///< mixed kind only.

  bool operator==(const ProfileSpec&) const = default;
};

/// One stage of a phased workload.
struct PhaseSpec {
  ProfileSpec profile;
  util::DurationNs duration = 0;

  bool operator==(const PhaseSpec&) const = default;
};

/// A CPU declaration: either a named preset or a custom (possibly
/// clustered) part.
struct CpuDecl {
  std::string id;
  /// "i3_2120", "i3_2120_no_smt", "i7_2600", "quad_core", "big_little" or
  /// "custom" (then the remaining fields describe the part).
  std::string preset = "i3_2120";

  // --- custom parts only ---
  std::size_t cores = 0;
  std::size_t threads_per_core = 1;
  double tdp_watts = 65.0;
  bool speedstep = true;
  bool c_states = true;
  /// DVFS ladder (Hz, ascending) for non-clustered custom parts. Clustered
  /// parts take the primary (first) cluster's ladder instead.
  std::vector<double> ladder;

  struct Cluster {
    std::string name;
    std::size_t cores = 0;
    std::vector<double> ladder;  ///< Hz, ascending.
    double perf = 1.0;
    double energy = 1.0;

    bool operator==(const Cluster&) const = default;
  };
  std::vector<Cluster> clusters;

  bool operator==(const CpuDecl&) const = default;
};

/// A reusable workload declaration, instantiated per host by `run` lines.
struct WorkloadDecl {
  std::string id;
  /// "steady", "bursty", "phased", "llm" or "diurnal".
  std::string kind = "steady";
  ProfileSpec profile;           ///< steady/bursty/diurnal peak profile.
  std::vector<PhaseSpec> phases; ///< phased kind: ordered stages.
  bool loop = true;              ///< phased kind: repeat forever.
  util::DurationNs duration = 0; ///< Per-instance bound; 0 = unbounded.
  bool jitter = false;           ///< Wrap in JitterBehavior (seeded).

  // bursty kind:
  util::DurationNs mean_burst = util::ms_to_ns(60);
  util::DurationNs mean_gap = util::ms_to_ns(120);

  // llm kind:
  util::DurationNs mean_interarrival = util::ms_to_ns(400);
  util::DurationNs mean_prefill = util::ms_to_ns(60);
  util::DurationNs mean_decode = util::ms_to_ns(250);
  double working_set_bytes = 48.0 * 1024 * 1024;

  // diurnal kind:
  util::DurationNs period = util::seconds_to_ns(120);
  double valley = 0.15;
  double peak = 0.95;
  bool flash_crowds = true;
  /// Rotate each instance's day by instance_index/instances of a period so
  /// one declaration spreads a fleet-wide traffic wave.
  bool spread_phase = true;

  bool operator==(const WorkloadDecl&) const = default;
};

/// One `run` line inside a host: instantiate a workload N times.
struct RunDecl {
  std::string workload;   ///< WorkloadDecl id.
  std::size_t copies = 1;
  std::string name;       ///< Process name; defaults to the workload id.

  bool operator==(const RunDecl&) const = default;
};

/// A host (or, with count > 1, a group of identical hosts "id0".."idN-1").
struct HostDecl {
  std::string id;
  std::size_t count = 1;
  std::string cpu;        ///< CpuDecl id.
  bool daemon = true;     ///< Spawn the background OS daemon.
  std::vector<RunDecl> runs;

  bool operator==(const HostDecl&) const = default;
};

/// Monitoring pipeline configuration shared by every host.
struct MonitorSpec {
  util::DurationNs period = util::ms_to_ns(250);
  bool powerspy = true;
  bool rapl = false;
  /// "timestamp", "pid" or "group".
  std::string dimension = "timestamp";
  bool all = true;  ///< monitor_all vs machine scope only.

  bool operator==(const MonitorSpec&) const = default;
};

/// How the per-host regression model is obtained.
struct FormulaSpec {
  /// "none"    — no powerapi-hpc series;
  /// "fixed"   — idle + per-event coefficients, scaled per DVFS point by
  ///             hz/hz_max (instant, fully deterministic — golden tests);
  /// "trained" — run the Figure 1 Trainer per distinct CPU declaration.
  std::string mode = "none";
  double idle_watts = 0.0;             ///< fixed mode.
  std::vector<double> coefficients;    ///< fixed mode; paper-event order.
  std::vector<double> intensities{0.5, 1.0};  ///< trained: grid duty cycles.
  std::vector<double> memory_shares;   ///< trained: grid blend; empty = default.
  util::DurationNs point_duration = util::seconds_to_ns(1);  ///< trained.

  bool operator==(const FormulaSpec&) const = default;
};

/// Online calibration (drift-triggered refit + registry hot swap).
struct CalibrationSpec {
  bool enabled = false;
  std::size_t drift_window = 12;
  double threshold_watts = 2.0;
  std::size_t min_samples = 24;
  util::DurationNs refit_interval = util::seconds_to_ns(5);

  bool operator==(const CalibrationSpec&) const = default;
};

/// Observability plane: runtime metrics/trace collection plus the fleet
/// watchdog ("observe" directive; presence enables it).
struct ObserveSpec {
  bool enabled = false;
  /// Watchdog evaluation cadence (also the run-loop chunking grain).
  util::DurationNs cadence = util::seconds_to_ns(1);
  /// Fleet self-monitoring watts budget for the watchdog (0 = rule off).
  double self_watts_budget = 0.0;

  bool operator==(const ObserveSpec&) const = default;
};

/// The closed-loop power governor ("govern" directive; presence enables).
struct GovernSpec {
  bool enabled = false;
  double budget_w = 0.0;       ///< Fleet watt cap (required, > 0).
  std::string policy = "pace"; ///< "pace" (DVFS first) or "race" (park first).
  double hysteresis_w = 2.0;   ///< Dead band around each host's share.
  double cooldown_ms = 1000.0; ///< Up-step cooldown after any actuation.
  double interval_ms = 500.0;  ///< Decision cadence.
  std::uint64_t max_step = 1;  ///< Max rungs per proportional down-step.
  std::uint64_t min_active_cores = 1;  ///< Parking floor per host.

  bool operator==(const GovernSpec&) const = default;
};

/// A timed fault/control injection.
struct InjectDecl {
  util::TimestampNs at = 0;
  std::string host;       ///< Expanded host id, or "all".
  /// "frequency" — pin the package DVFS set point (or, with `cluster` set,
  ///               that one cluster's domain on a big.LITTLE part);
  /// "spawn"     — start `workload` as a process called `name`;
  /// "kill"      — kill every process called `name`;
  /// "shift"     — kill `name` then respawn it running `workload`.
  std::string kind;
  std::string cluster;    ///< frequency kind: cluster name; empty = package.
  double frequency_hz = 0.0;
  std::string workload;
  std::string name;

  bool operator==(const InjectDecl&) const = default;
};

/// The whole scenario.
struct ScenarioSpec {
  std::string name;
  std::uint64_t seed = 42;
  util::DurationNs duration = util::seconds_to_ns(10);
  util::DurationNs tick = util::ms_to_ns(1);  ///< OS scheduler quantum.

  std::vector<CpuDecl> cpus;
  std::vector<WorkloadDecl> workloads;
  std::vector<HostDecl> hosts;
  MonitorSpec monitor;
  FormulaSpec formula;
  CalibrationSpec calibration;
  ObserveSpec observe;
  GovernSpec govern;

  /// `fleet aggregation=on|off`: whether the runner attaches a fleet
  /// reporter, which fills RunResult::fleet.
  bool fleet_reporter = true;
  /// Threaded dispatch only: slice threads beside the caller, capped at
  /// the CPU count (FleetMonitor::Options::workers).
  std::size_t workers = 4;

  std::vector<InjectDecl> injections;

  bool operator==(const ScenarioSpec&) const = default;

  /// Expanded host ids in declaration order ("web" count=3 → web0 web1
  /// web2; count=1 keeps the bare id).
  std::vector<std::string> expanded_host_ids() const;
};

/// Canonical text form; parse(serialize(spec)) == spec. Numeric fields are
/// emitted in base units (ns, Hz, bytes) with %.17g so doubles survive the
/// round trip bit-exactly.
std::string serialize(const ScenarioSpec& spec);

}  // namespace powerapi::scenario
