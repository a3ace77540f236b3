#include "scenario/scenario_parser.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "util/string_util.h"

namespace powerapi::scenario {

namespace {

/// One logical line: content with comments stripped, plus its 1-based
/// number in the source file.
struct Line {
  std::string text;
  std::size_t number = 0;
};

std::vector<Line> split_lines(std::string_view text) {
  std::vector<Line> lines;
  std::size_t number = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view raw = text.substr(start, end - start);
    ++number;
    const std::size_t hash = raw.find('#');
    if (hash != std::string_view::npos) raw = raw.substr(0, hash);
    raw = util::trim(raw);
    if (!raw.empty()) lines.push_back({std::string(raw), number});
    if (end == text.size()) break;
    start = end + 1;
  }
  return lines;
}

/// "word rest-of-line" split on the first whitespace run.
std::pair<std::string, std::string> split_head(const std::string& line) {
  const std::size_t space = line.find_first_of(" \t");
  if (space == std::string::npos) return {line, ""};
  return {line.substr(0, space), std::string(util::trim(line.substr(space + 1)))};
}

class Parser {
 public:
  Parser(std::string_view text, std::string filename)
      : file_(std::move(filename)), lines_(split_lines(text)) {}

  ScenarioSpec run() {
    if (lines_.empty()) fail(1, "empty scenario (expected 'scenario <name>')");
    parse_scenario_header();
    while (index_ < lines_.size()) parse_top_level();
    validate();
    return std::move(spec_);
  }

 private:
  [[noreturn]] void fail(std::size_t line, const std::string& message) const {
    throw ScenarioError(file_, line, message);
  }

  const Line& current() const { return lines_[index_]; }

  // --- value parsers -----------------------------------------------------

  double parse_number(const std::string& text, std::size_t line) const {
    const auto value = util::parse_double(text);
    if (!value) fail(line, "expected a number, got '" + text + "'");
    return *value;
  }

  std::uint64_t parse_unsigned(const std::string& text, std::size_t line) const {
    const auto value = util::parse_int(text);
    if (!value || *value < 0) fail(line, "expected a non-negative integer, got '" + text + "'");
    return static_cast<std::uint64_t>(*value);
  }

  bool parse_bool(const std::string& text, std::size_t line) const {
    const std::string v = util::to_lower(text);
    if (v == "on" || v == "true" || v == "yes" || v == "1") return true;
    if (v == "off" || v == "false" || v == "no" || v == "0") return false;
    fail(line, "expected on/off, got '" + text + "'");
  }

  /// Suffix-scaled number: strips `suffixes` (longest first; case as
  /// given), multiplies by the matching scale; bare numbers use scale 1.
  double parse_scaled(const std::string& text, std::size_t line,
                      const std::vector<std::pair<std::string, double>>& suffixes,
                      const char* what) const {
    for (const auto& [suffix, scale] : suffixes) {
      if (text.size() > suffix.size() &&
          util::to_lower(text.substr(text.size() - suffix.size())) ==
              util::to_lower(suffix)) {
        const auto value = util::parse_double(text.substr(0, text.size() - suffix.size()));
        if (!value) fail(line, std::string("bad ") + what + " '" + text + "'");
        return *value * scale;
      }
    }
    const auto value = util::parse_double(text);
    if (!value) fail(line, std::string("bad ") + what + " '" + text + "'");
    return *value;
  }

  util::DurationNs parse_duration(const std::string& text, std::size_t line) const {
    const double ns = parse_scaled(
        text, line,
        {{"ns", 1.0}, {"us", 1e3}, {"ms", 1e6}, {"s", 1e9}, {"m", 60e9}},
        "duration");
    if (ns < 0) fail(line, "negative duration '" + text + "'");
    return static_cast<util::DurationNs>(ns);
  }

  double parse_frequency(const std::string& text, std::size_t line) const {
    return parse_scaled(text, line,
                        {{"ghz", 1e9}, {"mhz", 1e6}, {"khz", 1e3}, {"hz", 1.0}},
                        "frequency");
  }

  double parse_size(const std::string& text, std::size_t line) const {
    return parse_scaled(text, line,
                        {{"kb", 1024.0},
                         {"mb", 1024.0 * 1024},
                         {"gb", 1024.0 * 1024 * 1024},
                         {"b", 1.0}},
                        "size");
  }

  std::vector<double> parse_frequency_list(const std::string& text, std::size_t line) const {
    std::vector<double> values;
    for (const std::string& item : util::split_trimmed(text, ',')) {
      values.push_back(parse_frequency(item, line));
    }
    if (values.empty()) fail(line, "empty frequency list");
    return values;
  }

  std::vector<double> parse_number_list(const std::string& text, std::size_t line) const {
    std::vector<double> values;
    for (const std::string& item : util::split_trimmed(text, ',')) {
      values.push_back(parse_number(item, line));
    }
    if (values.empty()) fail(line, "empty number list");
    return values;
  }

  /// Splits "k1=v1 k2=v2 ..." argument tails; rejects bare words.
  std::map<std::string, std::string> parse_args(const std::string& tail,
                                                std::size_t line) const {
    std::map<std::string, std::string> args;
    std::istringstream in(tail);
    std::string token;
    while (in >> token) {
      const auto kv = util::parse_key_value(token);
      if (!kv) fail(line, "expected key=value, got '" + token + "'");
      if (!args.emplace(kv->first, kv->second).second) {
        fail(line, "duplicate argument '" + kv->first + "'");
      }
    }
    return args;
  }

  /// Fetches and erases args[key]; empty optional-style via required flag.
  std::string take_arg(std::map<std::string, std::string>& args, const std::string& key,
                       std::size_t line, bool required = false,
                       const std::string& fallback = "") const {
    const auto it = args.find(key);
    if (it == args.end()) {
      if (required) fail(line, "missing required argument '" + key + "'");
      return fallback;
    }
    std::string value = it->second;
    args.erase(it);
    return value;
  }

  void reject_leftovers(const std::map<std::string, std::string>& args, std::size_t line,
                        const std::string& context) const {
    if (!args.empty()) {
      fail(line, "unknown " + context + " argument '" + args.begin()->first + "'");
    }
  }

  // --- grammar -----------------------------------------------------------

  void parse_scenario_header() {
    const auto [head, tail] = split_head(current().text);
    if (head != "scenario" || tail.empty()) {
      fail(current().number, "scenario must start with 'scenario <name>'");
    }
    spec_.name = tail;
    ++index_;
  }

  void parse_top_level() {
    const Line& line = current();
    const auto [head, tail] = split_head(line.text);
    if (head == "scenario") fail(line.number, "duplicate 'scenario' directive");
    if (head == "seed") {
      spec_.seed = parse_unsigned(tail, line.number);
      ++index_;
    } else if (head == "duration") {
      spec_.duration = parse_duration(tail, line.number);
      if (spec_.duration <= 0) fail(line.number, "scenario duration must be positive");
      ++index_;
    } else if (head == "tick") {
      spec_.tick = parse_duration(tail, line.number);
      if (spec_.tick <= 0) fail(line.number, "tick must be positive");
      ++index_;
    } else if (head == "cpu") {
      parse_cpu(tail, line.number);
    } else if (head == "workload") {
      parse_workload(tail, line.number);
    } else if (head == "host") {
      parse_host(tail, line.number);
    } else if (head == "monitor") {
      parse_monitor(tail, line.number);
      ++index_;
    } else if (head == "formula") {
      parse_formula(tail, line.number);
      ++index_;
    } else if (head == "calibration") {
      parse_calibration(tail, line.number);
      ++index_;
    } else if (head == "observe") {
      parse_observe(tail, line.number);
      ++index_;
    } else if (head == "govern") {
      parse_govern(tail, line.number);
      ++index_;
    } else if (head == "fleet") {
      parse_fleet(tail, line.number);
      ++index_;
    } else if (head == "inject") {
      parse_inject(tail, line.number);
      ++index_;
    } else if (head == "end") {
      fail(line.number, "'end' without an open section");
    } else {
      fail(line.number, "unknown directive '" + head + "'");
    }
  }

  /// Consumes section body lines until 'end'; invokes handler(head, tail,
  /// line). Errors out at EOF (truncated file).
  template <typename Handler>
  void parse_section(std::size_t opened_at, const std::string& what, Handler&& handler) {
    ++index_;  // Past the section opener.
    while (true) {
      if (index_ >= lines_.size()) {
        fail(lines_.back().number,
             "unexpected end of file: '" + what + "' section opened at line " +
                 std::to_string(opened_at) + " has no 'end'");
      }
      const Line& line = current();
      const auto [head, tail] = split_head(line.text);
      if (head == "end") {
        ++index_;
        return;
      }
      handler(head, tail, line.number);
      ++index_;
    }
  }

  void declare_id(std::map<std::string, std::size_t>& table, const std::string& id,
                  std::size_t line, const std::string& what) {
    if (id.empty()) fail(line, what + " needs an id");
    if (id.find_first_of(" \t:,=") != std::string::npos) {
      fail(line, what + " id '" + id + "' contains forbidden characters");
    }
    const auto [it, inserted] = table.emplace(id, line);
    if (!inserted) {
      fail(line, "duplicate " + what + " id '" + id + "' (first declared at line " +
                     std::to_string(it->second) + ")");
    }
  }

  void parse_cpu(const std::string& tail, std::size_t line) {
    const auto [id, preset] = split_head(tail);
    declare_id(cpu_lines_, id, line, "cpu");
    if (preset.empty()) fail(line, "cpu needs a preset: 'cpu <id> <preset|custom>'");
    CpuDecl cpu;
    cpu.id = id;
    cpu.preset = preset;
    static const std::set<std::string> kPresets = {
        "i3_2120", "i3_2120_no_smt", "i7_2600", "quad_core", "big_little", "custom"};
    if (!kPresets.count(preset)) {
      fail(line, "unknown cpu preset '" + preset +
                     "' (expected i3_2120, i3_2120_no_smt, i7_2600, quad_core, "
                     "big_little or custom)");
    }
    if (preset != "custom") {
      spec_.cpus.push_back(std::move(cpu));
      ++index_;
      return;
    }
    parse_section(line, "cpu", [&](const std::string& head, const std::string& args,
                                   std::size_t body_line) {
      if (head == "cores") {
        cpu.cores = parse_unsigned(args, body_line);
      } else if (head == "threads_per_core") {
        cpu.threads_per_core = parse_unsigned(args, body_line);
      } else if (head == "tdp") {
        cpu.tdp_watts = parse_number(args, body_line);
      } else if (head == "speedstep") {
        cpu.speedstep = parse_bool(args, body_line);
      } else if (head == "c_states") {
        cpu.c_states = parse_bool(args, body_line);
      } else if (head == "ladder") {
        cpu.ladder = parse_frequency_list(args, body_line);
      } else if (head == "cluster") {
        auto kv = parse_args(args, body_line);
        CpuDecl::Cluster cl;
        cl.name = take_arg(kv, "name", body_line, /*required=*/true);
        cl.cores = parse_unsigned(take_arg(kv, "cores", body_line, true), body_line);
        cl.ladder = parse_frequency_list(take_arg(kv, "ladder", body_line, true), body_line);
        cl.perf = parse_number(take_arg(kv, "perf", body_line, false, "1"), body_line);
        cl.energy = parse_number(take_arg(kv, "energy", body_line, false, "1"), body_line);
        reject_leftovers(kv, body_line, "cluster");
        cpu.clusters.push_back(std::move(cl));
      } else {
        fail(body_line, "unknown cpu key '" + head + "'");
      }
    });
    if (cpu.cores == 0) fail(line, "custom cpu '" + id + "' needs 'cores'");
    if (cpu.ladder.empty() && cpu.clusters.empty()) {
      fail(line, "custom cpu '" + id + "' needs a 'ladder' or at least one 'cluster'");
    }
    spec_.cpus.push_back(std::move(cpu));
  }

  ProfileSpec parse_profile(const std::string& args, std::size_t line) const {
    const auto [kind, rest] = split_head(args);
    ProfileSpec p;
    p.kind = kind;
    static const std::set<std::string> kKinds = {"cpu", "memory", "mixed", "branchy",
                                                 "idle"};
    if (!kKinds.count(kind)) {
      fail(line, "unknown profile kind '" + kind +
                     "' (expected cpu, memory, mixed, branchy or idle)");
    }
    auto kv = parse_args(rest, line);
    if (auto v = take_arg(kv, "intensity", line); !v.empty()) {
      p.intensity = parse_number(v, line);
    }
    if (auto v = take_arg(kv, "working_set", line); !v.empty()) {
      p.working_set_bytes = parse_size(v, line);
    }
    if (auto v = take_arg(kv, "share", line); !v.empty()) {
      p.memory_share = parse_number(v, line);
    }
    reject_leftovers(kv, line, "profile");
    return p;
  }

  void parse_workload(const std::string& tail, std::size_t line) {
    declare_id(workload_lines_, tail, line, "workload");
    WorkloadDecl w;
    w.id = tail;
    bool kind_seen = false;
    parse_section(line, "workload", [&](const std::string& head, const std::string& args,
                                        std::size_t body_line) {
      if (head == "kind") {
        static const std::set<std::string> kKinds = {"steady", "bursty", "phased", "llm",
                                                     "diurnal"};
        if (!kKinds.count(args)) {
          fail(body_line, "unknown workload kind '" + args +
                              "' (expected steady, bursty, phased, llm or diurnal)");
        }
        w.kind = args;
        kind_seen = true;
      } else if (head == "profile") {
        w.profile = parse_profile(args, body_line);
      } else if (head == "phase") {
        auto kv = parse_args(args, body_line);
        PhaseSpec phase;
        phase.profile.kind = take_arg(kv, "profile", body_line, /*required=*/true);
        static const std::set<std::string> kKinds = {"cpu", "memory", "mixed", "branchy",
                                                     "idle"};
        if (!kKinds.count(phase.profile.kind)) {
          fail(body_line, "unknown profile kind '" + phase.profile.kind + "'");
        }
        if (auto v = take_arg(kv, "intensity", body_line); !v.empty()) {
          phase.profile.intensity = parse_number(v, body_line);
        }
        if (auto v = take_arg(kv, "working_set", body_line); !v.empty()) {
          phase.profile.working_set_bytes = parse_size(v, body_line);
        }
        if (auto v = take_arg(kv, "share", body_line); !v.empty()) {
          phase.profile.memory_share = parse_number(v, body_line);
        }
        phase.duration =
            parse_duration(take_arg(kv, "duration", body_line, true), body_line);
        if (phase.duration <= 0) fail(body_line, "phase duration must be positive");
        reject_leftovers(kv, body_line, "phase");
        w.phases.push_back(std::move(phase));
      } else if (head == "loop") {
        w.loop = parse_bool(args, body_line);
      } else if (head == "duration") {
        w.duration = parse_duration(args, body_line);
      } else if (head == "jitter") {
        w.jitter = parse_bool(args, body_line);
      } else if (head == "mean_burst") {
        w.mean_burst = parse_duration(args, body_line);
      } else if (head == "mean_gap") {
        w.mean_gap = parse_duration(args, body_line);
      } else if (head == "mean_interarrival") {
        w.mean_interarrival = parse_duration(args, body_line);
      } else if (head == "mean_prefill") {
        w.mean_prefill = parse_duration(args, body_line);
      } else if (head == "mean_decode") {
        w.mean_decode = parse_duration(args, body_line);
      } else if (head == "working_set") {
        w.working_set_bytes = parse_size(args, body_line);
      } else if (head == "period") {
        w.period = parse_duration(args, body_line);
      } else if (head == "valley") {
        w.valley = parse_number(args, body_line);
      } else if (head == "peak") {
        w.peak = parse_number(args, body_line);
      } else if (head == "flash_crowds") {
        w.flash_crowds = parse_bool(args, body_line);
      } else if (head == "spread_phase") {
        w.spread_phase = parse_bool(args, body_line);
      } else {
        fail(body_line, "unknown workload key '" + head + "'");
      }
    });
    if (!kind_seen) fail(line, "workload '" + w.id + "' needs a 'kind'");
    if (w.kind == "phased" && w.phases.empty()) {
      fail(line, "phased workload '" + w.id + "' needs at least one 'phase'");
    }
    if (w.kind != "phased" && !w.phases.empty()) {
      fail(line, "workload '" + w.id + "' has 'phase' lines but kind is not 'phased'");
    }
    spec_.workloads.push_back(std::move(w));
  }

  void parse_host(const std::string& tail, std::size_t line) {
    declare_id(host_lines_, tail, line, "host");
    HostDecl h;
    h.id = tail;
    parse_section(line, "host", [&](const std::string& head, const std::string& args,
                                    std::size_t body_line) {
      if (head == "count") {
        h.count = parse_unsigned(args, body_line);
        if (h.count == 0) fail(body_line, "host count must be at least 1");
      } else if (head == "cpu") {
        if (!cpu_lines_.count(args)) {
          fail(body_line, "host references undeclared cpu '" + args + "'");
        }
        h.cpu = args;
      } else if (head == "daemon") {
        h.daemon = parse_bool(args, body_line);
      } else if (head == "run") {
        const auto [workload, rest] = split_head(args);
        if (!workload_lines_.count(workload)) {
          fail(body_line, "run references undeclared workload '" + workload + "'");
        }
        RunDecl r;
        r.workload = workload;
        r.name = workload;
        auto kv = parse_args(rest, body_line);
        if (auto v = take_arg(kv, "copies", body_line); !v.empty()) {
          r.copies = parse_unsigned(v, body_line);
          if (r.copies == 0) fail(body_line, "run copies must be at least 1");
        }
        if (auto v = take_arg(kv, "name", body_line); !v.empty()) r.name = v;
        reject_leftovers(kv, body_line, "run");
        h.runs.push_back(std::move(r));
      } else {
        fail(body_line, "unknown host key '" + head + "'");
      }
    });
    if (h.cpu.empty()) fail(line, "host '" + h.id + "' needs a 'cpu'");
    spec_.hosts.push_back(std::move(h));
  }

  void parse_monitor(const std::string& tail, std::size_t line) {
    auto kv = parse_args(tail, line);
    if (auto v = take_arg(kv, "period", line); !v.empty()) {
      spec_.monitor.period = parse_duration(v, line);
      if (spec_.monitor.period <= 0) fail(line, "monitor period must be positive");
    }
    if (auto v = take_arg(kv, "dimension", line); !v.empty()) {
      if (v != "timestamp" && v != "pid" && v != "group") {
        fail(line, "unknown aggregation dimension '" + v +
                       "' (expected timestamp, pid or group)");
      }
      spec_.monitor.dimension = v;
    }
    if (auto v = take_arg(kv, "powerspy", line); !v.empty()) {
      spec_.monitor.powerspy = parse_bool(v, line);
    }
    if (auto v = take_arg(kv, "rapl", line); !v.empty()) {
      spec_.monitor.rapl = parse_bool(v, line);
    }
    if (auto v = take_arg(kv, "all", line); !v.empty()) {
      spec_.monitor.all = parse_bool(v, line);
    }
    reject_leftovers(kv, line, "monitor");
  }

  void parse_formula(const std::string& tail, std::size_t line) {
    const auto [mode, rest] = split_head(tail);
    if (mode != "none" && mode != "fixed" && mode != "trained") {
      fail(line, "unknown formula mode '" + mode + "' (expected none, fixed or trained)");
    }
    spec_.formula.mode = mode;
    auto kv = parse_args(rest, line);
    if (mode == "fixed") {
      spec_.formula.idle_watts =
          parse_number(take_arg(kv, "idle", line, /*required=*/true), line);
      spec_.formula.coefficients =
          parse_number_list(take_arg(kv, "coefficients", line, true), line);
      if (spec_.formula.coefficients.size() != 3) {
        fail(line, "fixed formula needs exactly 3 coefficients "
                   "(instructions, cache-references, cache-misses)");
      }
    } else if (mode == "trained") {
      if (auto v = take_arg(kv, "intensities", line); !v.empty()) {
        spec_.formula.intensities = parse_number_list(v, line);
      }
      if (auto v = take_arg(kv, "memory_shares", line); !v.empty()) {
        spec_.formula.memory_shares = parse_number_list(v, line);
      }
      if (auto v = take_arg(kv, "point_duration", line); !v.empty()) {
        spec_.formula.point_duration = parse_duration(v, line);
      }
    }
    reject_leftovers(kv, line, "formula");
  }

  void parse_calibration(const std::string& tail, std::size_t line) {
    const auto [state, rest] = split_head(tail);
    spec_.calibration.enabled = parse_bool(state, line);
    auto kv = parse_args(rest, line);
    if (auto v = take_arg(kv, "drift_window", line); !v.empty()) {
      spec_.calibration.drift_window = parse_unsigned(v, line);
    }
    if (auto v = take_arg(kv, "threshold", line); !v.empty()) {
      spec_.calibration.threshold_watts = parse_number(v, line);
    }
    if (auto v = take_arg(kv, "min_samples", line); !v.empty()) {
      spec_.calibration.min_samples = parse_unsigned(v, line);
    }
    if (auto v = take_arg(kv, "refit_interval", line); !v.empty()) {
      spec_.calibration.refit_interval = parse_duration(v, line);
    }
    reject_leftovers(kv, line, "calibration");
  }

  void parse_observe(const std::string& tail, std::size_t line) {
    spec_.observe.enabled = true;  // Presence of the directive enables it.
    auto kv = parse_args(tail, line);
    if (auto v = take_arg(kv, "cadence", line); !v.empty()) {
      spec_.observe.cadence = parse_duration(v, line);
      if (spec_.observe.cadence <= 0) fail(line, "observe cadence must be positive");
    }
    if (auto v = take_arg(kv, "self_watts_budget", line); !v.empty()) {
      spec_.observe.self_watts_budget = parse_number(v, line);
      if (spec_.observe.self_watts_budget < 0) {
        fail(line, "self_watts_budget must be non-negative");
      }
    }
    reject_leftovers(kv, line, "observe");
  }

  void parse_govern(const std::string& tail, std::size_t line) {
    if (spec_.govern.enabled) fail(line, "duplicate 'govern' directive");
    spec_.govern.enabled = true;  // Presence of the directive enables it.
    auto kv = parse_args(tail, line);
    spec_.govern.budget_w =
        parse_number(take_arg(kv, "budget_w", line, /*required=*/true), line);
    if (spec_.govern.budget_w <= 0) fail(line, "govern budget_w must be positive");
    if (auto v = take_arg(kv, "policy", line); !v.empty()) {
      if (v != "pace" && v != "race") {
        fail(line, "unknown govern policy '" + v + "' (expected pace or race)");
      }
      spec_.govern.policy = v;
    }
    if (auto v = take_arg(kv, "hysteresis_w", line); !v.empty()) {
      spec_.govern.hysteresis_w = parse_number(v, line);
      if (spec_.govern.hysteresis_w < 0) fail(line, "hysteresis_w must be non-negative");
    }
    if (auto v = take_arg(kv, "cooldown_ms", line); !v.empty()) {
      spec_.govern.cooldown_ms = parse_number(v, line);
      if (spec_.govern.cooldown_ms < 0) fail(line, "cooldown_ms must be non-negative");
    }
    if (auto v = take_arg(kv, "interval_ms", line); !v.empty()) {
      spec_.govern.interval_ms = parse_number(v, line);
      if (spec_.govern.interval_ms <= 0) fail(line, "interval_ms must be positive");
    }
    if (auto v = take_arg(kv, "max_step", line); !v.empty()) {
      spec_.govern.max_step = parse_unsigned(v, line);
      if (spec_.govern.max_step == 0) fail(line, "max_step must be at least 1");
    }
    if (auto v = take_arg(kv, "min_active_cores", line); !v.empty()) {
      spec_.govern.min_active_cores = parse_unsigned(v, line);
      if (spec_.govern.min_active_cores == 0) {
        fail(line, "min_active_cores must be at least 1");
      }
    }
    reject_leftovers(kv, line, "govern");
  }

  void parse_fleet(const std::string& tail, std::size_t line) {
    auto kv = parse_args(tail, line);
    if (auto v = take_arg(kv, "aggregation", line); !v.empty()) {
      spec_.fleet_reporter = parse_bool(v, line);
    }
    if (auto v = take_arg(kv, "workers", line); !v.empty()) {
      spec_.workers = parse_unsigned(v, line);
      if (spec_.workers == 0) fail(line, "fleet workers must be at least 1");
    }
    reject_leftovers(kv, line, "fleet");
  }

  void parse_inject(const std::string& tail, std::size_t line) {
    auto kv = parse_args(tail, line);
    InjectDecl inj;
    inj.at = parse_duration(take_arg(kv, "at", line, /*required=*/true), line);
    inj.host = take_arg(kv, "host", line, /*required=*/true);
    inj.cluster = take_arg(kv, "cluster", line);
    if (auto v = take_arg(kv, "frequency", line); !v.empty()) {
      inj.kind = "frequency";
      inj.frequency_hz = parse_frequency(v, line);
      if (inj.frequency_hz <= 0) fail(line, "injection frequency must be positive");
    } else if (auto v2 = take_arg(kv, "spawn", line); !v2.empty()) {
      inj.kind = "spawn";
      inj.workload = v2;
      inj.name = take_arg(kv, "name", line, /*required=*/false, v2);
      if (!workload_lines_.count(inj.workload)) {
        fail(line, "inject spawn references undeclared workload '" + inj.workload + "'");
      }
    } else if (auto v3 = take_arg(kv, "kill", line); !v3.empty()) {
      inj.kind = "kill";
      inj.name = v3;
    } else if (auto v4 = take_arg(kv, "shift", line); !v4.empty()) {
      const auto parts = util::split_trimmed(v4, ':');
      if (parts.size() != 2) {
        fail(line, "shift expects '<process-name>:<workload-id>', got '" + v4 + "'");
      }
      inj.kind = "shift";
      inj.name = parts[0];
      inj.workload = parts[1];
      if (!workload_lines_.count(inj.workload)) {
        fail(line, "inject shift references undeclared workload '" + inj.workload + "'");
      }
    } else {
      fail(line, "inject needs one of frequency=, spawn=, kill= or shift=");
    }
    if (!inj.cluster.empty() && inj.kind != "frequency") {
      fail(line, "inject cluster= is only valid with frequency=");
    }
    reject_leftovers(kv, line, "inject");
    inject_lines_.push_back(line);
    spec_.injections.push_back(std::move(inj));
  }

  /// Does the expanded id `id` name an instance of `host`?
  static bool host_matches(const HostDecl& host, const std::string& id) {
    if (host.count <= 1) return id == host.id;
    if (id.size() <= host.id.size() || id.compare(0, host.id.size(), host.id) != 0) {
      return false;
    }
    // The suffix must be a valid instance index (< count).
    const std::string suffix = id.substr(host.id.size());
    std::size_t index = 0;
    for (char c : suffix) {
      if (c < '0' || c > '9') return false;
      index = index * 10 + static_cast<std::size_t>(c - '0');
    }
    return index < host.count;
  }

  /// Fails unless the host's CPU declares a frequency cluster named
  /// `cluster` (cross-ref for `inject ... cluster=... frequency=...`).
  void check_cluster(const HostDecl& host, const std::string& cluster,
                     std::size_t line) {
    const CpuDecl* cpu = nullptr;
    for (const CpuDecl& decl : spec_.cpus) {
      if (decl.id == host.cpu) { cpu = &decl; break; }
    }
    if (!cpu) return;  // Unknown cpu id is reported by the host checks.
    std::vector<std::string> names;
    if (cpu->preset == "big_little") {
      names = {"big", "little"};
    } else if (cpu->preset == "custom") {
      for (const CpuDecl::Cluster& cl : cpu->clusters) names.push_back(cl.name);
    }
    if (names.empty()) {
      fail(line, "inject cluster='" + cluster + "' but cpu '" + cpu->id +
                     "' (host '" + host.id + "') declares no clusters");
    }
    for (const std::string& name : names) {
      if (name == cluster) return;
    }
    std::string known;
    for (const std::string& name : names) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    fail(line, "inject cluster='" + cluster + "' not found on cpu '" + cpu->id +
                   "' (host '" + host.id + "'; clusters: " + known + ")");
  }

  void validate() {
    if (spec_.hosts.empty()) {
      fail(lines_.back().number, "scenario declares no hosts");
    }
    const std::vector<std::string> host_ids = spec_.expanded_host_ids();
    const std::set<std::string> host_set(host_ids.begin(), host_ids.end());
    if (host_set.size() != host_ids.size()) {
      fail(lines_.back().number,
           "expanded host ids collide (a 'count' group overlaps another host id)");
    }
    for (std::size_t i = 0; i < spec_.injections.size(); ++i) {
      const InjectDecl& inj = spec_.injections[i];
      const std::size_t line = inject_lines_[i];
      if (inj.host != "all" && !host_set.count(inj.host)) {
        fail(line, "inject references unknown host '" + inj.host +
                       "' (use an expanded id like 'rack0', or 'all')");
      }
      if (inj.at > spec_.duration) {
        fail(line, "injection at " + std::to_string(inj.at) +
                       "ns is beyond the scenario duration");
      }
      if (!inj.cluster.empty()) {
        for (const HostDecl& host : spec_.hosts) {
          if (inj.host != "all" && !host_matches(host, inj.host)) continue;
          check_cluster(host, inj.cluster, line);
        }
      }
    }
    if (spec_.calibration.enabled && spec_.formula.mode == "none") {
      fail(lines_.back().number,
           "calibration requires a formula (mode 'fixed' or 'trained')");
    }
  }

  std::string file_;
  std::vector<Line> lines_;
  std::size_t index_ = 0;
  ScenarioSpec spec_;
  std::map<std::string, std::size_t> cpu_lines_;
  std::map<std::string, std::size_t> workload_lines_;
  std::map<std::string, std::size_t> host_lines_;
  std::vector<std::size_t> inject_lines_;
};

}  // namespace

ScenarioSpec ScenarioParser::parse_string(std::string_view text,
                                          const std::string& filename) {
  return Parser(text, filename).run();
}

ScenarioSpec ScenarioParser::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open scenario file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_string(buffer.str(), path);
}

}  // namespace powerapi::scenario
