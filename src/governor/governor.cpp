#include "governor/governor.h"

#include <algorithm>
#include <array>
#include <utility>

#include "os/system.h"

namespace powerapi::governor {

HostControl control_for(std::string label, os::System& system, double weight) {
  HostControl control;
  control.label = std::move(label);
  control.cores = system.machine().spec().cores;
  control.frequencies_ascending = system.machine().spec().frequencies_hz;
  control.weight = weight;
  os::System* sys = &system;
  control.set_frequency = [sys](double hz) { return sys->pin_frequency(hz); };
  control.set_parked = [sys](std::size_t cores) {
    return sys->set_parked_cores(cores);
  };
  return control;
}

Governor::Governor(GovernorOptions options, std::vector<HostControl> hosts)
    : options_(std::move(options)) {
  hosts_.reserve(hosts.size());
  for (HostControl& control : hosts) {
    HostState state;
    state.ladder = build_rung_ladder(options_.policy, control.frequencies_ascending,
                                     control.cores, options_.min_active_cores);
    state.controller = StepController(StepController::Options{
        options_.hysteresis_watts, options_.cooldown_ns, options_.max_step});
    state.control = std::move(control);
    hosts_.push_back(std::move(state));
  }
  if (options_.obs != nullptr) {
    auto& metrics = options_.obs->metrics;
    actuations_metric_ = &metrics.counter("governor.actuations");
    steps_down_metric_ = &metrics.counter("governor.steps_down");
    steps_up_metric_ = &metrics.counter("governor.steps_up");
    ticks_metric_ = &metrics.counter("governor.ticks");
    fleet_watts_metric_ = &metrics.gauge("governor.fleet_watts");
    budget_watts_metric_ = &metrics.gauge("governor.budget_watts");
    budget_watts_metric_->set(options_.budget_watts);
    decide_span_ = options_.obs->trace.intern("governor/decide");
  }
}

void Governor::observe(std::size_t host_index, const api::AggregatedPower& row) {
  if (host_index >= hosts_.size() || row.pid != api::kMachinePid) return;
  const bool machine_scope = row.group == "(machine)";
  if (!row.group.empty() && !machine_scope) return;
  Sample& sample = hosts_[host_index].watts_by_formula[row.formula];
  // An empty-group row under the group dimension is the ungrouped-process
  // sum, not the machine; never let it shadow a real "(machine)" reading.
  if (sample.machine_scope && !machine_scope) return;
  sample.watts = row.watts;
  sample.machine_scope = machine_scope;
}

bool Governor::sensed_watts(const HostState& host, double& out) const {
  if (host.watts_by_formula.empty()) return false;
  if (!options_.formula.empty()) {
    const auto it = host.watts_by_formula.find(options_.formula);
    if (it == host.watts_by_formula.end()) return false;
    out = it->second.watts;
    return true;
  }
  static constexpr std::array<const char*, 3> kPreference = {
      "powerapi-hpc", "powerspy", "rapl"};
  for (const char* formula : kPreference) {
    const auto it = host.watts_by_formula.find(formula);
    if (it != host.watts_by_formula.end()) {
      out = it->second.watts;
      return true;
    }
  }
  out = host.watts_by_formula.begin()->second.watts;  // Deterministic: map order.
  return true;
}

void Governor::decide(util::TimestampNs now_ns) {
  ++tick_count_;
  const obs::ScopedSpan span(
      options_.obs != nullptr ? &options_.obs->trace : nullptr, decide_span_,
      tick_count_);
  if (ticks_metric_ != nullptr) ticks_metric_->add();

  const std::size_t n = hosts_.size();
  weights_scratch_.resize(n);
  watts_scratch_.resize(n);
  sensed_scratch_.assign(n, 0);
  double fleet_watts = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    weights_scratch_[i] = hosts_[i].control.weight;
    double watts = 0.0;
    if (sensed_watts(hosts_[i], watts)) sensed_scratch_[i] = 1;
    watts_scratch_[i] = watts;
    fleet_watts += watts;
  }
  last_fleet_watts_ = fleet_watts;
  if (fleet_watts_metric_ != nullptr) fleet_watts_metric_->set(fleet_watts);
  if (options_.budget_watts <= 0.0) return;

  compute_shares(options_.budget_watts, weights_scratch_, watts_scratch_,
                 shares_scratch_);
  for (std::size_t i = 0; i < n; ++i) {
    HostState& host = hosts_[i];
    // No reading yet (pipeline warm-up): hold rather than flail on zeros.
    if (sensed_scratch_[i] == 0 || host.ladder.empty()) continue;
    const std::size_t next = host.controller.decide(
        host.rung, host.ladder.size() - 1, watts_scratch_[i], shares_scratch_[i],
        now_ns);
    if (next != host.rung) {
      apply(host, next, host.controller.last_direction(), watts_scratch_[i],
            shares_scratch_[i], now_ns);
    }
  }
}

void Governor::apply(HostState& host, std::size_t new_rung, int direction,
                     double watts, double share, util::TimestampNs now_ns) {
  const Rung& rung = host.ladder[new_rung];
  host.rung = new_rung;
  double applied_hz = rung.frequency_hz;
  std::size_t applied_parked = rung.parked_cores;
  if (host.control.set_frequency) applied_hz = host.control.set_frequency(rung.frequency_hz);
  if (host.control.set_parked) applied_parked = host.control.set_parked(rung.parked_cores);

  ++actuation_count_;
  if (actuations_metric_ != nullptr) actuations_metric_->add();
  if (direction < 0 && steps_down_metric_ != nullptr) steps_down_metric_->add();
  if (direction > 0 && steps_up_metric_ != nullptr) steps_up_metric_->add();

  Actuation actuation;
  actuation.timestamp = now_ns;
  actuation.host = host.control.label;
  actuation.direction = direction;
  actuation.rung = new_rung;
  actuation.frequency_hz = applied_hz;
  actuation.parked_cores = applied_parked;
  actuation.host_watts = watts;
  actuation.share_watts = share;
  history_.push_back(std::move(actuation));
}

// Actor shim, kept for fleet_bench.cpp; remove in the next benchmark PR.

namespace {

/// The shim's sense message: one row of a relay's topic, tagged with the
/// host index the topic belongs to.
struct RelayedRow {
  std::size_t host = 0;
  api::AggregatedPower row;
};

/// Forwards one topic's aggregated rows to a GovernorActor as RelayedRow.
class SenseRelay final : public actors::Actor {
 public:
  SenseRelay(actors::ActorSystem& system, actors::ActorRef governor,
             std::size_t host_index)
      : system_(&system), governor_(governor), host_index_(host_index) {}

  void receive(actors::Envelope& envelope) override {
    const auto* row = envelope.payload.get<api::AggregatedPower>();
    if (row == nullptr) return;
    system_->tell(governor_, actors::Payload(RelayedRow{host_index_, *row}), self());
  }

 private:
  actors::ActorSystem* system_;
  actors::ActorRef governor_;
  std::size_t host_index_;
};

}  // namespace

GovernorActor::GovernorActor(actors::EventBus& /*bus*/, GovernorOptions options,
                             std::vector<HostControl> hosts)
    : governor_(std::move(options), std::move(hosts)) {}

void GovernorActor::receive(actors::Envelope& envelope) {
  if (const auto* power = envelope.payload.get<RelayedRow>()) {
    governor_.observe(power->host, power->row);
  } else if (const auto* tick = envelope.payload.get<GovernorTick>()) {
    governor_.decide(tick->now_ns);
  }
}

actors::ActorRef GovernorActor::spawn_sense_relay(actors::ActorSystem& system,
                                                  actors::EventBus& bus,
                                                  actors::EventBus::TopicId topic,
                                                  actors::ActorRef governor,
                                                  std::size_t host_index,
                                                  const std::string& name) {
  const auto relay = system.spawn_as<SenseRelay>(name, system, governor, host_index);
  bus.subscribe(topic, relay);
  return relay;
}

}  // namespace powerapi::governor
