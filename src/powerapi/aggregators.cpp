#include "powerapi/aggregators.h"

#include <any>

namespace powerapi::api {

Aggregator::Aggregator(actors::EventBus& bus, actors::EventBus::TopicId out_topic,
                       AggregationDimension dimension, GroupResolver group_of,
                       obs::Observability* obs)
    : bus_(&bus),
      out_topic_(out_topic),
      dimension_(dimension),
      group_of_(std::move(group_of)) {
  stage_.attach(obs, "pipeline.aggregated_rows");
  if (obs != nullptr) {
    tick_to_aggregate_ = &obs->metrics.histogram("pipeline.tick_to_aggregate_ns");
  }
}

void Aggregator::record_latency(std::int64_t tick_wall_ns) {
  if (tick_to_aggregate_ == nullptr || tick_wall_ns == 0 || !stage_.active()) return;
  tick_to_aggregate_->record(obs::wall_now_ns() - tick_wall_ns);
}

void Aggregator::emit_group_rows(const std::string& formula) {
  auto& bucket = pending_groups_[formula];
  for (const auto& [group, watts] : bucket.watts_by_group) {
    AggregatedPower out;
    out.timestamp = bucket.timestamp;
    out.pid = kMachinePid;
    out.group = group;
    out.formula = formula;
    out.watts = watts;
    out.seq = bucket.seq;
    bus_->publish(out_topic_, std::move(out), self());
    stage_.count();
  }
  record_latency(bucket.tick_wall_ns);
  bucket.watts_by_group.clear();
}

void Aggregator::absorb(const std::string& formula, util::TimestampNs timestamp,
                        std::int64_t pid, double watts, std::uint64_t seq,
                        std::int64_t tick_wall_ns) {
  if (dimension_ == AggregationDimension::kGroup) {
    auto& bucket = pending_groups_[formula];
    if (!bucket.watts_by_group.empty() && timestamp > bucket.timestamp) {
      emit_group_rows(formula);
    }
    bucket.timestamp = timestamp;
    bucket.seq = seq;
    bucket.tick_wall_ns = tick_wall_ns;
    std::string group;
    if (pid == kMachinePid) {
      group = "(machine)";
    } else if (group_of_) {
      group = group_of_(pid);
    }
    bucket.watts_by_group[group] += watts;
    return;
  }

  if (dimension_ == AggregationDimension::kPid) {
    // Per-PID view: forward every row unchanged.
    AggregatedPower out;
    out.timestamp = timestamp;
    out.pid = pid;
    out.formula = formula;
    out.watts = watts;
    out.seq = seq;
    bus_->publish(out_topic_, std::move(out), self());
    stage_.count();
    record_latency(tick_wall_ns);
    return;
  }

  auto it = pending_.find(formula);
  if (it != pending_.end() && timestamp > it->second.timestamp) {
    emit(formula, it->second);
    pending_.erase(it);
    it = pending_.end();
  }
  if (it == pending_.end()) {
    Group group;
    group.timestamp = timestamp;
    group.seq = seq;
    group.tick_wall_ns = tick_wall_ns;
    it = pending_.emplace(formula, group).first;
  }
  Group& group = it->second;
  if (pid == kMachinePid) {
    group.has_machine_row = true;
    group.machine_watts = watts;
  } else {
    group.sum_watts += watts;
  }
}

void Aggregator::emit(const std::string& formula, const Group& group) {
  AggregatedPower out;
  out.timestamp = group.timestamp;
  out.pid = kMachinePid;
  out.formula = formula;
  // Prefer the machine-scope estimate when the formula produced one (it
  // includes the idle floor); otherwise sum the per-process estimates.
  out.watts = group.has_machine_row ? group.machine_watts : group.sum_watts;
  out.seq = group.seq;
  bus_->publish(out_topic_, std::move(out), self());
  stage_.count();
  record_latency(group.tick_wall_ns);
}

void Aggregator::receive(actors::Envelope& envelope) {
  // One EstimateBatch carries a formula's rows for one tick; they are
  // absorbed front to back.
  const auto* batch = envelope.payload.get<EstimateBatch>();
  if (batch == nullptr || !batch->features) return;
  const auto span = stage_.span(name(), batch->seq);
  const std::size_t rows = batch->features->rows();
  for (std::size_t i = 0; i < rows && i < batch->watts.size(); ++i) {
    absorb(batch->formula, batch->timestamp, batch->features->pid(i), batch->watts[i],
           batch->seq, batch->tick_wall_ns);
  }
}

void Aggregator::post_stop() {
  for (const auto& [formula, group] : pending_) emit(formula, group);
  pending_.clear();
  for (auto& [formula, bucket] : pending_groups_) {
    if (!bucket.watts_by_group.empty()) emit_group_rows(formula);
  }
  pending_groups_.clear();
}

std::optional<AggregatedPower> FleetSum::add(const AggregatedPower& row,
                                             std::size_t hosts) {
  if (!counts(row)) return std::nullopt;
  const auto key = std::make_pair(row.formula, row.timestamp);
  Bucket& bucket = pending_[key];
  bucket.watts += row.watts;
  bucket.seq = row.seq;
  if (++bucket.hosts < hosts) return std::nullopt;
  AggregatedPower out = fleet_row(row.formula, row.timestamp, bucket);
  pending_.erase(key);
  return out;
}

std::vector<AggregatedPower> FleetSum::flush() {
  std::vector<AggregatedPower> rows;
  rows.reserve(pending_.size());
  for (const auto& [key, bucket] : pending_) {
    rows.push_back(fleet_row(key.first, key.second, bucket));
  }
  pending_.clear();
  return rows;
}

AggregatedPower FleetSum::fleet_row(const std::string& formula, util::TimestampNs timestamp,
                                    const Bucket& bucket) {
  AggregatedPower out;
  out.timestamp = timestamp;
  out.pid = kMachinePid;
  out.group = "(fleet)";
  out.formula = formula;
  out.watts = bucket.watts;
  out.seq = bucket.seq;
  return out;
}

void FleetAggregator::receive(actors::Envelope& envelope) {
  const auto* row = envelope.payload.get<AggregatedPower>();
  if (row == nullptr) return;
  if (auto out = sum_.add(*row, *host_count_)) {
    bus_->publish(out_topic_, std::move(*out), self());
  }
}

void FleetAggregator::post_stop() {
  for (AggregatedPower& out : sum_.flush()) {
    bus_->publish(out_topic_, std::move(out), self());
  }
}

}  // namespace powerapi::api
