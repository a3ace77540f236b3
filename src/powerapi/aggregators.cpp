#include "powerapi/aggregators.h"

namespace powerapi::api {

Aggregator::Aggregator(AggregationDimension dimension, GroupResolver group_of,
                       obs::Observability* obs, std::string_view name)
    : dimension_(dimension),
      group_of_(std::move(group_of)),
      stage_(obs, name, "pipeline.aggregated_rows") {
  if (obs != nullptr) {
    tick_to_aggregate_ = &obs->metrics.histogram("pipeline.tick_to_aggregate_ns");
  }
}

void Aggregator::record_latency(std::int64_t tick_wall_ns) {
  if (tick_to_aggregate_ == nullptr || tick_wall_ns == 0 || !stage_.active()) return;
  tick_to_aggregate_->record(obs::wall_now_ns() - tick_wall_ns);
}

void Aggregator::emit_group_rows(const std::string& formula,
                                 std::vector<AggregatedPower>& out) {
  auto& bucket = pending_groups_[formula];
  for (const auto& [group, watts] : bucket.watts_by_group) {
    AggregatedPower& row = out.emplace_back();
    row.timestamp = bucket.timestamp;
    row.pid = kMachinePid;
    row.group = group;
    row.formula = formula;
    row.watts = watts;
    row.seq = bucket.seq;
    stage_.count();
  }
  record_latency(bucket.tick_wall_ns);
  bucket.watts_by_group.clear();
}

void Aggregator::absorb_row(const std::string& formula, util::TimestampNs timestamp,
                            std::int64_t pid, double watts, std::uint64_t seq,
                            std::int64_t tick_wall_ns,
                            std::vector<AggregatedPower>& out) {
  if (dimension_ == AggregationDimension::kGroup) {
    auto& bucket = pending_groups_[formula];
    if (!bucket.watts_by_group.empty() && timestamp > bucket.timestamp) {
      emit_group_rows(formula, out);
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
    AggregatedPower& row = out.emplace_back();
    row.timestamp = timestamp;
    row.pid = pid;
    row.formula = formula;
    row.watts = watts;
    row.seq = seq;
    stage_.count();
    record_latency(tick_wall_ns);
    return;
  }

  auto it = pending_.find(formula);
  if (it != pending_.end() && timestamp > it->second.timestamp) {
    emit(formula, it->second, out);
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

void Aggregator::emit(const std::string& formula, const Group& group,
                      std::vector<AggregatedPower>& out) {
  AggregatedPower& row = out.emplace_back();
  row.timestamp = group.timestamp;
  row.pid = kMachinePid;
  row.formula = formula;
  // Prefer the machine-scope estimate when the formula produced one (it
  // includes the idle floor); otherwise sum the per-process estimates.
  row.watts = group.has_machine_row ? group.machine_watts : group.sum_watts;
  row.seq = group.seq;
  stage_.count();
  record_latency(group.tick_wall_ns);
}

void Aggregator::absorb(const EstimateBatch& batch, std::vector<AggregatedPower>& out) {
  if (!batch.features) return;
  const auto span = stage_.span(batch.seq);
  const std::size_t rows = batch.features->rows();
  for (std::size_t i = 0; i < rows && i < batch.watts.size(); ++i) {
    absorb_row(batch.formula, batch.timestamp, batch.features->pid(i), batch.watts[i],
               batch.seq, batch.tick_wall_ns, out);
  }
}

void Aggregator::flush(std::vector<AggregatedPower>& out) {
  for (const auto& [formula, group] : pending_) emit(formula, group, out);
  pending_.clear();
  for (auto& [formula, bucket] : pending_groups_) {
    if (!bucket.watts_by_group.empty()) emit_group_rows(formula, out);
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

}  // namespace powerapi::api
