#include "powerapi/aggregators.h"

#include <algorithm>
#include <tuple>
#include <utility>

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

void Aggregator::absorb_group_row(const EstimateBatch& batch, std::int64_t pid,
                                  double watts, std::vector<AggregatedPower>& out) {
  auto& bucket = pending_groups_[batch.formula];
  if (!bucket.watts_by_group.empty() && batch.timestamp > bucket.timestamp) {
    emit_group_rows(batch.formula, out);
  }
  bucket.timestamp = batch.timestamp;
  bucket.seq = batch.seq;
  bucket.tick_wall_ns = batch.tick_wall_ns;
  std::string group;
  if (pid == kMachinePid) {
    group = "(machine)";
  } else if (group_of_) {
    group = group_of_(pid);
  }
  bucket.watts_by_group[group] += watts;
}

void Aggregator::emit(Group& group, std::vector<AggregatedPower>& out) {
  AggregatedPower& row = out.emplace_back();
  row.timestamp = group.timestamp;
  row.pid = kMachinePid;
  row.formula = group.formula;
  // Prefer the machine-scope estimate when the formula produced one (it
  // includes the idle floor); otherwise sum the per-process estimates.
  row.watts = group.has_machine_row ? group.machine_watts : group.sum_watts;
  row.seq = group.seq;
  stage_.count();
  record_latency(group.tick_wall_ns);
  group.open = false;
}

void Aggregator::absorb(const EstimateBatch& batch, std::size_t formula,
                        std::vector<AggregatedPower>& out) {
  if (!batch.features) return;
  const auto span = stage_.span(batch.seq);
  const std::size_t rows = std::min(batch.features->rows(), batch.watts.size());
  const model::FeatureMatrix& features = *batch.features;

  if (dimension_ == AggregationDimension::kGroup) {
    for (std::size_t i = 0; i < rows; ++i) {
      absorb_group_row(batch, features.pid(i), batch.watts[i], out);
    }
    return;
  }

  if (dimension_ == AggregationDimension::kPid) {
    // Per-PID view: forward every row unchanged.
    for (std::size_t i = 0; i < rows; ++i) {
      AggregatedPower& row = out.emplace_back();
      row.timestamp = batch.timestamp;
      row.pid = features.pid(i);
      row.formula = batch.formula;
      row.watts = batch.watts[i];
      row.seq = batch.seq;
      stage_.count();
      record_latency(batch.tick_wall_ns);
    }
    return;
  }

  if (formula >= pending_.size()) pending_.resize(formula + 1);
  Group& group = pending_[formula];
  for (std::size_t i = 0; i < rows; ++i) {
    if (group.open && batch.timestamp > group.timestamp) emit(group, out);
    if (!group.open) {
      group.open = true;
      group.formula = batch.formula;
      group.timestamp = batch.timestamp;
      group.sum_watts = 0.0;
      group.has_machine_row = false;
      group.machine_watts = 0.0;
      group.seq = batch.seq;
      group.tick_wall_ns = batch.tick_wall_ns;
    }
    if (features.pid(i) == kMachinePid) {
      group.has_machine_row = true;
      group.machine_watts = batch.watts[i];
    } else {
      group.sum_watts += batch.watts[i];
    }
  }
}

void Aggregator::flush(std::vector<AggregatedPower>& out) {
  std::vector<Group*> open;
  for (Group& group : pending_) {
    if (group.open) open.push_back(&group);
  }
  std::sort(open.begin(), open.end(),
            [](const Group* a, const Group* b) { return a->formula < b->formula; });
  for (Group* group : open) emit(*group, out);
  for (auto& [formula, bucket] : pending_groups_) {
    if (!bucket.watts_by_group.empty()) emit_group_rows(formula, out);
  }
  pending_groups_.clear();
}

// --- FleetSum ---

void FleetSum::add(const AggregatedPower& row, std::size_t hosts,
                   std::vector<AggregatedPower>& out) {
  if (!counts(row)) return;
  const auto name = std::find(formulas_.begin(), formulas_.end(), row.formula);
  const auto formula = static_cast<std::size_t>(name - formulas_.begin());
  if (name == formulas_.end()) formulas_.push_back(row.formula);

  // Buckets stay sorted by (formula, timestamp): this formula's run starts
  // at `first`, and the row's bucket sits at `at` within it.
  std::size_t first = 0;
  while (first < pending_.size() && pending_[first].formula < formula) ++first;
  std::size_t at = first;
  while (at < pending_.size() && pending_[at].formula == formula &&
         pending_[at].timestamp < row.timestamp) {
    ++at;
  }
  if (at == pending_.size() || pending_[at].formula != formula ||
      pending_[at].timestamp != row.timestamp) {
    pending_.insert(pending_.begin() + static_cast<std::ptrdiff_t>(at),
                    Bucket{formula, row.timestamp, 0.0, 0, 0});
  }
  Bucket& bucket = pending_[at];
  bucket.watts += row.watts;
  bucket.seq = row.seq;
  if (++bucket.hosts < hosts) return;

  // Complete: this formula's older buckets can no longer grow, so they
  // close (partial) ahead of it, in timestamp order.
  for (std::size_t i = first; i <= at; ++i) emit(pending_[i], out);
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(first),
                 pending_.begin() + static_cast<std::ptrdiff_t>(at) + 1);
}

void FleetSum::flush(std::vector<AggregatedPower>& out) {
  std::sort(pending_.begin(), pending_.end(), [this](const Bucket& a, const Bucket& b) {
    return std::tie(formulas_[a.formula], a.timestamp) <
           std::tie(formulas_[b.formula], b.timestamp);
  });
  for (const Bucket& bucket : pending_) emit(bucket, out);
  pending_.clear();
}

void FleetSum::emit(const Bucket& bucket, std::vector<AggregatedPower>& out) const {
  AggregatedPower& row = out.emplace_back();
  row.timestamp = bucket.timestamp;
  row.pid = kMachinePid;
  row.group = "(fleet)";
  row.formula = formulas_[bucket.formula];
  row.watts = bucket.watts;
  row.seq = bucket.seq;
}

}  // namespace powerapi::api
