// Reporters: convert aggregated rows into a consumable format — console
// lines, CSV rows, user callbacks, or in-memory series for tests and
// benches.
//
// A reporter attached to a host's Pipeline, or to a FleetMonitor's fleet
// dimension, is called directly, once per row, in attach order. Only
// CallbackReporter is also an actor, so it can be spawned on a bus topic:
// a sink subscribed to "fleet/power:aggregated", or a collector-side one
// behind a BusBridge.
#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "actors/actor.h"
#include "powerapi/messages.h"
#include "util/csv.h"

namespace powerapi::api {

/// Base of every row reporter: report() takes one row.
class Reporter {
 public:
  virtual ~Reporter() = default;
  virtual void report(const AggregatedPower& row) = 0;
};

/// Human-readable rows on an ostream the caller owns (commonly std::cout).
class ConsoleReporter final : public Reporter {
 public:
  explicit ConsoleReporter(std::ostream& out) : out_(&out) {}

  void report(const AggregatedPower& row) override;

 private:
  std::ostream* out_;
};

/// CSV rows: timestamp_s, pid, formula, watts.
class CsvReporter final : public Reporter {
 public:
  explicit CsvReporter(std::ostream& out);

  void report(const AggregatedPower& row) override;

 private:
  util::CsvWriter writer_;
};

/// Invokes a user callback per aggregated row — the embedding API. As an
/// actor, receive() unwraps each AggregatedPower and reports it.
class CallbackReporter final : public Reporter, public actors::Actor {
 public:
  using Callback = std::function<void(const AggregatedPower&)>;
  explicit CallbackReporter(Callback callback) : callback_(std::move(callback)) {}

  void report(const AggregatedPower& row) override { callback_(row); }
  void receive(actors::Envelope& envelope) override {
    if (const auto* row = envelope.payload.get<AggregatedPower>()) report(*row);
  }

 private:
  Callback callback_;
};

/// Accumulates rows in memory, indexed by formula; the workhorse of tests
/// and the benchmark harnesses.
class MemoryReporter final : public Reporter {
 public:
  void report(const AggregatedPower& row) override { rows_.push_back(row); }

  /// Rows for one formula, machine scope only, in arrival order.
  std::vector<AggregatedPower> series(const std::string& formula) const;
  /// Rows for one (formula, pid).
  std::vector<AggregatedPower> series(const std::string& formula, std::int64_t pid) const;
  /// Rows for one (formula, group) — kGroup aggregation output.
  std::vector<AggregatedPower> group_series(const std::string& formula,
                                            const std::string& group) const;
  /// Watts-only convenience extraction.
  static std::vector<double> watts_of(const std::vector<AggregatedPower>& rows);

  std::size_t total_rows() const noexcept { return rows_.size(); }
  const std::vector<AggregatedPower>& all() const noexcept { return rows_; }

 private:
  std::vector<AggregatedPower> rows_;
};

}  // namespace powerapi::api
