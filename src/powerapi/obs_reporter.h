// MetricsReporter: writes the monitor's own metrics.
//
// A FleetMonitor owns its metrics reporters and calls tick() once per tick
// of host 0, with that tick's seq, when it settles the step. Every N ticks
// the reporter takes a registry snapshot and writes it in one of three
// formats: human-readable text, CSV rows (via util::CsvWriter, one row per
// metric/statistic) or JSON lines (one snapshot object per line). Snapshots
// run the registry's collectors, so every emission includes the
// SelfMonitor's "self.*" gauges — the monitor reports its own cost in the
// same stream as everything else. finish() writes a final snapshot, which
// the fleet does when it is destroyed, so short runs always emit one.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "obs/observability.h"

namespace powerapi::api {

class MetricsReporter final {
 public:
  enum class Format { kText, kCsv, kJson };

  struct Options {
    /// Must outlive the reporter's last call (finish()).
    std::ostream* out = nullptr;
    Format format = Format::kText;
    std::uint64_t every_n_ticks = 1;  ///< Snapshot cadence (0 behaves as 1).
  };

  MetricsReporter(obs::Observability& obs, Options options);

  /// One tick of the followed host; writes a snapshot every N-th call.
  void tick(std::uint64_t seq);
  /// Writes the final snapshot, stamped with the last tick's seq.
  void finish();

 private:
  void write_snapshot(std::uint64_t seq);
  void write_text(std::uint64_t seq);
  void write_csv(std::uint64_t seq);
  void write_json(std::uint64_t seq);

  obs::Observability* obs_;
  Options options_;
  std::uint64_t ticks_seen_ = 0;
  std::uint64_t last_seq_ = 0;
  bool csv_header_written_ = false;
};

}  // namespace powerapi::api
