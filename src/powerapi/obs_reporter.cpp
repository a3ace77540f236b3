#include "powerapi/obs_reporter.h"

#include <ostream>
#include <string>

#include "util/csv.h"

namespace powerapi::api {

namespace {

/// Escapes a metric name for a JSON key. Metric names are library-chosen
/// (dots, letters, digits), so this only defends against surprises.
void write_json_key(std::ostream& out, const std::string& name) {
  out << '"';
  for (const char c : name) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

MetricsReporter::MetricsReporter(obs::Observability& obs, Options options)
    : obs_(&obs), options_(options) {
  if (options_.every_n_ticks == 0) options_.every_n_ticks = 1;
}

void MetricsReporter::tick(std::uint64_t seq) {
  last_seq_ = seq;
  if (++ticks_seen_ % options_.every_n_ticks != 0) return;
  write_snapshot(seq);
}

void MetricsReporter::finish() {
  // Final flush: short runs (fewer ticks than the cadence) still report.
  write_snapshot(last_seq_);
}

void MetricsReporter::write_snapshot(std::uint64_t seq) {
  if (options_.out == nullptr) return;
  switch (options_.format) {
    case Format::kText: write_text(seq); break;
    case Format::kCsv: write_csv(seq); break;
    case Format::kJson: write_json(seq); break;
  }
}

void MetricsReporter::write_text(std::uint64_t seq) {
  std::ostream& out = *options_.out;
  const obs::MetricsSnapshot snap = obs_->metrics.snapshot();
  out << "# metrics snapshot (seq " << seq << ", " << snap.metrics.size()
      << " metrics)\n";
  for (const auto& metric : snap.metrics) {
    if (metric.kind == obs::MetricKind::kHistogram) {
      out << metric.name << " count=" << metric.hist.count
          << " mean=" << metric.hist.mean() << " p50=" << metric.hist.percentile(0.5)
          << " p99=" << metric.hist.percentile(0.99)
          << " overflow=" << metric.hist.overflow << "\n";
    } else {
      out << metric.name << " = " << metric.value << "\n";
    }
  }
  out.flush();
}

void MetricsReporter::write_csv(std::uint64_t seq) {
  std::ostream& out = *options_.out;
  // One header for the whole stream; CsvWriter would enforce one header per
  // writer instance, but snapshots span tick() calls, so track it here.
  if (!csv_header_written_) {
    util::CsvWriter writer(out);
    writer.header({"seq", "metric", "stat", "value"});
    csv_header_written_ = true;
  }
  const std::string seq_str = std::to_string(seq);
  const obs::MetricsSnapshot snap = obs_->metrics.snapshot();
  auto row = [&](const std::string& metric, std::string_view stat, double value) {
    out << seq_str << ',' << util::csv_escape(metric) << ',' << stat << ','
        << util::format_double(value) << '\n';
  };
  for (const auto& metric : snap.metrics) {
    if (metric.kind == obs::MetricKind::kHistogram) {
      row(metric.name, "count", static_cast<double>(metric.hist.count));
      row(metric.name, "mean", metric.hist.mean());
      row(metric.name, "p50", metric.hist.percentile(0.5));
      row(metric.name, "p99", metric.hist.percentile(0.99));
    } else {
      row(metric.name, "value", metric.value);
    }
  }
  out.flush();
}

void MetricsReporter::write_json(std::uint64_t seq) {
  std::ostream& out = *options_.out;
  const obs::MetricsSnapshot snap = obs_->metrics.snapshot();
  out << "{\"seq\":" << seq << ",\"metrics\":{";
  bool first = true;
  for (const auto& metric : snap.metrics) {
    if (!first) out << ',';
    first = false;
    write_json_key(out, metric.name);
    out << ':';
    if (metric.kind == obs::MetricKind::kHistogram) {
      out << "{\"count\":" << metric.hist.count << ",\"mean\":" << metric.hist.mean()
          << ",\"p50\":" << metric.hist.percentile(0.5)
          << ",\"p99\":" << metric.hist.percentile(0.99)
          << ",\"overflow\":" << metric.hist.overflow << '}';
    } else {
      out << metric.value;
    }
  }
  out << "}}\n";
  out.flush();
}

}  // namespace powerapi::api
