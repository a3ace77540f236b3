#include "powerapi/reporters.h"

#include <ostream>

namespace powerapi::api {

void ConsoleReporter::report(const AggregatedPower& row) {
  (*out_) << "t=" << util::ns_to_seconds(row.timestamp) << "s ";
  if (!row.group.empty()) {
    (*out_) << "group=" << row.group;
  } else if (row.pid == kMachinePid) {
    (*out_) << "machine";
  } else {
    (*out_) << "pid=" << row.pid;
  }
  (*out_) << " " << row.formula << " " << row.watts << " W\n";
}

CsvReporter::CsvReporter(std::ostream& out) : writer_(out) {
  writer_.header({"timestamp_s", "pid", "group", "formula", "watts"});
}

void CsvReporter::report(const AggregatedPower& row) {
  writer_.row({util::format_double(util::ns_to_seconds(row.timestamp)),
               std::to_string(row.pid), row.group, row.formula,
               util::format_double(row.watts)});
}

std::vector<AggregatedPower> MemoryReporter::series(const std::string& formula) const {
  return series(formula, kMachinePid);
}

std::vector<AggregatedPower> MemoryReporter::series(const std::string& formula,
                                                    std::int64_t pid) const {
  std::vector<AggregatedPower> out;
  for (const auto& row : rows_) {
    // Group-dimension rows live in their own namespace: see group_series.
    if (row.formula == formula && row.pid == pid && row.group.empty()) {
      out.push_back(row);
    }
  }
  return out;
}

std::vector<AggregatedPower> MemoryReporter::group_series(const std::string& formula,
                                                          const std::string& group) const {
  std::vector<AggregatedPower> out;
  for (const auto& row : rows_) {
    if (row.formula == formula && row.group == group) out.push_back(row);
  }
  return out;
}

std::vector<double> MemoryReporter::watts_of(const std::vector<AggregatedPower>& rows) {
  std::vector<double> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(row.watts);
  return out;
}

}  // namespace powerapi::api
