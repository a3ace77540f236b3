// Tiny CSV writer used by reporters and benchmark harnesses to dump time
// series the user can plot (gnuplot/python) against the paper's figures.
#pragma once

#include <initializer_list>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace powerapi::util {

/// Escapes a field per RFC 4180 when it contains separators/quotes/newlines.
std::string csv_escape(std::string_view field);

/// Streams rows to an std::ostream owned by the caller. Enforces a constant
/// column count after the header has been written.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  /// Writes the header row; must be called at most once and first.
  void header(std::span<const std::string> columns);
  void header(std::initializer_list<std::string_view> columns);

  void row(std::span<const std::string> fields);
  void row(std::initializer_list<std::string_view> fields);

  std::size_t rows_written() const noexcept { return rows_; }

 private:
  void write_fields(std::span<const std::string> fields);

  std::ostream* out_;
  std::size_t columns_ = 0;
  std::size_t rows_ = 0;
  bool header_written_ = false;
};

/// Formats a double compactly but losslessly (max_digits10).
std::string format_double(double v);

}  // namespace powerapi::util
