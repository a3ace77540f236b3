#include "util/csv.h"

#include <charconv>
#include <limits>
#include <stdexcept>

namespace powerapi::util {

std::string csv_escape(std::string_view field) {
  const bool needs_quotes = field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void CsvWriter::header(std::span<const std::string> columns) {
  if (header_written_) throw std::logic_error("CsvWriter: header written twice");
  if (columns.empty()) throw std::invalid_argument("CsvWriter: empty header");
  columns_ = columns.size();
  header_written_ = true;
  write_fields(columns);
}

void CsvWriter::header(std::initializer_list<std::string_view> columns) {
  std::vector<std::string> copy(columns.begin(), columns.end());
  header(std::span<const std::string>(copy));
}

void CsvWriter::row(std::span<const std::string> fields) {
  if (header_written_ && fields.size() != columns_) {
    throw std::invalid_argument("CsvWriter: row width does not match header");
  }
  write_fields(fields);
  ++rows_;
}

void CsvWriter::row(std::initializer_list<std::string_view> fields) {
  std::vector<std::string> copy(fields.begin(), fields.end());
  row(std::span<const std::string>(copy));
}

void CsvWriter::write_fields(std::span<const std::string> fields) {
  bool first = true;
  for (const auto& f : fields) {
    if (!first) *out_ << ',';
    first = false;
    *out_ << csv_escape(f);
  }
  *out_ << '\n';
}

std::string format_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general,
                                 std::numeric_limits<double>::max_digits10);
  return std::string(buf, res.ptr);
}

}  // namespace powerapi::util
