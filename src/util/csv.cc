#include "util/csv.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/logging.h"

namespace extscc::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::AddRow(std::vector<std::string> row) {
  CHECK_EQ(row.size(), header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::ToCsv() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (i) out << ',';
    out << header_[i];
  }
  out << '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out << ',';
      out << row[i];
    }
    out << '\n';
  }
  return out.str();
}

std::string Table::ToAligned() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      out << "  " << row[i]
          << std::string(widths[i] - row[i].size(), ' ');
    }
    out << '\n';
  };
  emit_row(header_);
  std::size_t total = 2 * header_.size();
  for (std::size_t w : widths) total += w;
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

bool Table::WriteCsvFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << ToCsv();
  return static_cast<bool>(out);
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string FormatCount(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  int since_sep = static_cast<int>(digits.size() % 3);
  if (since_sep == 0) since_sep = 3;
  for (char c : digits) {
    if (since_sep == 0) {
      out += ',';
      since_sep = 3;
    }
    out += c;
    --since_sep;
  }
  return out;
}

std::vector<std::string> SplitCommaList(const std::string& text) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    if (c == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

bool ParseDecimal(const std::string& text, std::uint64_t max,
                  std::uint64_t* out) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value > max) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace extscc::util
