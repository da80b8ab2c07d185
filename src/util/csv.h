// Tiny CSV / aligned-table emitters used by the benchmark harnesses to
// print paper-style result rows and to dump machine-readable series,
// plus the two flag-value parsers the front ends share.
#ifndef EXTSCC_UTIL_CSV_H_
#define EXTSCC_UTIL_CSV_H_

#include <cstdint>
#include <string>
#include <vector>

namespace extscc::util {

// Collects rows of string cells and renders either CSV or an aligned
// ASCII table (the format every bench binary prints).
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  std::string ToCsv() const;
  std::string ToAligned() const;

  // Writes ToCsv() to `path`. Returns false on I/O failure.
  bool WriteCsvFile(const std::string& path) const;

  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double with `digits` fractional digits.
std::string FormatDouble(double value, int digits);

// 12345678 -> "12,345,678" (easier to eyeball I/O counts).
std::string FormatCount(std::uint64_t value);

// "a,b,,c" -> {"a", "b", "c"}: comma-separated list flag values
// (--scratch-dirs in the benches and extscc_tool); empty segments drop.
std::vector<std::string> SplitCommaList(const std::string& text);

// Strict whole-string decimal: digits only (no sign, blank, suffix or
// exponent), at most `max`. strtoull would read "4M" as 4, "1e5" as 1
// and "-1" as 2^64-1. Returns false, leaving *out untouched, otherwise.
// Every numeric argument of the machine options, the device-model
// spec and extscc_tool goes through it.
bool ParseDecimal(const std::string& text, std::uint64_t max,
                  std::uint64_t* out);

}  // namespace extscc::util

#endif  // EXTSCC_UTIL_CSV_H_
