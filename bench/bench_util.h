#ifndef CLAIMS_BENCH_BENCH_UTIL_H_
#define CLAIMS_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure/table reproduction binaries: aligned text
// tables (the paper's rows/series) with an optional --csv mode, and the
// median and quartiles of repeated measurements.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/string_util.h"

namespace claims {
namespace bench {

inline bool CsvMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--csv") return true;
  }
  return false;
}

/// Column-aligned table printer.
class TablePrinter {
 public:
  explicit TablePrinter(bool csv) : csv_(csv) {}

  void Header(std::vector<std::string> cells) { Row(std::move(cells)); }

  void Row(std::vector<std::string> cells) {
    if (cells.size() > widths_.size()) widths_.resize(cells.size(), 0);
    for (size_t i = 0; i < cells.size(); ++i) {
      widths_[i] = std::max(widths_[i], cells[i].size());
    }
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    for (const auto& row : rows_) {
      std::string line;
      for (size_t i = 0; i < row.size(); ++i) {
        if (csv_) {
          if (i) line += ",";
          line += row[i];
        } else {
          if (i) line += "  ";
          line += row[i];
          line += std::string(widths_[i] - row[i].size(), ' ');
        }
      }
      std::printf("%s\n", line.c_str());
    }
  }

 private:
  bool csv_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<size_t> widths_;
};

inline std::string Sec(int64_t ns) { return StrFormat("%.1f", ns / 1e9); }
inline std::string Sec2(int64_t ns) { return StrFormat("%.2f", ns / 1e9); }
inline std::string Pct(double f) { return StrFormat("%.1f", f * 100); }
inline std::string Gb(int64_t bytes) {
  return StrFormat("%.2f", static_cast<double>(bytes) / (1 << 30));
}

inline void Title(const char* text) { std::printf("\n=== %s ===\n", text); }

/// Median and quartiles of a sample, in the sample's unit.
struct Spread {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
};

inline Spread SpreadOf(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  auto at = [&](double q) {
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  return Spread{at(0.5), at(0.25), at(0.75)};
}

}  // namespace bench
}  // namespace claims

#endif  // CLAIMS_BENCH_BENCH_UTIL_H_
