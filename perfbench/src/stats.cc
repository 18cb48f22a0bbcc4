#include "src/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

int64_t NearestRank(int64_t n, double p) {
  // p * n first: exact for whole p, so ceil sees no rounding residue.
  const auto rank =
      static_cast<int64_t>(std::ceil(p * static_cast<double>(n) / 100.0));
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const int64_t n = static_cast<int64_t>(samples.size());
  const int64_t rank = NearestRank(n, p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

int64_t SamplesBeyond(int64_t n, double p) {
  return n <= 0 ? 0 : n - NearestRank(n, p);
}

std::optional<double> GuardedPercentile(const std::vector<double>& samples,
                                        double p, int64_t min_beyond) {
  if (SamplesBeyond(static_cast<int64_t>(samples.size()), p) < min_beyond) {
    return std::nullopt;
  }
  return Percentile(samples, p);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double GeomeanOfMedians(
    const std::map<std::string, std::vector<double>>& by_type) {
  double log_sum = 0;
  int types = 0;
  for (const auto& [type, samples] : by_type) {
    if (samples.empty()) continue;
    log_sum += std::log(Median(samples));
    ++types;
  }
  return types == 0 ? 0 : std::exp(log_sum / types);
}

}  // namespace perfbench
