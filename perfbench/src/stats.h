#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Summary statistics the benchmark reports. Kept free of engine types so the
// self-tests pin the arithmetic down on hand-made samples.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the value at 1-based rank ceil(p/100 * n) of the
/// sorted samples. `p` in (0, 100]; samples need not be sorted. Empty input
/// yields 0.
double Percentile(std::vector<double> samples, double p);

/// Samples strictly after the nearest-rank position of `p`, i.e. n - rank.
int64_t SamplesBeyond(int64_t n, double p);

/// The percentile, but only when at least `min_beyond` samples lie beyond its
/// rank; a tail percentile resting on fewer samples is not reported.
std::optional<double> GuardedPercentile(const std::vector<double>& samples,
                                        double p, int64_t min_beyond = 10);

/// Median; the mean of the two middle values for an even count. 0 if empty.
double Median(std::vector<double> samples);

/// Geometric mean over query types of each type's median sample: the TPC-H
/// power-metric idea. Every type weighs the same whatever its frequency, and
/// unlike a pooled median the result cannot jump between two types' clusters.
/// Types with no samples are skipped; 0 when no type has samples.
double GeomeanOfMedians(
    const std::map<std::string, std::vector<double>>& by_type);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
