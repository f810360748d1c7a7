// Statistics and report formatting shared by the benchmark and its
// self-test: the percentile rule, the cycle growth/ratio metrics, and the
// one-line JSON result the benchmark prints last.
#ifndef LAYERBENCH_STATS_H_
#define LAYERBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace layerbench {

/// A tail percentile is reported only when at least this many samples
/// lie strictly beyond its rank.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile, q in (0, 1]: the value at 1-based rank
/// ceil(q * n) of the sorted samples. 0 for an empty input.
double Percentile(std::vector<double> values, double q);

/// Samples strictly beyond the nearest rank of percentile q.
std::size_t SamplesBeyond(std::size_t n, double q);

double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

/// The highest percentile at most `want` that leaves kMinBeyond samples
/// beyond it, in steps of 0.001 (p99 needs n >= 1000, p98 n >= 500...).
/// `q` is 0 when fewer than 2 * kMinBeyond samples exist; `value` is then
/// the median, so the field is never undefined.
struct Tail {
  double q = 0.0;
  double value = 0.0;
  std::size_t n = 0;
};
Tail TailPercentile(const std::vector<double>& values, double want = 0.99);

/// a / b, or 0 when b is 0.
double Ratio(double a, double b);

/// Median of the last quarter of `cycle` over the median of its first
/// quarter (1.0 means the per-operation cost did not grow across the
/// cycle). 0 when the cycle has fewer than 8 samples.
double QuarterGrowth(const std::vector<double>& cycle);

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a run reports. `metrics` is what the result line carries;
/// `notes` are printed above it for a human reader.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The benchmark's last output line: one JSON object with exactly the
/// keys correct, attempted, failed and metrics. Non-finite values are
/// written as 0 so the line always parses.
std::string ResultLine(const RunResult& result);

/// JSON string literal with the minimal escaping the report needs.
std::string JsonString(const std::string& text);

/// Renders a double with all its significant digits.
std::string FullDigits(double value);

}  // namespace layerbench

#endif  // LAYERBENCH_STATS_H_
