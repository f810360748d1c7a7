#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace layerbench {

namespace {

std::size_t NearestRank(std::size_t n, double q) {
  // ceil(q * n) with a small guard so that e.g. 0.99 * 1000 stays 990.
  const double raw = q * static_cast<double>(n);
  std::size_t rank = static_cast<std::size_t>(std::ceil(raw - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - NearestRank(n, q);
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

Tail TailPercentile(const std::vector<double>& values, double want) {
  Tail tail;
  tail.n = values.size();
  if (tail.n < 2 * kMinBeyond) {
    tail.value = Median(values);
    return tail;
  }
  // Walk down from `want` in 0.001 steps until kMinBeyond samples remain
  // beyond the rank; integer permille avoids float drift in the steps.
  for (long permille = std::lround(want * 1000.0); permille >= 500;
       --permille) {
    const double q = static_cast<double>(permille) / 1000.0;
    if (SamplesBeyond(tail.n, q) >= kMinBeyond) {
      tail.q = q;
      tail.value = Percentile(values, q);
      return tail;
    }
  }
  tail.value = Median(values);
  return tail;
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double QuarterGrowth(const std::vector<double>& cycle) {
  if (cycle.size() < 8) return 0.0;
  const std::size_t quarter = cycle.size() / 4;
  std::vector<double> first(cycle.begin(), cycle.begin() + quarter);
  std::vector<double> last(cycle.end() - quarter, cycle.end());
  return Ratio(Median(last), Median(first));
}

std::string FullDigits(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string ResultLine(const RunResult& result) {
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) line += ", ";
    line += JsonString(m.name) + ": {\"value\": " + FullDigits(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return line + "}}";
}

}  // namespace layerbench
