// The three workloads: set-up, the untraced run that gives the end-to-end
// metrics, the traced replays that give the per-layer metrics, and the
// output verification.
#ifndef LAYERBENCH_WORKLOADS_H_
#define LAYERBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "spans.h"
#include "stats.h"

namespace layerbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's own files (persisted index, spans).
  std::string scratch_dir = ".bench_out";
};

struct NamedUnit {
  const char* name;
  const char* unit;
};

/// The metric catalogue. The result line carries every end-to-end metric
/// of an untraced run, and every per-layer metric of a traced one;
/// BENCHMARK.json lists the same names.
const std::vector<NamedUnit>& EndToEndMetrics();
const std::vector<NamedUnit>& PerLayerMetrics();

struct RunOutput {
  RunResult result;
  /// Human-readable lines printed above the result line: every metric the
  /// run computed (including the workload-specific end-to-end ones that
  /// the result line cannot carry), tail percentiles with their sample
  /// counts, and the verification outcome.
  std::vector<std::string> notes;
  /// End-to-end metrics the result line does not carry (query_qps,
  /// fail_share, churn's ingest and publish-lag figures); the report file
  /// lists them.
  std::vector<Metric> report_only;
  /// Fingerprint of the first verified results, equal across runs of the
  /// same seed.
  std::string digest;
  /// Spans of the traced replays (empty when untraced).
  SpanRecorder spans;
};

RunOutput RunWorkload(const WorkloadSettings& w, const RunOptions& options);

}  // namespace layerbench

#endif  // LAYERBENCH_WORKLOADS_H_
