// Bench-side tracing: spans recorded in the benchmark's own code around
// calls into each layer's public functions. The program under test is not
// instrumented; a span measures the call the benchmark made.
#ifndef LAYERBENCH_SPANS_H_
#define LAYERBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace layerbench {

/// Monotonic nanoseconds.
int64_t NowNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in the recorder, -1 for a root.
  int32_t parent = -1;
  /// Spans of one request (or batch) share this id.
  uint64_t request = 0;
};

/// Keeps every span in memory until the run ends. Single-threaded: the
/// benchmark drives the program from one client thread, and spans nest
/// strictly on that thread, so the parent of a new span is the innermost
/// open one.
class SpanRecorder {
 public:
  int32_t Begin(std::string name, uint64_t request);
  void End(int32_t id);
  /// Appends a finished span as given (the self-test builds overlapping
  /// children this way).
  int32_t Add(Span span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part of its interval covered by the
  /// union of its children's intervals (children clipped to the parent,
  /// overlaps counted once), in milliseconds.
  std::vector<double> SelfMs() const;
  /// Self-time samples grouped by span name.
  std::map<std::string, std::vector<double>> SelfMsByName() const;

  /// One JSON object per line: name, start_ns, end_ns, parent, request.
  std::string ToJsonLines() const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, uint64_t request)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(std::move(name), request)
                                : -1) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void End() {
    if (recorder_ != nullptr && id_ >= 0) recorder_->End(id_);
    id_ = -1;
  }

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

}  // namespace layerbench

#endif  // LAYERBENCH_SPANS_H_
