#include "spans.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "stats.h"

namespace layerbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanRecorder::Begin(std::string name, uint64_t request) {
  Span span;
  span.name = std::move(name);
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int32_t id) {
  spans_[id].end_ns = NowNs();
  // Spans close innermost first; tolerate an out-of-order close by
  // dropping everything opened after `id` from the open stack.
  auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

int32_t SpanRecorder::Add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<double> SpanRecorder::SelfMs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[s.parent];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[s.parent].emplace_back(lo, hi);
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& ivs = children[i];
    std::sort(ivs.begin(), ivs.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : ivs) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    const int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    self[i] = static_cast<double>(duration - covered) / 1e6;
  }
  return self;
}

std::map<std::string, std::vector<double>> SpanRecorder::SelfMsByName()
    const {
  const std::vector<double> self = SelfMs();
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name].push_back(self[i]);
  }
  return out;
}

std::string SpanRecorder::ToJsonLines() const {
  std::string out;
  for (const Span& s : spans_) {
    out += "{\"name\": " + JsonString(s.name) +
           ", \"start_ns\": " + std::to_string(s.start_ns) +
           ", \"end_ns\": " + std::to_string(s.end_ns) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"request\": " + std::to_string(s.request) + "}\n";
  }
  return out;
}

}  // namespace layerbench
