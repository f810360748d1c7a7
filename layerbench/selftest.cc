// Self-test of the benchmark's own statistics and span code. Prints one
// sample result line last, which run.py --self-test parses as JSON.
// Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace layerbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestPercentiles() {
  Check(Near(Percentile(Iota(100), 0.5), 50), "p50 of 1..100 is 50");
  Check(Near(Percentile(Iota(1000), 0.99), 990), "p99 of 1..1000 is 990");
  Check(SamplesBeyond(1000, 0.99) == 10, "p99 of 1000 leaves 10 beyond");
  Check(SamplesBeyond(999, 0.99) == 9, "p99 of 999 leaves 9 beyond");
  Check(Near(Median({}), 0.0), "median of nothing is 0");

  Tail t = TailPercentile(Iota(1000));
  Check(Near(t.q, 0.99) && Near(t.value, 990) && t.n == 1000,
        "1000 samples report p99");
  t = TailPercentile(Iota(999));
  Check(Near(t.q, 0.989) && SamplesBeyond(999, t.q) >= kMinBeyond,
        "999 samples fall back to the highest percentile with 10 beyond");
  t = TailPercentile(Iota(500));
  Check(Near(t.q, 0.98) && Near(t.value, 490), "500 samples report p98");
  t = TailPercentile(Iota(100));
  Check(Near(t.q, 0.9) && Near(t.value, 90), "100 samples report p90");
  t = TailPercentile(Iota(19));
  Check(t.q == 0.0 && Near(t.value, 10), "19 samples report no tail");
  for (int n : {20, 37, 150, 1234, 5000}) {
    t = TailPercentile(Iota(n));
    Check(SamplesBeyond(n, t.q) >= kMinBeyond &&
              (t.q >= 0.99 || SamplesBeyond(n, t.q + 0.001) < kMinBeyond),
          "tail is the highest percentile with >= 10 beyond");
  }
}

void TestGrowth() {
  std::vector<double> flat(40, 2.0);
  Check(Near(QuarterGrowth(flat), 1.0), "flat cycle grows 1.0");
  std::vector<double> linear = Iota(40);  // quarters: 1..10 and 31..40
  Check(Near(QuarterGrowth(linear), 35.0 / 5.0), "linear cycle growth 7");
  Check(Near(QuarterGrowth(Iota(7)), 0.0), "short cycle has no growth");
  Check(Near(Ratio(3, 0), 0.0) && Near(Ratio(3, 2), 1.5), "ratio");
}

Span Make(const char* name, int64_t start, int64_t end, int32_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start * 1000000;  // milliseconds in, nanoseconds stored
  s.end_ns = end * 1000000;
  s.parent = parent;
  s.request = 7;
  return s;
}

void TestSelfTime() {
  SpanRecorder rec;
  const int32_t root = rec.Add(Make("request", 0, 100, -1));
  rec.Add(Make("plan", 0, 10, root));
  const int32_t mine = rec.Add(Make("mine", 20, 60, root));
  rec.Add(Make("kernel", 30, 40, mine));
  rec.Add(Make("kernel", 35, 50, mine));   // overlaps its sibling
  rec.Add(Make("late", 90, 130, root));    // runs past its parent
  const std::vector<double> self = rec.SelfMs();
  Check(Near(self[root], 100 - 10 - 40 - 10), "root self time (clipped child)");
  Check(Near(self[mine], 40 - 20), "overlapping children counted once");
  Check(Near(self[3], 10) && Near(self[4], 15), "leaf self time is duration");
  const auto by_name = rec.SelfMsByName();
  Check(by_name.at("kernel").size() == 2, "self times grouped by name");

  SpanRecorder live;
  {
    ScopedSpan outer(&live, "outer", 1);
    ScopedSpan inner(&live, "inner", 1);
  }
  Check(live.spans().size() == 2 && live.spans()[1].parent == 0 &&
            live.spans()[0].parent == -1,
        "scoped spans nest under the innermost open span");
  Check(live.ToJsonLines().find("\"name\": \"inner\"") != std::string::npos,
        "spans serialize");
}

void TestReport() {
  RunResult r;
  r.attempted = 12;
  r.failed = 0;
  r.metrics = {{"query_p50_ms", 1.0 / 3.0, "ms"},
               {"odd \"name\"", NAN, "1/s"}};
  const std::string line = ResultLine(r);
  Check(line.find("0.33333333333333331") != std::string::npos,
        "values keep all their digits");
  Check(line.find("\"value\": 0,") != std::string::npos,
        "non-finite values become 0");
  Check(line.find("odd \\\"name\\\"") != std::string::npos, "names escaped");
  std::printf("%s\n", line.c_str());
}

}  // namespace
}  // namespace layerbench

int main() {
  layerbench::TestPercentiles();
  layerbench::TestGrowth();
  layerbench::TestSelfTime();
  layerbench::TestReport();
  if (layerbench::failures > 0) {
    std::fprintf(stderr, "%d self-test checks failed\n", layerbench::failures);
    return 1;
  }
  return 0;
}
