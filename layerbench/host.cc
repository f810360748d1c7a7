#include "host.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "spans.h"
#include "stats.h"

#ifndef LB_BUILD_FLAGS
#define LB_BUILD_FLAGS "unknown"
#endif
#ifndef LB_COMPILER
#define LB_COMPILER "unknown"
#endif

namespace layerbench {

namespace {

/// A fixed amount of dependent integer work that the optimizer cannot
/// fold away.
uint64_t Spin(uint64_t rounds) {
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t i = 0; i < rounds; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double SpinSeconds(unsigned threads, uint64_t rounds) {
  std::atomic<uint64_t> sink{0};
  const int64_t start = NowNs();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, rounds] { sink += Spin(rounds); });
  }
  for (std::thread& t : pool) t.join();
  return static_cast<double>(NowNs() - start) / 1e9 + (sink == 1 ? 1e-12 : 0);
}

double StatusFieldMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace

HostStamp StampHost(uint64_t seed) {
  HostStamp stamp;
  char name[256] = {};
  if (gethostname(name, sizeof(name) - 1) == 0) stamp.hostname = name;
  stamp.compiler = LB_COMPILER;
  stamp.build_flags = LB_BUILD_FLAGS;
  stamp.nproc = std::max(1u, std::thread::hardware_concurrency());
  stamp.seed = seed;
  // Size one unit to ~40 ms on this host, then take the best of three
  // single-thread and nproc-thread timings.
  uint64_t rounds = 1u << 20;
  while (SpinSeconds(1, rounds) < 0.04 && rounds < (1ull << 34)) rounds *= 2;
  double one = 1e9;
  double many = 1e9;
  for (int i = 0; i < 3; ++i) {
    one = std::min(one, SpinSeconds(1, rounds));
    many = std::min(many, SpinSeconds(stamp.nproc, rounds));
  }
  stamp.effective_parallelism =
      static_cast<double>(stamp.nproc) * Ratio(one, many);
  return stamp;
}

std::string HostStamp::ToJson() const {
  return "{\"hostname\": " + JsonString(hostname) +
         ", \"compiler\": " + JsonString(compiler) +
         ", \"build_flags\": " + JsonString(build_flags) +
         ", \"nproc\": " + std::to_string(nproc) +
         ", \"effective_parallelism\": " + FullDigits(effective_parallelism) +
         ", \"seed\": " + std::to_string(seed) + "}";
}

double PeakRssMb() { return StatusFieldMb("VmHWM"); }
double CurrentRssMb() { return StatusFieldMb("VmRSS"); }

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace layerbench
