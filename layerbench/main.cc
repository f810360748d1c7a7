// layerbench: one workload of the phrasemine benchmark per invocation.
//
//   layerbench --workload <hot_zipf|cold_tail|churn> --seed <n>
//              --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints the host stamp, a human-readable report, and as its last line one
// JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The same
// report (plus the spans of a traced run) is written under --out. Exits 1
// when any output failed verification, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "host.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "layerbench: %s\nusage: layerbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\nworkloads:",
               why);
  for (const auto& w : layerbench::AllWorkloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  layerbench::RunOptions options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.scratch_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const layerbench::WorkloadSettings* w = layerbench::FindWorkload(workload);
  if (w == nullptr) return Usage("unknown or missing --workload");
  if (!have_seed) return Usage("missing --seed");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  std::filesystem::create_directories(options.scratch_dir);

  const layerbench::HostStamp host = layerbench::StampHost(options.seed);
  std::printf("layerbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w->name.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::printf("host: %s\n", host.ToJson().c_str());
  std::fflush(stdout);

  layerbench::RunOutput out = layerbench::RunWorkload(*w, options);
  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());

  const std::string stem = options.scratch_dir + "/" + w->name + "-seed" +
                           std::to_string(options.seed) +
                           (options.trace ? "-trace" : "");
  const std::string line = layerbench::ResultLine(out.result);
  {
    std::ofstream report(stem + ".json");
    report << "{\"workload\": " << layerbench::JsonString(w->name)
           << ", \"host\": " << host.ToJson()
           << ", \"digest\": " << layerbench::JsonString(out.digest)
           << ", \"report_only\": {";
    for (std::size_t i = 0; i < out.report_only.size(); ++i) {
      const layerbench::Metric& m = out.report_only[i];
      report << (i > 0 ? ", " : "") << layerbench::JsonString(m.name)
             << ": {\"value\": " << layerbench::FullDigits(m.value)
             << ", \"unit\": " << layerbench::JsonString(m.unit) << "}";
    }
    report << "}, \"result\": " << line << "}\n";
  }
  if (options.trace) {
    std::ofstream spans(stem + ".spans.jsonl");
    spans << out.spans.ToJsonLines();
  }
  std::printf("%s\n", line.c_str());
  return out.result.correct ? 0 : 1;
}
