// The runtime's benchmark: one workload per run, end-to-end metrics with
// tracing off, per-layer metrics from a separate traced run.
//
//   perfbench --workload fib|cholesky|epx|service --seed N --seconds S
//             --trace 0|1 [--spans PATH]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. A traced run also writes its spans to PATH.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fib|cholesky|epx|service --seed N --seconds S --trace 0|1 "
               "[--spans PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args a;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return usage("missing value");
    const char* k = argv[i];
    const char* v = argv[++i];
    char* end = nullptr;
    if (std::strcmp(k, "--workload") == 0) {
      a.workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      a.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return usage("bad --seed");
    } else if (std::strcmp(k, "--seconds") == 0) {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0.0 && a.seconds <= 600.0)) {
        return usage("bad --seconds");
      }
    } else if (std::strcmp(k, "--trace") == 0) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return usage("bad --trace");
      }
      a.trace = v[0] == '1';
    } else if (std::strcmp(k, "--spans") == 0) {
      spans_path = v;
    } else {
      return usage("unknown argument");
    }
  }
  void (*run)(const pb::Args&, pb::Result&, pb::Spans&, std::string&) =
      a.workload == "fib"        ? pb::run_fib
      : a.workload == "cholesky" ? pb::run_cholesky
      : a.workload == "epx"      ? pb::run_epx
      : a.workload == "service"  ? pb::run_service
                                 : nullptr;
  if (run == nullptr) return usage("unknown --workload");

  pb::Result result(a.trace);
  pb::Spans spans;
  std::string extra;
  const std::uint64_t origin = pb::now_ns();
  run(a, result, spans, extra);
  if (a.trace && !spans_path.empty()) {
    const std::string run_id = a.workload + "-seed" + std::to_string(a.seed) +
                               "-" + std::to_string(origin);
    std::string members = "\"workload\":\"" + a.workload +
                          "\",\"seed\":" + std::to_string(a.seed) +
                          ",\"nproc\":" + std::to_string(xk::hardware_cores()) +
                          ",\"metrics\":" + result.values_json();
    if (!extra.empty()) members += "," + extra;
    if (!spans.write(spans_path, run_id, origin, members)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans.size(),
                 spans_path.c_str());
  }
  result.print();
  return 0;
}
