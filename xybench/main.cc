// xybench: the repository benchmark. Run it through run.py, which builds
// it; see README.md for the workloads and metrics.
//
//   xybench --workload crawl|history --seed N --seconds S
//           --trace 0|1 [--tiny] [--corrupt] [--commit REV]
//
// Prints a provenance line, an info line, and as its last line the result
// object {"correct", "attempted", "failed", "metrics"}.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

#ifndef XYBENCH_BUILD_TYPE
#define XYBENCH_BUILD_TYPE "unknown"
#endif
#ifndef XYBENCH_COMPILER
#define XYBENCH_COMPILER "unknown"
#endif

bool Optimized(const std::string& build_type) {
  return build_type == "Release" || build_type == "RelWithDebInfo" ||
         build_type == "MinSizeRel";
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int Usage(const char* message) {
  std::fprintf(stderr, "xybench: %s\n", message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  xybench::RunOptions options;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--tiny") {
      options.tiny = true;
    } else if (flag == "--corrupt") {
      options.corrupt = true;
    } else if (!has_value) {
      return Usage(("missing value for " + flag).c_str());
    } else if (flag == "--workload") {
      options.workload = argv[++i];
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--commit") {
      commit = argv[++i];
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || options.seconds <= 0) {
    return Usage("need --workload and a positive --seconds");
  }

  const std::string build_type = XYBENCH_BUILD_TYPE;
  if (!Optimized(build_type)) {
    std::fprintf(stderr,
                 "\n*** WARNING: xybench was built as '%s', not an optimized "
                 "build. Timings are meaningless. ***\n\n",
                 build_type.c_str());
  }
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"tiny\": %d, \"threads\": %d, \"nproc\": %ld, "
      "\"compiler\": %s, \"build_type\": %s, \"optimized\": %s, "
      "\"commit\": %s, \"store\": \"in-memory Env (RAM)\"}}\n",
      Quote(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, options.tiny ? 1 : 0, xybench::kThreads,
      sysconf(_SC_NPROCESSORS_ONLN), Quote(XYBENCH_COMPILER).c_str(),
      Quote(build_type).c_str(), Optimized(build_type) ? "true" : "false",
      Quote(commit).c_str());
  std::fflush(stdout);

  xybench::RunResult result;
  if (!xybench::RunWorkload(options, &result)) {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  // A run that failed before its first op still attempted something.
  result.attempted = std::max<uint64_t>({result.attempted, result.failed, 1});
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "xybench: check failed: %s\n", e.c_str());
  }
  std::string info = "{\"info\": {";
  bool first = true;
  for (const auto& [key, value] : result.info) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    info += (first ? "" : ", ") + Quote(key) + ": " + number;
    first = false;
  }
  std::printf("%s}}\n%s\n", info.c_str(), result.ToJson().c_str());
  return 0;
}
