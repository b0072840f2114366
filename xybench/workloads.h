#ifndef XYBENCH_WORKLOADS_H_
#define XYBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench_support.h"

namespace xybench {

/// DiffBatch workers in the timed crawl and history and in the traced
/// run's multi-threaded pass. Fixed, so every result under a workload's
/// name is comparable.
inline constexpr int kThreads = 2;

/// One benchmark invocation. Inputs are generated from `seed` alone.
struct RunOptions {
  std::string workload;    // crawl | history
  uint64_t seed = 1;
  double seconds = 10;     // Length of the measured window.
  bool trace = false;      // Per-layer traced run instead of the timed one.
  bool tiny = false;       // Small inputs, for the benchmark's own tests.
  bool corrupt = false;    // Negative control: corrupt one checked output.
};

/// Runs the workload and fills `result`. Returns false for an unknown
/// workload name (nothing measured).
bool RunWorkload(const RunOptions& options, RunResult* result);

}  // namespace xybench

#endif  // XYBENCH_WORKLOADS_H_
