#ifndef XYBENCH_BENCH_SUPPORT_H_
#define XYBENCH_BENCH_SUPPORT_H_

// Measurement plumbing shared by the workloads: the measured window, a
// RAM-backed counting Env, an in-memory span tracer and the result
// writer. Nothing here reaches into the library; it only wraps public
// types.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/env.h"

namespace xybench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Median of `values`; 0 when empty.
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// The measured window: every timed operation, in order. Its summary is
/// the median over up to five consecutive blocks of equal busy time (each
/// holding at least 100 latency samples), so a few seconds of host noise
/// move at most one block instead of the whole result.
class Window {
 public:
  /// One timed operation: `ops` units of work done in `seconds`; a
  /// latency sample unless it is background work timed for throughput
  /// only.
  void Add(double seconds, double ops, bool latency_sample);

  double busy_seconds() const { return busy_; }

  struct Summary {
    double ops_per_s = 0;
    double p50_ms = 0;
    double p90_ms = 0;
    size_t samples = 0;
    size_t blocks = 0;
    double slowest_block_ops_per_s = 0;
    double fastest_block_ops_per_s = 0;
  };
  Summary Summarize() const;

 private:
  struct Entry {
    double seconds;
    double ops;
    bool latency_sample;
  };
  std::vector<Entry> entries_;
  double busy_ = 0;
};

/// A RAM-backed file system behind the library's Env interface, counting
/// every operation. The version store runs unchanged on top of it (every
/// write, sync, rename and read of the crash-safe protocol still goes
/// through the Env), but no device is involved: the benchmark may write
/// only inside its checkout, and on the checkout's disk the timings
/// followed the host's writeback rather than the code. As on tmpfs, a
/// sync is a no-op; device cost is reported as deterministic counts.
/// Thread-safe (DiffBatch workers share one store).
class MemoryEnv : public xydiff::Env {
 public:
  struct Counts {
    uint64_t syncs = 0;
    uint64_t bytes_written = 0;
    uint64_t renames = 0;
  };

  MemoryEnv() = default;
  MemoryEnv(const MemoryEnv&) = delete;
  MemoryEnv& operator=(const MemoryEnv&) = delete;

  Counts counts() const;

  /// A copy of every file and directory, with its counts at zero.
  std::unique_ptr<MemoryEnv> Clone() const;

  xydiff::Result<std::string> ReadFile(const std::string& path) override;
  xydiff::Status WriteFile(const std::string& path,
                           std::string_view content) override;
  xydiff::Status SyncFile(const std::string& path) override;
  xydiff::Status SyncDir(const std::string& path) override;
  xydiff::Status RenameFile(const std::string& from,
                            const std::string& to) override;
  xydiff::Status RemoveFile(const std::string& path) override;
  xydiff::Status CreateDirs(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  xydiff::Result<std::vector<std::string>> ListDir(
      const std::string& path) override;

 private:
  bool HasDirLocked(const std::string& path) const;  // Needs mutex_.

  mutable std::mutex mutex_;
  std::map<std::string, std::string> files_;  // Guarded by mutex_.
  std::set<std::string> dirs_;                // Guarded by mutex_.
  Counts counts_;                             // Guarded by mutex_.
};

/// Single-threaded span recorder. A span has a name, start, end, the
/// index of its parent span (-1 for a top-level span) and the op id it
/// belongs to. Spans stay in memory until Summarize() reads them.
class Tracer {
 public:
  struct Span {
    std::string_view name;  // Names are string literals.
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint32_t op = 0;
  };

  /// Ends its span when destroyed; spans opened inside it are children.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int32_t index() const { return index_; }

   private:
    Tracer* tracer_;
    int32_t index_;
    int32_t saved_parent_;
  };

  /// Starts a new op: later spans carry its id.
  void BeginOp() { ++op_; }

  /// Records a finished child span of `parent` whose duration is known
  /// but whose start is not (the diff reports phase durations only). The
  /// children of one parent are laid end to end from the parent's start.
  void AddTimedChild(int32_t parent, std::string_view name, double seconds);

  struct Totals {
    uint64_t calls = 0;
    double total_us = 0;  // Summed span durations.
    double self_us = 0;   // Durations minus the time children cover.
  };
  /// Per-name totals over every recorded span.
  std::map<std::string, Totals, std::less<>> Summarize() const;

  size_t span_count() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  int32_t current_ = -1;
  uint32_t op_ = 0;
};

/// Metrics of one run, printed as the benchmark's result object.
class RunResult {
 public:
  void Set(const std::string& name, double value, const std::string& unit);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // First few failures, for stderr.
  /// Context printed beside the result (sample counts and the like).
  std::map<std::string, double> info;

  void Fail(const std::string& what);

  /// One-line JSON: {"correct", "attempted", "failed", "metrics"}.
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

}  // namespace xybench

#endif  // XYBENCH_BENCH_SUPPORT_H_
