#ifndef XYDIFF_BENCH_BENCH_UTIL_H_
#define XYDIFF_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace xydiff::bench {

/// Wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Prints a header banner naming the experiment and the paper artifact it
/// regenerates.
inline void Banner(const char* experiment, const char* paper_ref) {
  std::printf("\n=============================================================="
              "==================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("================================================================"
              "================\n");
}

/// Simple aligned table output: call Row with printf-style formatting.
inline void Rule() {
  std::printf("------------------------------------------------------------"
              "--------------------\n");
}

/// Human-readable byte count.
inline std::string Bytes(double n) {
  char buffer[32];
  if (n >= 1e6) {
    std::snprintf(buffer, sizeof(buffer), "%.2fMB", n / 1e6);
  } else if (n >= 1e3) {
    std::snprintf(buffer, sizeof(buffer), "%.1fKB", n / 1e3);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.0fB", n);
  }
  return buffer;
}

/// Peak resident set size of this process so far, in bytes (0 if the
/// platform does not report it). Linux ru_maxrss is in kilobytes.
inline size_t PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<size_t>(usage.ru_maxrss) * 1024;
}

/// Minimal JSON report: flat or one-level-nested objects of numbers and
/// strings, written with stable key order so diffs of the output are
/// readable. Enough for machine-checkable benchmark results without a
/// JSON dependency.
class JsonReport {
 public:
  void AddNumber(const std::string& key, double value) {
    char buffer[64];
    // Integral values print without a trailing ".0"; others keep
    // round-trip precision.
    if (value == static_cast<double>(static_cast<long long>(value))) {
      std::snprintf(buffer, sizeof(buffer), "%lld",
                    static_cast<long long>(value));
    } else {
      std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    }
    fields_.emplace_back(key, buffer);
  }

  void AddString(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + Escape(value) + "\"");
  }

  void AddObject(const std::string& key, const JsonReport& object) {
    fields_.emplace_back(key, object.Dump());
  }

  std::string Dump() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + Escape(fields_[i].first) + "\": " + fields_[i].second;
    }
    out += "}";
    return out;
  }

  /// Writes the report to `path` (single line + newline), stamped with
  /// the machine and build that produced it: `hardware_concurrency`,
  /// `compiler`, `build_type` and `git_commit` (the XYDIFF_BENCH_* macros
  /// bench/CMakeLists.txt sets at configure time). Returns false on I/O
  /// failure.
  bool WriteFile(const std::string& path) const {
    JsonReport stamped = *this;
    stamped.AddNumber("hardware_concurrency",
                      static_cast<double>(std::thread::hardware_concurrency()));
    stamped.AddString("compiler", XYDIFF_BENCH_COMPILER);
    stamped.AddString("build_type", XYDIFF_BENCH_BUILD_TYPE);
    stamped.AddString("git_commit", XYDIFF_BENCH_GIT_COMMIT);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string text = stamped.Dump() + "\n";
    const size_t written = std::fwrite(text.data(), 1, text.size(), f);
    return std::fclose(f) == 0 && written == text.size();
  }

 private:
  static std::string Escape(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace xydiff::bench

#endif  // XYDIFF_BENCH_BENCH_UTIL_H_
