#include "bench_support.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace xybench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(position));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = position - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
}

// --- Window ------------------------------------------------------------------

void Window::Add(double seconds, double ops, bool latency_sample) {
  entries_.push_back({seconds, ops, latency_sample});
  busy_ += seconds;
}

Window::Summary Window::Summarize() const {
  constexpr size_t kMaxBlocks = 5;
  constexpr size_t kSamplesPerBlock = 100;
  Summary summary;
  for (const Entry& e : entries_) summary.samples += e.latency_sample ? 1 : 0;
  summary.blocks = std::clamp<size_t>(summary.samples / kSamplesPerBlock, 1,
                                      kMaxBlocks);
  std::vector<double> rates, p50s, p90s;
  size_t next = 0;
  double elapsed = 0;
  for (size_t b = 0; b < summary.blocks; ++b) {
    const double block_end =
        busy_ * static_cast<double>(b + 1) / static_cast<double>(summary.blocks);
    double seconds = 0, ops = 0;
    std::vector<double> latency_ms;
    for (; next < entries_.size() &&
           (elapsed < block_end || b + 1 == summary.blocks);
         ++next) {
      const Entry& e = entries_[next];
      seconds += e.seconds;
      elapsed += e.seconds;
      ops += e.ops;
      if (e.latency_sample) latency_ms.push_back(e.seconds * 1e3);
    }
    if (seconds > 0) rates.push_back(ops / seconds);
    if (!latency_ms.empty()) {
      p50s.push_back(Quantile(latency_ms, 0.5));
      p90s.push_back(Quantile(latency_ms, 0.9));
    }
  }
  summary.ops_per_s = Median(rates);
  if (!rates.empty()) {
    summary.slowest_block_ops_per_s = *std::min_element(rates.begin(), rates.end());
    summary.fastest_block_ops_per_s = *std::max_element(rates.begin(), rates.end());
  }
  summary.p50_ms = Median(p50s);
  summary.p90_ms = Median(p90s);
  return summary;
}

// --- MemoryEnv ---------------------------------------------------------------

namespace {

std::string ParentOf(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? "" : path.substr(0, slash);
}

const std::string& ToPath(const std::pair<const std::string, std::string>& e) {
  return e.first;
}
const std::string& ToPath(const std::string& e) { return e; }

}  // namespace

MemoryEnv::Counts MemoryEnv::counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counts_;
}

std::unique_ptr<MemoryEnv> MemoryEnv::Clone() const {
  auto copy = std::make_unique<MemoryEnv>();
  std::lock_guard<std::mutex> lock(mutex_);
  copy->files_ = files_;
  copy->dirs_ = dirs_;
  return copy;
}

bool MemoryEnv::HasDirLocked(const std::string& path) const {
  return path.empty() || dirs_.count(path) > 0;
}

xydiff::Result<std::string> MemoryEnv::ReadFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return xydiff::Status::NotFound("no file " + path);
  return it->second;
}

xydiff::Status MemoryEnv::WriteFile(const std::string& path,
                                    std::string_view content) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!HasDirLocked(ParentOf(path)) || dirs_.count(path) > 0) {
    return xydiff::Status::NotFound("cannot write " + path);
  }
  counts_.bytes_written += content.size();
  files_[path].assign(content);
  return xydiff::Status::OK();
}

xydiff::Status MemoryEnv::SyncFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (files_.count(path) == 0) {
    return xydiff::Status::NotFound("cannot sync " + path);
  }
  ++counts_.syncs;
  return xydiff::Status::OK();
}

xydiff::Status MemoryEnv::SyncDir(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!HasDirLocked(path)) {
    return xydiff::Status::NotFound("cannot sync " + path);
  }
  ++counts_.syncs;
  return xydiff::Status::OK();
}

xydiff::Status MemoryEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(from);
  if (it == files_.end() || !HasDirLocked(ParentOf(to))) {
    return xydiff::Status::NotFound("cannot rename " + from);
  }
  ++counts_.renames;
  std::string content = std::move(it->second);
  files_.erase(it);
  files_[to] = std::move(content);
  return xydiff::Status::OK();
}

xydiff::Status MemoryEnv::RemoveFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (files_.erase(path) == 0) {
    return xydiff::Status::NotFound("cannot remove " + path);
  }
  return xydiff::Status::OK();
}

xydiff::Status MemoryEnv::CreateDirs(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::string dir = path; !dir.empty(); dir = ParentOf(dir)) {
    if (files_.count(dir) > 0) {
      return xydiff::Status::IOError("a file is in the way: " + dir);
    }
    dirs_.insert(dir);
  }
  return xydiff::Status::OK();
}

bool MemoryEnv::FileExists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  return files_.count(path) > 0 || dirs_.count(path) > 0;
}

xydiff::Result<std::vector<std::string>> MemoryEnv::ListDir(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!HasDirLocked(path)) {
    return xydiff::Status::NotFound("cannot list directory " + path);
  }
  const std::string prefix = path + "/";
  std::vector<std::string> names;
  const auto collect = [&](const auto& entries) {
    for (auto it = entries.lower_bound(prefix);
         it != entries.end() && ToPath(*it).compare(0, prefix.size(), prefix) == 0;
         ++it) {
      const std::string name = ToPath(*it).substr(prefix.size());
      if (name.find('/') == std::string::npos) names.push_back(name);
    }
  };
  collect(files_);
  collect(dirs_);
  std::sort(names.begin(), names.end());
  return names;
}

// --- Tracer ------------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, std::string_view name)
    : tracer_(tracer), saved_parent_(tracer->current_) {
  Span span;
  span.name = name;
  span.parent = tracer->current_;
  span.op = tracer->op_;
  index_ = static_cast<int32_t>(tracer->spans_.size());
  tracer->spans_.push_back(span);
  tracer->current_ = index_;
  // Read the clock last so the bookkeeping above is outside the span.
  tracer->spans_[static_cast<size_t>(index_)].start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  tracer_->spans_[static_cast<size_t>(index_)].end_ns = NowNs();
  tracer_->current_ = saved_parent_;
}

void Tracer::AddTimedChild(int32_t parent, std::string_view name,
                           double seconds) {
  const Span& owner = spans_[static_cast<size_t>(parent)];
  int64_t start = owner.start_ns;
  for (size_t i = static_cast<size_t>(parent) + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == parent) start = std::max(start, spans_[i].end_ns);
  }
  Span span;
  span.name = name;
  span.parent = parent;
  span.op = owner.op;
  span.start_ns = start;
  span.end_ns = start + static_cast<int64_t>(std::llround(seconds * 1e9));
  spans_.push_back(span);
}

std::map<std::string, Tracer::Totals, std::less<>> Tracer::Summarize() const {
  // Children of one span never overlap (one thread, nested scopes, timed
  // children laid end to end), so the time they cover is their sum,
  // clipped to the parent's duration.
  std::vector<double> child_us(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    }
  }
  std::map<std::string, Totals, std::less<>> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    Totals& t = totals[std::string(s.name)];
    ++t.calls;
    t.total_us += us;
    t.self_us += std::max(0.0, us - child_us[i]);
  }
  return totals;
}

// --- RunResult ---------------------------------------------------------------

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void RunResult::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

std::string RunResult::ToJson() const {
  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(entry.first) ? entry.first : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           entry.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace xybench
