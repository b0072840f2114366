// Contention bench — what serializes the warehouse pipeline, and what
// the group-commit protocol buys (DESIGN.md §3.13).
//
// Three experiments, all on the 300-document weekly-crawl corpus:
//
//   * lock hold-time histograms: a document's mutex is held for the
//     whole of one ingest, and the batch lock for the whole of one
//     group commit. Both distributions are bucketed into power-of-two
//     microsecond bins — the shape (not just the mean) decides how
//     wide a group can be before the store stage becomes the pipeline's
//     serial section;
//   * simulated multi-warehouse sharding: the corpus is partitioned
//     over {1, 2, 4, 16} independent warehouses diffed concurrently.
//     Sharding removes every cross-document lock (stats merge, alerter,
//     document map), so the spread between 1 and 16 shards bounds what
//     those shared locks cost. An Amdahl projection from the measured
//     serial fraction is reported next to the measured numbers;
//   * commit-point counting: every env operation of the store stage is
//     a syscall-ish unit; a counting env compares per-slot commits
//     (one SaveRepository per repository) against batched commits
//     (SaveRepositoryBatch, groups of 8) over the same 64 repositories.
//
// Results land in BENCH_contention.json for machine comparison.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "simulator/change_simulator.h"
#include "simulator/web_corpus.h"
#include "util/fault_env.h"
#include "util/random.h"
#include "util/parallel_for.h"
#include "version/storage.h"
#include "version/warehouse.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace {

namespace fs = std::filesystem;
using namespace xydiff;
using Clock = std::chrono::steady_clock;

struct Pair {
  std::string old_xml, new_xml;
};

std::vector<Pair> MakeCorpus(int documents) {
  Rng rng(604800);
  WebCorpusOptions corpus_options;
  corpus_options.document_count = documents;
  std::vector<XmlDocument> corpus = GenerateWebCorpus(&rng, corpus_options);
  const ChangeSimOptions weekly = WeeklyWebChangeProfile();
  std::vector<Pair> pairs;
  pairs.reserve(corpus.size());
  for (XmlDocument& doc : corpus) {
    doc.AssignInitialXids();
    Result<SimulatedChange> change = SimulateChanges(doc, weekly, &rng);
    if (!change.ok()) {
      std::fprintf(stderr, "corpus construction failed\n");
      std::exit(1);
    }
    pairs.push_back({SerializeDocument(doc),
                     SerializeDocument(change->new_version)});
  }
  return pairs;
}

/// Power-of-two microsecond histogram: bucket b holds samples in
/// [2^b, 2^(b+1)) µs; bucket 0 also catches sub-microsecond samples.
class MicrosHistogram {
 public:
  void Add(double seconds) {
    const double us = seconds * 1e6;
    size_t b = 0;
    while (b + 1 < counts_.size() && us >= static_cast<double>(2ull << b)) {
      ++b;
    }
    ++counts_[b];
    total_us_ += us;
    ++samples_;
    max_us_ = std::max(max_us_, us);
  }

  void Print(const char* name) const {
    std::printf("%s: %zu samples, mean %.1fus, max %.1fus\n", name, samples_,
                samples_ ? total_us_ / static_cast<double>(samples_) : 0.0,
                max_us_);
    for (size_t b = 0; b < counts_.size(); ++b) {
      if (counts_[b] == 0) continue;
      std::printf("  [%6llu..%6lluus) %6zu\n",
                  b == 0 ? 0ull : (1ull << b), 2ull << b, counts_[b]);
    }
  }

  void Report(bench::JsonReport* json, const std::string& prefix) const {
    json->AddNumber(prefix + "_samples", static_cast<double>(samples_));
    json->AddNumber(prefix + "_mean_us",
                    samples_ ? total_us_ / static_cast<double>(samples_) : 0);
    json->AddNumber(prefix + "_max_us", max_us_);
    for (size_t b = 0; b < counts_.size(); ++b) {
      if (counts_[b] == 0) continue;
      json->AddNumber(prefix + "_bucket_" + std::to_string(1ull << b) + "us",
                      static_cast<double>(counts_[b]));
    }
  }

  double total_seconds() const { return total_us_ / 1e6; }

 private:
  std::array<size_t, 24> counts_{};
  size_t samples_ = 0;
  double total_us_ = 0;
  double max_us_ = 0;
};

std::vector<Warehouse::DiffJob> JobsFor(const std::vector<Pair>& pairs,
                                        bool old_side, size_t shard,
                                        size_t shard_count) {
  std::vector<Warehouse::DiffJob> jobs;
  for (size_t i = shard; i < pairs.size(); i += shard_count) {
    jobs.push_back({"url" + std::to_string(i),
                    old_side ? pairs[i].old_xml : pairs[i].new_xml});
  }
  return jobs;
}

}  // namespace

int main() {
  bench::Banner("Lock contention: hold times, sharding, commit points",
                "ICDE 2002 paper, Section 1 (warehouse scale requirement)");

  const std::vector<Pair> pairs = MakeCorpus(300);
  bench::JsonReport json;
  json.AddString("bench", "contention");
  json.AddNumber("documents", static_cast<double>(pairs.size()));

  // --- Part 1: lock hold-time histograms -------------------------------
  // Ingest() holds the document mutex end to end, so per-ingest latency
  // IS the per-document lock hold time. Group commits hold the batch
  // lock end to end the same way.
  bench::Rule();
  std::printf("lock hold-time histograms (1 thread)\n");
  MicrosHistogram doc_hold;
  double ingest_wall = 0;
  {
    Warehouse warehouse;
    for (size_t i = 0; i < pairs.size(); ++i) {
      Result<XmlDocument> v1 = ParseXml(pairs[i].old_xml);
      if (!v1.ok() ||
          !warehouse.Ingest("url" + std::to_string(i), std::move(*v1)).ok()) {
        std::fprintf(stderr, "week1 ingest failed\n");
        return 1;
      }
    }
    bench::Timer wall;
    for (size_t i = 0; i < pairs.size(); ++i) {
      Result<XmlDocument> v2 = ParseXml(pairs[i].new_xml);
      if (!v2.ok()) return 1;
      bench::Timer hold;
      if (!warehouse.Ingest("url" + std::to_string(i), std::move(*v2)).ok()) {
        std::fprintf(stderr, "week2 ingest failed\n");
        return 1;
      }
      doc_hold.Add(hold.Seconds());
    }
    ingest_wall = wall.Seconds();
  }
  doc_hold.Print("doc-mutex hold");
  doc_hold.Report(&json, "doc_hold");

  // Group-commit hold times: persist 64 fresh single-version
  // repositories in groups of 8 — each SaveRepositoryBatch call holds
  // the batch lock for the whole group.
  MicrosHistogram batch_hold;
  {
    const std::string parent = (fs::temp_directory_path() /
                                "xydiff_bench_contention_hold").string();
    std::error_code ec;
    fs::remove_all(parent, ec);
    constexpr size_t kRepos = 64, kGroup = 8;
    std::vector<VersionRepository> repos;
    repos.reserve(kRepos);
    for (size_t i = 0; i < kRepos; ++i) {
      Result<XmlDocument> doc = ParseXml(pairs[i % pairs.size()].old_xml);
      if (!doc.ok()) return 1;
      repos.emplace_back(std::move(*doc));
    }
    for (size_t base = 0; base < kRepos; base += kGroup) {
      std::vector<RepositorySaveSlot> slots;
      for (size_t i = base; i < base + kGroup; ++i) {
        slots.push_back({&repos[i], "slot" + std::to_string(i)});
      }
      bench::Timer hold;
      if (!SaveRepositoryBatch(slots, parent).ok()) {
        std::fprintf(stderr, "group commit failed\n");
        return 1;
      }
      batch_hold.Add(hold.Seconds());
    }
    fs::remove_all(parent, ec);
  }
  batch_hold.Print("batch-lock hold (8-slot group commit)");
  batch_hold.Report(&json, "batch_hold");

  // --- Part 2: simulated multi-warehouse sharding -----------------------
  // Partition the corpus over N independent warehouses and diff every
  // shard concurrently on 4 ParallelFor workers. More shards = fewer shared
  // locks in play; the spread bounds the cross-document serial section.
  bench::Rule();
  std::printf("multi-warehouse sharding, 4 workers "
              "(hardware_concurrency %u)\n%8s %10s %10s\n",
              std::thread::hardware_concurrency(), "shards", "wall_s",
              "docs/s");
  double wall_1_shard = 0, wall_16_shards = 0;
  for (size_t shard_count : {1u, 2u, 4u, 16u}) {
    std::vector<std::unique_ptr<Warehouse>> shards;
    for (size_t s = 0; s < shard_count; ++s) {
      shards.push_back(std::make_unique<Warehouse>());
    }
    Warehouse::PipelineOptions pipeline;
    pipeline.threads = 1;  // Per shard; the outer ParallelFor provides width.
    std::atomic<bool> failed{false};
    ParallelFor(4, shard_count, [&](size_t s) {
      for (auto& r : shards[s]->DiffBatch(JobsFor(pairs, true, s, shard_count),
                                          pipeline)) {
        if (!r.ok()) failed.store(true);
      }
    });
    if (failed.load()) {
      std::fprintf(stderr, "week1 shard ingest failed\n");
      return 1;
    }
    bench::Timer timer;
    ParallelFor(4, shard_count, [&](size_t s) {
      for (auto& r : shards[s]->DiffBatch(
               JobsFor(pairs, false, s, shard_count), pipeline)) {
        if (!r.ok()) failed.store(true);
      }
    });
    const double wall = timer.Seconds();
    if (failed.load()) {
      std::fprintf(stderr, "week2 shard ingest failed\n");
      return 1;
    }
    if (shard_count == 1) wall_1_shard = wall;
    if (shard_count == 16) wall_16_shards = wall;
    std::printf("%8zu %10.2f %10.0f\n", shard_count, wall,
                static_cast<double>(pairs.size()) / wall);
    json.AddNumber("shards_" + std::to_string(shard_count) + "_wall_seconds",
                   wall);
    json.AddNumber("shards_" + std::to_string(shard_count) + "_docs_per_second",
                   static_cast<double>(pairs.size()) / wall);
  }

  // Amdahl projection: treat the 1→16 shard spread as the serial
  // fraction s (everything shards cannot remove is per-document work):
  //   s = (T_1 - T_16) / T_1, predicted speedup(k) = 1 / (s/k + (1-s))
  // with the roles inverted — sharding removes the *shared* section, so
  // the spread IS that section's weight.
  const double shared_fraction =
      wall_1_shard > 0 ? std::max(0.0, (wall_1_shard - wall_16_shards) /
                                           wall_1_shard)
                       : 0;
  std::printf("shared-lock fraction (1 vs 16 shards): %.1f%%\n",
              shared_fraction * 100);
  json.AddNumber("shared_lock_fraction", shared_fraction);
  for (int k : {2, 4, 8}) {
    const double predicted =
        1.0 / (shared_fraction + (1.0 - shared_fraction) / k);
    std::printf("Amdahl predicted speedup at %d threads: %.2fx\n", k,
                predicted);
    json.AddNumber("amdahl_predicted_speedup_" + std::to_string(k),
                   predicted);
  }
  json.AddNumber("ingest_wall_seconds_1_thread", ingest_wall);

  // --- Part 3: commit points, per-slot vs grouped -----------------------
  // A FaultInjectionEnv with no fault armed is a pure counting env:
  // every intercepted call is one syscall-ish unit and one potential
  // crash point. The grouped protocol spends a few MORE ops per slot
  // (journal bookkeeping + the post-commit manifest fan-out), but the
  // *commit points* — the synchronous barriers a caller must wait out,
  // and the instants a crash can split a batch — drop from one per
  // slot to one per group.
  bench::Rule();
  std::printf("store-stage env operations, 64 slots\n");
  for (size_t group : {size_t{1}, size_t{8}}) {
    const std::string parent =
        (fs::temp_directory_path() /
         ("xydiff_bench_contention_ops" + std::to_string(group))).string();
    std::error_code ec;
    fs::remove_all(parent, ec);
    FaultInjectionEnv env;  // No fault armed: counts ops, injects nothing.
    constexpr size_t kRepos = 64;
    std::vector<VersionRepository> repos;
    repos.reserve(kRepos);
    for (size_t i = 0; i < kRepos; ++i) {
      Result<XmlDocument> doc = ParseXml(pairs[i % pairs.size()].old_xml);
      if (!doc.ok()) return 1;
      repos.emplace_back(std::move(*doc));
    }
    const int ops_before = env.op_count();
    if (group == 1) {
      for (size_t i = 0; i < kRepos; ++i) {
        if (!SaveRepository(repos[i],
                            parent + "/slot" + std::to_string(i), &env)
                 .ok()) {
          std::fprintf(stderr, "per-slot save failed\n");
          return 1;
        }
      }
    } else {
      for (size_t base = 0; base < kRepos; base += group) {
        std::vector<RepositorySaveSlot> slots;
        for (size_t i = base; i < base + group; ++i) {
          slots.push_back({&repos[i], "slot" + std::to_string(i)});
        }
        if (!SaveRepositoryBatch(slots, parent, &env).ok()) {
          std::fprintf(stderr, "grouped save failed\n");
          return 1;
        }
      }
    }
    const int ops = env.op_count() - ops_before;
    const size_t commit_points = kRepos / group;
    std::printf("  group of %zu: %d env ops total, %.1f per slot, "
                "%zu commit points\n",
                group, ops, static_cast<double>(ops) / kRepos, commit_points);
    json.AddNumber("env_ops_group_" + std::to_string(group),
                   static_cast<double>(ops));
    json.AddNumber("env_ops_per_slot_group_" + std::to_string(group),
                   static_cast<double>(ops) / kRepos);
    json.AddNumber("commit_points_group_" + std::to_string(group),
                   static_cast<double>(commit_points));
    fs::remove_all(parent, ec);
  }

  json.WriteFile("BENCH_contention.json");
  std::printf("json report    : BENCH_contention.json\n");
  return 0;
}
