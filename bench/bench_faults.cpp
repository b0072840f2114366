// Fault-injection bench — the durability protocol of DESIGN.md §3.12.
//
// The paper's warehouse ("millions of documents loaded each day") runs
// unattended; a crash mid-store must never cost committed history. This
// bench measures what that guarantee costs and how well it holds:
//
//   * the crash-point sweep: every operation index of the save protocol
//     is crashed once, both for a save that writes a fresh checkpoint
//     and for one that carries the old one forward; the reopened store
//     must always be the old or the new version (hybrids = 0), and
//     recovery must be fast;
//   * the commit protocol's size: env operations per save (each op is a
//     syscall-ish unit, and each is a potential crash point);
//   * throughput of the crash-safe save and of recovery loads;
//   * transient-error absorption in the DiffBatch store stage: retries
//     spent vs slots degraded under an injected EIO window.
//
// Results land in BENCH_faults.json for machine comparison across runs.

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "simulator/web_corpus.h"
#include "util/fault_env.h"
#include "util/random.h"
#include "version/storage.h"
#include "version/warehouse.h"
#include "xml/serializer.h"

namespace {

namespace fs = std::filesystem;
using namespace xydiff;

/// A document and `extra_versions` weekly re-crawls of it. (The
/// simulator's default rates delete a tenth of the nodes per version,
/// which leaves little of a document after three.)
VersionRepository MakeRepo(uint64_t seed, int extra_versions,
                           size_t target_bytes) {
  Rng rng(seed);
  DocGenOptions gen;
  gen.target_bytes = target_bytes;
  VersionRepository repo(GenerateDocument(&rng, gen));
  for (int v = 0; v < extra_versions; ++v) {
    Result<SimulatedChange> change =
        SimulateChanges(repo.current(), WeeklyWebChangeProfile(), &rng);
    if (!change.ok() || !repo.Commit(std::move(change->new_version)).ok()) {
      std::fprintf(stderr, "corpus construction failed\n");
      std::exit(1);
    }
  }
  return repo;
}

}  // namespace

int main() {
  using bench::Timer;

  bench::Banner("Fault injection: crash sweep, recovery, retry absorption",
                "ICDE 2002 paper, Section 2 (persistent versioned storage)");

  const fs::path dir =
      fs::temp_directory_path() /
      ("xydiff_bench_faults_" + std::to_string(::getpid()));
  const std::string store = dir.string();

  VersionRepository before = MakeRepo(271828, 3, 4096);
  VersionRepository after = MakeRepo(271828, 3, 4096);
  XmlDocument change_version;
  {
    Rng rng(314159);
    Result<SimulatedChange> change =
        SimulateChanges(after.current(), WeeklyWebChangeProfile(), &rng);
    if (!change.ok()) return 1;
    change_version = change->new_version.Clone();
    if (!after.Commit(std::move(change->new_version)).ok()) return 1;
  }
  // The steady-state commit: a repository that loaded `before`'s store
  // commits the same version `after` did and saves, carrying the
  // checkpoint `before` wrote. `after` itself never recorded that
  // checkpoint, so its save writes a fresh one at the head.
  const auto load_and_commit = [&](Env* env) -> Result<VersionRepository> {
    Result<VersionRepository> loaded = LoadRepository(store, env);
    if (!loaded.ok()) return loaded.status();
    Result<int> committed = loaded->Commit(change_version.Clone());
    if (!committed.ok()) return committed.status();
    return loaded;
  };

  // --- commit protocol size: env ops for one incremental save ----------
  fs::remove_all(dir);
  FaultInjectionEnv counting;
  if (!SaveRepository(before, store, &counting).ok()) return 1;
  const int ops_initial_save = counting.op_count();
  counting.Reset();
  if (!SaveRepository(after, store, &counting).ok()) return 1;
  const int ops_checkpoint_save = counting.op_count();
  fs::remove_all(dir);
  if (!SaveRepository(before, store, &counting).ok()) return 1;
  Result<VersionRepository> carrying = load_and_commit(&counting);
  if (!carrying.ok()) return 1;
  counting.Reset();
  if (!SaveRepository(*carrying, store, &counting).ok()) return 1;
  const int ops_incremental_save = counting.op_count();
  std::printf("env ops per save        : %d initial, %d incremental "
              "(checkpoint carried), %d writing a checkpoint\n",
              ops_initial_save, ops_incremental_save, ops_checkpoint_save);

  // --- crash-point sweep ------------------------------------------------
  // Both saves of a commit: the one that writes a fresh checkpoint and
  // the one that carries it.
  int crash_points = 0;
  int recovered_old = 0;
  int recovered_new = 0;
  int hybrids = 0;
  double recover_seconds = 0;
  for (const bool carry : {false, true}) {
    for (int op = 0; op < 10000; ++op) {
      fs::remove_all(dir);
      FaultInjectionEnv env;
      if (!SaveRepository(before, store, &env).ok()) return 1;
      std::optional<VersionRepository> next;
      if (carry) {
        Result<VersionRepository> loaded = load_and_commit(&env);
        if (!loaded.ok()) return 1;
        next = std::move(*loaded);
      }
      env.Reset();
      env.CrashAt(op);
      // The save may fail (expected) — the sweep judges the reopened disk.
      (void)SaveRepository(next.has_value() ? *next : after, store, &env);
      const bool triggered = env.triggered();
      if (!env.DropUnsyncedData().ok()) return 1;

      Timer recover;
      RecoveryReport report;
      Result<VersionRepository> reopened =
          LoadRepository(store, nullptr, &report);
      recover_seconds += recover.Seconds();
      if (!reopened.ok()) {
        ++hybrids;  // Committed history became unreadable: protocol bug.
      } else if (reopened->version_count() == after.version_count()) {
        ++recovered_new;
      } else if (reopened->version_count() == before.version_count()) {
        ++recovered_old;
      } else {
        ++hybrids;
      }
      if (!triggered) break;  // Walked off the end of the protocol.
      ++crash_points;
    }
  }
  std::printf("crash sweep             : %d crash points, %d -> old, "
              "%d -> new, %d hybrids\n",
              crash_points, recovered_old, recovered_new, hybrids);
  std::printf("recovery                : %.3f ms mean\n",
              1e3 * recover_seconds / (crash_points + 2));

  // --- save / load throughput (the price of durability) -----------------
  constexpr int kRounds = 50;
  fs::remove_all(dir);
  Timer save_timer;
  for (int i = 0; i < kRounds; ++i) {
    fs::remove_all(dir);
    if (!SaveRepository(after, store, nullptr).ok()) return 1;
  }
  const double save_seconds = save_timer.Seconds() / kRounds;
  Timer load_timer;
  for (int i = 0; i < kRounds; ++i) {
    if (!LoadRepository(store).ok()) return 1;
  }
  const double load_seconds = load_timer.Seconds() / kRounds;
  std::printf("crash-safe save         : %.3f ms (%d versions, fsync'd)\n",
              1e3 * save_seconds, after.version_count());
  std::printf("verified load           : %.3f ms (checksums checked)\n",
              1e3 * load_seconds);

  // --- DiffBatch transient-error absorption -----------------------------
  constexpr int kDocs = 32;
  Warehouse warehouse;
  Rng rng(161803);
  DocGenOptions gen;
  gen.target_bytes = 2048;
  std::vector<Warehouse::DiffJob> jobs;
  for (int i = 0; i < kDocs; ++i) {
    XmlDocument doc = GenerateDocument(&rng, gen);
    doc.AssignInitialXids();
    const std::string url = "doc" + std::to_string(i);
    if (!warehouse.Ingest(url, doc.Clone()).ok()) return 1;
    Result<SimulatedChange> change =
        SimulateChanges(doc, ChangeSimOptions{}, &rng);
    if (!change.ok()) return 1;
    jobs.push_back({url, SerializeDocument(change->new_version)});
  }
  fs::remove_all(dir);
  FaultInjectionEnv flaky;
  flaky.InjectErrorAt(/*op=*/5, /*count=*/20);  // An EIO burst mid-batch.
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 4;
  pipeline.save_directory = store;
  pipeline.env = &flaky;
  pipeline.retry_backoff_ms = 1;
  PipelineStats stats;
  Timer batch_timer;
  const auto results = warehouse.DiffBatch(std::move(jobs), pipeline, &stats);
  const double batch_seconds = batch_timer.Seconds();
  size_t retries = 0;
  size_t degraded = 0;
  size_t failed_slots = 0;
  for (const auto& r : results) {
    if (!r.ok()) {
      ++failed_slots;
      continue;
    }
    retries += r->store_retries;
    if (r->store_degraded) ++degraded;
  }
  std::printf("diff batch under EIO    : %d docs, %zu retries absorbed, "
              "%zu degraded, %zu failed, %.3f s\n",
              kDocs, retries, degraded, failed_slots, batch_seconds);

  bench::Rule();

  bench::JsonReport sweep;
  sweep.AddNumber("crash_points", crash_points);
  sweep.AddNumber("recovered_old", recovered_old);
  sweep.AddNumber("recovered_new", recovered_new);
  sweep.AddNumber("hybrids", hybrids);
  sweep.AddNumber("mean_recover_ms",
                  1e3 * recover_seconds / (crash_points + 2));

  bench::JsonReport batch;
  batch.AddNumber("documents", kDocs);
  batch.AddNumber("retries_absorbed", retries);
  batch.AddNumber("degraded_slots", degraded);
  batch.AddNumber("failed_slots", failed_slots);
  batch.AddNumber("wall_seconds", batch_seconds);

  bench::JsonReport report;
  report.AddString("bench", "faults");
  report.AddNumber("versions", after.version_count());
  report.AddNumber("ops_initial_save", ops_initial_save);
  report.AddNumber("ops_incremental_save", ops_incremental_save);
  report.AddNumber("ops_checkpoint_save", ops_checkpoint_save);
  report.AddNumber("save_ms", 1e3 * save_seconds);
  report.AddNumber("load_ms", 1e3 * load_seconds);
  report.AddObject("crash_sweep", sweep);
  report.AddObject("diff_batch_eio", batch);
  report.AddNumber("peak_rss_bytes",
                   static_cast<double>(bench::PeakRssBytes()));
  if (!report.WriteFile("BENCH_faults.json")) {
    std::fprintf(stderr, "failed to write BENCH_faults.json\n");
    return 1;
  }
  std::printf("wrote BENCH_faults.json\n");

  fs::remove_all(dir);
  // The sweep's whole point: committed history survived every crash.
  return hybrids == 0 ? 0 : 1;
}
