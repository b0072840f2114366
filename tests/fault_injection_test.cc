// Crash-consistency sweep for the versioned store (DESIGN.md §3.12).
//
// The contract under test: SaveRepository through any Env is atomic —
// whatever single operation fails (EIO), crashes the process, or tears
// mid-write, reopening the directory yields either the pre-save or the
// post-save repository, bit-exactly (XIDs included), never a hybrid.
//
// The sweep is exhaustive, not sampled: every operation index is tried
// until a run completes without its fault triggering (meaning the index
// walked off the end of the protocol), and torn writes additionally
// sweep byte offsets. FaultInjectionEnv rolls un-synced data back the
// way a machine reset would, so the reopened state is what a real crash
// would have left on disk.

#include "util/fault_env.h"

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "version/storage.h"
#include "version/warehouse.h"
#include "xml/serializer.h"

namespace xydiff {
namespace {

namespace fs = std::filesystem;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xydiff_fault_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Dir() const { return dir_.string(); }

  fs::path dir_;
};

/// The full byte-exact identity of a repository: every version,
/// serialized with XIDs. Two repositories with equal signatures are
/// indistinguishable to every consumer.
std::vector<std::string> Signature(const VersionRepository& repo) {
  std::vector<std::string> out;
  SerializeOptions options;
  options.emit_xids = true;
  for (int v = 1; v <= repo.version_count(); ++v) {
    Result<XmlDocument> doc = repo.Checkout(v);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    out.push_back(doc.ok() ? SerializeDocument(*doc, options)
                           : std::string());
  }
  return out;
}

VersionRepository MakeRepo(uint64_t seed, int extra_versions) {
  Rng rng(seed);
  DocGenOptions gen;
  gen.target_bytes = 512;
  VersionRepository repo(GenerateDocument(&rng, gen));
  for (int v = 0; v < extra_versions; ++v) {
    Result<SimulatedChange> change =
        SimulateChanges(repo.current(), ChangeSimOptions{}, &rng);
    EXPECT_TRUE(change.ok());
    EXPECT_TRUE(repo.Commit(std::move(change->new_version)).ok());
  }
  return repo;
}

/// One crash-point probe: commit `before` durably, arm `plan`, attempt
/// to save `after`, crash, reopen, and require the reopened store to be
/// bit-exactly `before` or `after`. Returns false once the armed fault
/// no longer triggers (the sweep is past the end of the protocol).
bool ProbeCrashPoint(const std::string& dir, VersionRepository& before,
                     VersionRepository& after,
                     const std::vector<std::string>& sig_before,
                     const std::vector<std::string>& sig_after,
                     const std::function<void(FaultInjectionEnv&)>& plan) {
  fs::remove_all(dir);
  FaultInjectionEnv env;
  XY_EXPECT_OK(SaveRepository(before, dir, &env));
  env.Reset();  // Disk state stands; forget counters and durable images.

  plan(env);
  const Status saved = SaveRepository(after, dir, &env);
  const bool triggered = env.triggered();
  XY_EXPECT_OK(env.DropUnsyncedData());

  RecoveryReport report;
  Result<VersionRepository> reopened =
      LoadRepository(dir, nullptr, &report);
  EXPECT_TRUE(reopened.ok())
      << reopened.status().ToString() << "\n" << report.ToString();
  if (reopened.ok()) {
    const std::vector<std::string> sig = Signature(*reopened);
    EXPECT_TRUE(sig == sig_before || sig == sig_after)
        << "reopened store is a hybrid: " << sig.size() << " version(s), "
        << report.ToString();
    if (saved.ok()) {
      // SaveRepository reported success — whether because no fault
      // fired or because the fault only hit the best-effort post-commit
      // cleanup — so the new state is committed and must read back.
      EXPECT_TRUE(sig == sig_after) << report.ToString();
    }
  }
  return triggered;
}

TEST_F(FaultInjectionTest, CrashAtEveryOperationYieldsOldOrNew) {
  VersionRepository before = MakeRepo(21, 2);
  VersionRepository after = MakeRepo(21, 2);
  {
    Rng rng(99);
    Result<SimulatedChange> change =
        SimulateChanges(after.current(), ChangeSimOptions{}, &rng);
    ASSERT_TRUE(change.ok());
    ASSERT_TRUE(after.Commit(std::move(change->new_version)).ok());
  }
  const std::vector<std::string> sig_before = Signature(before);
  const std::vector<std::string> sig_after = Signature(after);
  ASSERT_NE(sig_before, sig_after);

  int op = 0;
  for (; op < 10000; ++op) {
    if (!ProbeCrashPoint(Dir(), before, after, sig_before, sig_after,
                         [op](FaultInjectionEnv& env) { env.CrashAt(op); })) {
      break;
    }
  }
  // The sweep must have covered a real protocol (several ops) and
  // terminated by walking off its end, not by exhausting the loop.
  EXPECT_GT(op, 3);
  EXPECT_LT(op, 10000);
}

TEST_F(FaultInjectionTest, TornWriteAtEveryOffsetYieldsOldOrNew) {
  VersionRepository before = MakeRepo(22, 1);
  VersionRepository after = MakeRepo(22, 1);
  {
    Rng rng(100);
    Result<SimulatedChange> change =
        SimulateChanges(after.current(), ChangeSimOptions{}, &rng);
    ASSERT_TRUE(change.ok());
    ASSERT_TRUE(after.Commit(std::move(change->new_version)).ok());
  }
  const std::vector<std::string> sig_before = Signature(before);
  const std::vector<std::string> sig_after = Signature(after);
  ASSERT_NE(sig_before, sig_after);

  // Every op index; at each, three tear offsets (nothing lands, one
  // byte lands, half the payload lands). Non-write ops degrade to a
  // plain crash, so the sweep stays exhaustive over op indices.
  for (const size_t keep : {size_t{0}, size_t{1}, size_t{4096}}) {
    int op = 0;
    for (; op < 10000; ++op) {
      if (!ProbeCrashPoint(
              Dir(), before, after, sig_before, sig_after,
              [op, keep](FaultInjectionEnv& env) {
                env.TearWriteAt(op, keep);
              })) {
        break;
      }
    }
    EXPECT_GT(op, 3) << "keep=" << keep;
    EXPECT_LT(op, 10000) << "keep=" << keep;
  }
}

/// An indexed repository: checkpoint pinned, then grown so the save
/// protocol emits the checkpoint pair and at least two skip levels
/// alongside the chain (8 deltas -> spans 2, 4, 8).
VersionRepository MakeIndexedRepo(uint64_t seed, int extra_versions) {
  VersionRepository repo = MakeRepo(seed, 0);
  EXPECT_TRUE(repo.EnsureReconstructionIndex().ok());
  Rng rng(seed + 5000);
  for (int v = 0; v < extra_versions; ++v) {
    Result<SimulatedChange> change =
        SimulateChanges(repo.current(), ChangeSimOptions{}, &rng);
    EXPECT_TRUE(change.ok());
    EXPECT_TRUE(repo.Commit(std::move(change->new_version)).ok());
  }
  return repo;
}

TEST_F(FaultInjectionTest, IndexedCrashAtEveryOperationYieldsOldOrNew) {
  // Same contract as the plain sweep, over the larger indexed protocol:
  // chain + checkpoint pair + skip files. A crash anywhere — including
  // mid-checkpoint or mid-skip write — must reopen as pre- or post-save;
  // a load that sheds the derived index still counts as that epoch
  // because every version reconstructs bit-exactly over the plain chain.
  VersionRepository before = MakeIndexedRepo(25, 8);
  VersionRepository after = MakeIndexedRepo(25, 8);
  {
    Rng rng(103);
    Result<SimulatedChange> change =
        SimulateChanges(after.current(), ChangeSimOptions{}, &rng);
    ASSERT_TRUE(change.ok());
    ASSERT_TRUE(after.Commit(std::move(change->new_version)).ok());
  }
  ASSERT_GE(after.reconstruction_index().levels.size(), 2u);
  const std::vector<std::string> sig_before = Signature(before);
  const std::vector<std::string> sig_after = Signature(after);
  ASSERT_NE(sig_before, sig_after);

  int op = 0;
  for (; op < 10000; ++op) {
    if (!ProbeCrashPoint(Dir(), before, after, sig_before, sig_after,
                         [op](FaultInjectionEnv& env) { env.CrashAt(op); })) {
      break;
    }
  }
  // The indexed protocol writes strictly more files than the plain one
  // (plain saves walk off after a handful of ops), so the sweep length
  // itself proves the checkpoint and skip writes were inside it.
  EXPECT_GT(op, 10);
  EXPECT_LT(op, 10000);
}

TEST_F(FaultInjectionTest, IndexedTornWriteAtEveryOffsetYieldsOldOrNew) {
  VersionRepository before = MakeIndexedRepo(26, 8);
  VersionRepository after = MakeIndexedRepo(26, 8);
  {
    Rng rng(104);
    Result<SimulatedChange> change =
        SimulateChanges(after.current(), ChangeSimOptions{}, &rng);
    ASSERT_TRUE(change.ok());
    ASSERT_TRUE(after.Commit(std::move(change->new_version)).ok());
  }
  const std::vector<std::string> sig_before = Signature(before);
  const std::vector<std::string> sig_after = Signature(after);
  ASSERT_NE(sig_before, sig_after);

  // Tear offsets land inside every payload class: nothing, one byte
  // (slices varints mid-group in binary deltas and skip files), and
  // 512 bytes (mid-checkpoint XML). Non-write ops degrade to a plain
  // crash, keeping the sweep exhaustive over op indices.
  for (const size_t keep : {size_t{0}, size_t{1}, size_t{512}}) {
    int op = 0;
    for (; op < 10000; ++op) {
      if (!ProbeCrashPoint(
              Dir(), before, after, sig_before, sig_after,
              [op, keep](FaultInjectionEnv& env) {
                env.TearWriteAt(op, keep);
              })) {
        break;
      }
    }
    EXPECT_GT(op, 10) << "keep=" << keep;
    EXPECT_LT(op, 10000) << "keep=" << keep;
  }
}

TEST_F(FaultInjectionTest, TransientErrorAtEveryOperationIsRecoverable) {
  VersionRepository before = MakeRepo(23, 1);
  VersionRepository after = MakeRepo(23, 1);
  {
    Rng rng(101);
    Result<SimulatedChange> change =
        SimulateChanges(after.current(), ChangeSimOptions{}, &rng);
    ASSERT_TRUE(change.ok());
    ASSERT_TRUE(after.Commit(std::move(change->new_version)).ok());
  }
  const std::vector<std::string> sig_before = Signature(before);
  const std::vector<std::string> sig_after = Signature(after);

  for (int op = 0; op < 10000; ++op) {
    fs::remove_all(dir_);
    FaultInjectionEnv env;
    XY_ASSERT_OK(SaveRepository(before, Dir(), &env));
    env.Reset();
    env.InjectErrorAt(op);
    const Status saved = SaveRepository(after, Dir(), &env);
    if (!env.triggered()) {
      XY_EXPECT_OK(saved);
      break;
    }
    // A transient error is not a crash: nothing is lost, and simply
    // retrying the save must succeed and commit the new state.
    env.Reset();
    XY_ASSERT_OK(SaveRepository(after, Dir(), &env));
    RecoveryReport report;
    Result<VersionRepository> reopened =
        LoadRepository(Dir(), nullptr, &report);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_TRUE(Signature(*reopened) == sig_after)
        << "after retry at op " << op << ": " << report.ToString();
  }
}

TEST_F(FaultInjectionTest, CrashDuringSaveNeverLosesCommittedHistory) {
  // Chain growth across several save/load/diff cycles with a crash in
  // the middle of each save: versions committed by a *previous*
  // successful save survive every later crash.
  VersionRepository repo = MakeRepo(24, 0);
  Rng rng(102);
  std::vector<std::string> durable_sig;  // Signature of last durable save.
  for (int round = 0; round < 4; ++round) {
    Result<SimulatedChange> change =
        SimulateChanges(repo.current(), ChangeSimOptions{}, &rng);
    ASSERT_TRUE(change.ok());
    ASSERT_TRUE(repo.Commit(std::move(change->new_version)).ok());

    FaultInjectionEnv env;
    env.CrashAt(3 + round);  // A different mid-protocol point each round.
    const Status saved = SaveRepository(repo, Dir(), &env);
    XY_EXPECT_OK(env.DropUnsyncedData());

    RecoveryReport report;
    Result<VersionRepository> reopened =
        LoadRepository(Dir(), nullptr, &report);
    if (round == 0 && !saved.ok()) {
      // Nothing durable yet: an empty directory (NotFound) is the only
      // acceptable "old" state.
      if (!reopened.ok()) {
        EXPECT_EQ(reopened.status().code(), StatusCode::kNotFound);
      }
    } else if (!durable_sig.empty()) {
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      const std::vector<std::string> sig = Signature(*reopened);
      EXPECT_TRUE(sig == durable_sig || sig == Signature(repo))
          << "round " << round << ": " << report.ToString();
    }

    // Heal: complete the save for real, then verify a clean round trip.
    env.Reset();
    XY_ASSERT_OK(SaveRepository(repo, Dir(), &env));
    Result<VersionRepository> loaded = LoadRepository(Dir());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    durable_sig = Signature(*loaded);
    EXPECT_TRUE(durable_sig == Signature(repo)) << "round " << round;
  }
}

TEST_F(FaultInjectionTest, DiffBatchRetriesTransientStoreErrors) {
  FaultInjectionEnv env;
  // The first two env operations fail: the store stage's first
  // persistence attempt dies, the bounded retry then succeeds.
  env.InjectErrorAt(0, 2);

  Warehouse warehouse;
  ASSERT_TRUE(
      warehouse.Ingest("doc", MustParse("<d><t>one</t></d>")).ok());

  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 1;
  pipeline.save_directory = Dir();
  pipeline.env = &env;
  pipeline.max_io_retries = 3;
  pipeline.retry_backoff_ms = 1;

  std::vector<Warehouse::DiffJob> jobs;
  jobs.push_back({"doc", "<d><t>two</t></d>"});
  PipelineStats stats;
  const auto results =
      warehouse.DiffBatch(std::move(jobs), pipeline, &stats);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_FALSE(results[0]->store_degraded);
  EXPECT_GE(results[0]->store_retries, 1u);
  ASSERT_EQ(stats.stages.size(), 3u);
  EXPECT_GE(stats.stages[2].retries, 1u);
  EXPECT_EQ(stats.stages[2].failed, 0u);
  EXPECT_EQ(stats.degraded_slots, 1u);  // Degraded = needed retries.

  // The persisted store is loadable and current.
  RecoveryReport report;
  Result<VersionRepository> reopened =
      LoadRepository(Dir() + "/doc", nullptr, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(report.clean) << report.ToString();
  EXPECT_EQ(reopened->version_count(), 2);
}

TEST_F(FaultInjectionTest, DiffBatchMarksSlotDegradedWhenRetriesExhaust) {
  FaultInjectionEnv env;
  env.InjectErrorAt(0, 1000);  // Persistence can never succeed.

  Warehouse warehouse;
  ASSERT_TRUE(
      warehouse.Ingest("doc", MustParse("<d><t>one</t></d>")).ok());

  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 1;
  pipeline.save_directory = Dir();
  pipeline.env = &env;
  pipeline.max_io_retries = 2;
  pipeline.retry_backoff_ms = 1;

  std::vector<Warehouse::DiffJob> jobs;
  jobs.push_back({"doc", "<d><t>two</t></d>"});
  PipelineStats stats;
  const auto results =
      warehouse.DiffBatch(std::move(jobs), pipeline, &stats);
  ASSERT_EQ(results.size(), 1u);
  // The in-memory ingest stands — degradation is loud but not fatal.
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_TRUE(results[0]->store_degraded);
  EXPECT_EQ(results[0]->store_retries, 2u);
  EXPECT_EQ(warehouse.version_count("doc"), 2);
  EXPECT_EQ(stats.degraded_slots, 1u);
  ASSERT_EQ(stats.stages.size(), 3u);
  EXPECT_EQ(stats.stages[2].failed, 1u);
}

TEST_F(FaultInjectionTest, FailFastAbortsRemainingSlots) {
  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 1;  // Deterministic slot order.
  pipeline.fail_fast = true;

  std::vector<Warehouse::DiffJob> jobs;
  jobs.push_back({"bad", "<broken"});
  jobs.push_back({"good1", "<d/>"});
  jobs.push_back({"good2", "<d/>"});
  const auto results = warehouse.DiffBatch(std::move(jobs), pipeline);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status().code(), StatusCode::kParseError);
  EXPECT_EQ(results[1].status().code(), StatusCode::kAborted);
  EXPECT_EQ(results[2].status().code(), StatusCode::kAborted);
}

/// Probes one fault point of a 3-slot SaveRepositoryBatch: seed every
/// slot with its pre-batch repository, arm the fault, run the batched
/// save, "crash" (drop un-synced data), recover the parent directory,
/// and reload every slot. The batch contract: ALL slots read back
/// pre-batch or ALL read back post-batch — a mix is a torn group
/// commit. Returns false once the armed fault no longer triggers.
///
/// `make_context` (optional) supplies the probed save's context. It is
/// called after the seed save, so a deadline's budget covers only the
/// probed save, however slow the seeding fsyncs were.
bool ProbeBatchFaultPoint(
    const std::string& parent, std::vector<VersionRepository>& before,
    std::vector<VersionRepository>& after,
    const std::vector<std::vector<std::string>>& sig_before,
    const std::vector<std::vector<std::string>>& sig_after,
    const std::function<void(FaultInjectionEnv&)>& plan,
    const std::function<Context()>& make_context = nullptr) {
  fs::remove_all(parent);
  FaultInjectionEnv env;
  std::vector<RepositorySaveSlot> seed;
  for (size_t i = 0; i < before.size(); ++i) {
    seed.push_back({&before[i], "slot" + std::to_string(i)});
  }
  XY_EXPECT_OK(SaveRepositoryBatch(seed, parent, &env));
  env.Reset();  // Disk state stands; forget counters and durable images.

  plan(env);
  std::vector<RepositorySaveSlot> slots;
  for (size_t i = 0; i < after.size(); ++i) {
    slots.push_back({&after[i], "slot" + std::to_string(i)});
  }
  const Context context = make_context ? make_context() : Context();
  const Status saved = SaveRepositoryBatch(slots, parent, &env, &context);
  const bool triggered = env.triggered();
  XY_EXPECT_OK(env.DropUnsyncedData());

  // The reopen path: roll the batch journal forward (or discard a torn
  // one), exactly what Warehouse::Load does before touching any slot.
  XY_EXPECT_OK(RecoverRepositoryBatch(parent));

  size_t pre = 0, post = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    RecoveryReport report;
    Result<VersionRepository> reopened = LoadRepository(
        parent + "/slot" + std::to_string(i), nullptr, &report);
    EXPECT_TRUE(reopened.ok())
        << reopened.status().ToString() << "\n" << report.ToString();
    if (!reopened.ok()) return triggered;
    const std::vector<std::string> sig = Signature(*reopened);
    if (sig == sig_before[i]) {
      ++pre;
    } else if (sig == sig_after[i]) {
      ++post;
    } else {
      ADD_FAILURE() << "slot " << i << " reopened as neither pre- nor "
                    << "post-batch\n" << report.ToString();
    }
  }
  EXPECT_TRUE(pre == after.size() || post == after.size())
      << "torn group commit: " << pre << " slot(s) pre-batch, " << post
      << " post-batch";
  if (saved.ok()) {
    // A successful return means the journal committed; recovery must
    // then finish the whole batch, never roll it back.
    EXPECT_EQ(post, after.size());
  }
  return triggered;
}

struct BatchCorpus {
  std::vector<VersionRepository> before, after;
  std::vector<std::vector<std::string>> sig_before, sig_after;
};

BatchCorpus MakeBatchCorpus(size_t slots) {
  BatchCorpus corpus;
  for (size_t i = 0; i < slots; ++i) {
    const uint64_t seed = 300 + i;
    corpus.before.push_back(MakeRepo(seed, 1));
    VersionRepository after = MakeRepo(seed, 1);
    Rng rng(400 + i);
    Result<SimulatedChange> change =
        SimulateChanges(after.current(), ChangeSimOptions{}, &rng);
    EXPECT_TRUE(change.ok());
    EXPECT_TRUE(after.Commit(std::move(change->new_version)).ok());
    corpus.after.push_back(std::move(after));
    corpus.sig_before.push_back(Signature(corpus.before.back()));
    corpus.sig_after.push_back(Signature(corpus.after.back()));
    EXPECT_NE(corpus.sig_before.back(), corpus.sig_after.back());
  }
  return corpus;
}

TEST_F(FaultInjectionTest, BatchCrashAtEveryOperationYieldsAllPreOrAllPost) {
  BatchCorpus corpus = MakeBatchCorpus(3);
  int op = 0;
  for (; op < 10000; ++op) {
    if (!ProbeBatchFaultPoint(
            Dir(), corpus.before, corpus.after, corpus.sig_before,
            corpus.sig_after,
            [op](FaultInjectionEnv& env) { env.CrashAt(op); })) {
      break;
    }
  }
  // The batched protocol spans three slots plus a journal: the sweep
  // must cover far more ops than a single-slot save before walking off
  // the end.
  EXPECT_GT(op, 10);
  EXPECT_LT(op, 10000);
}

TEST_F(FaultInjectionTest, BatchTornWriteAtEveryOffsetYieldsAllPreOrAllPost) {
  BatchCorpus corpus = MakeBatchCorpus(3);
  // Tear offsets chosen to land inside every interesting payload: the
  // empty prefix, a single byte, mid-manifest, and mid-journal (the
  // journal embeds all three manifests, so 512 bytes usually splits
  // slot entries). Non-write ops degrade to a plain crash, keeping the
  // sweep exhaustive over op indices.
  for (const size_t keep : {size_t{0}, size_t{1}, size_t{512}}) {
    int op = 0;
    for (; op < 10000; ++op) {
      if (!ProbeBatchFaultPoint(
              Dir(), corpus.before, corpus.after, corpus.sig_before,
              corpus.sig_after, [op, keep](FaultInjectionEnv& env) {
                env.TearWriteAt(op, keep);
              })) {
        break;
      }
    }
    EXPECT_GT(op, 10) << "keep=" << keep;
    EXPECT_LT(op, 10000) << "keep=" << keep;
  }
}

TEST_F(FaultInjectionTest, BatchCancelAtEveryOperationYieldsAllPreOrAllPost) {
  // Cancellation sweep: fire Cancel() at the Nth env op of the batched
  // save and require the reopened store to be ALL pre or ALL post —
  // the group-commit journal is the single commit point, so a cancel
  // noticed before it aborts cleanly and one noticed after it (there
  // are no checks after) lets the batch roll forward. Zero hybrids.
  BatchCorpus corpus = MakeBatchCorpus(3);
  int op = 0;
  int cancelled_runs = 0;
  for (; op < 10000; ++op) {
    CancellationSource source;
    bool triggered = false;
    {
      // Count runs the save actually abandoned (vs cancels that fired
      // past its last check-point and rolled forward).
      fs::remove_all(Dir());
      triggered = ProbeBatchFaultPoint(
          Dir(), corpus.before, corpus.after, corpus.sig_before,
          corpus.sig_after,
          [op, &source](FaultInjectionEnv& env) {
            env.CancelAt(op, source);
          },
          [&source] { return source.MakeContext(); });
    }
    if (source.cancelled()) ++cancelled_runs;
    if (!triggered) break;
  }
  EXPECT_GT(op, 10);
  EXPECT_LT(op, 10000);
  EXPECT_GT(cancelled_runs, 10);
}

/// The probed save's deadline in the deadline sweeps: it expires mid-save
/// only when an injected 60 ms stall lands inside the save.
Context ExpiresIn25ms() {
  return Context::WithTimeout(std::chrono::milliseconds(25));
}

TEST_F(FaultInjectionTest, BatchDeadlineMidSaveYieldsAllPreOrAllPost) {
  // Deadline sweep: a DelayAt-injected stall at the Nth op makes a
  // 25 ms deadline expire mid-save, deterministically at that op. The
  // save must notice at its next check-point and leave disk all-pre;
  // a stall landing after the journal write rolls forward to all-post.
  BatchCorpus corpus = MakeBatchCorpus(2);
  int op = 0;
  for (; op < 10000; ++op) {
    if (!ProbeBatchFaultPoint(
            Dir(), corpus.before, corpus.after, corpus.sig_before,
            corpus.sig_after,
            [op](FaultInjectionEnv& env) { env.DelayAt(op, 60); },
            ExpiresIn25ms)) {
      break;
    }
  }
  EXPECT_GT(op, 5);
  EXPECT_LT(op, 10000);
}

TEST_F(FaultInjectionTest, DeadlineCrossTornWriteLeavesNoHybrid) {
  // The combination sweep the overload ISSUE calls for: a deadline
  // blown at op N (via an injected stall) AND a torn write at a later
  // op. Whichever fires first must still leave every slot bit-exactly
  // pre- or post-batch. The torn write only triggers when the save
  // survives past the stall — both orders are covered by the sweep.
  BatchCorpus corpus = MakeBatchCorpus(2);
  for (const int delay_op : {0, 2, 4, 6, 8}) {
    for (const size_t keep : {size_t{0}, size_t{512}}) {
      ProbeBatchFaultPoint(
          Dir(), corpus.before, corpus.after, corpus.sig_before,
          corpus.sig_after,
          [delay_op, keep](FaultInjectionEnv& env) {
            env.DelayAt(delay_op, 60);
            env.TearWriteAt(delay_op + 3, keep);
          },
          ExpiresIn25ms);
    }
  }
}

TEST_F(FaultInjectionTest, DelayAtStallsTheTargetedOperations) {
  FaultInjectionEnv env;
  XY_ASSERT_OK(env.CreateDirs(Dir()));
  env.Reset();
  env.DelayAt(0, 30, 2);
  const auto start = std::chrono::steady_clock::now();
  XY_ASSERT_OK(env.WriteFile(Dir() + "/a", "x"));
  XY_ASSERT_OK(env.WriteFile(Dir() + "/b", "y"));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // Two stalled ops at 30 ms each; the op itself still succeeds.
  EXPECT_GE(elapsed.count(), 60);
  EXPECT_TRUE(env.triggered());
  // Ops past the window run at full speed and the files are intact.
  Result<std::string> a = env.ReadFile(Dir() + "/a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, "x");
}

TEST_F(FaultInjectionTest, CancelAtFiresTheSourceAndLetsTheOpProceed) {
  FaultInjectionEnv env;
  XY_ASSERT_OK(env.CreateDirs(Dir()));
  env.Reset();
  CancellationSource source;
  env.CancelAt(1, source);
  XY_ASSERT_OK(env.WriteFile(Dir() + "/a", "x"));  // Op 0: no cancel yet.
  EXPECT_FALSE(source.cancelled());
  XY_ASSERT_OK(env.WriteFile(Dir() + "/b", "y"));  // Op 1 fires the cancel.
  EXPECT_TRUE(source.cancelled());
  EXPECT_TRUE(env.triggered());
  // The op that fired the cancel still completed — the *caller* is the
  // one that must notice at its next check-point.
  Result<std::string> b = env.ReadFile(Dir() + "/b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, "y");
}

TEST_F(FaultInjectionTest, WriteFileShortFailureIsIOErrorNotCorruption) {
  // Satellite regression: a failed in-place write is an I/O failure
  // (possibly transient — ENOSPC), never "Corruption", which is
  // reserved for bytes read back wrong. /proc/self/mem rejects writes
  // at offset 0, giving a real short-write errno path.
  Env* env = Env::Default();
  const Status s = env->WriteFile("/proc/self/mem", "x");
  if (!s.ok()) {  // Sandboxes differ; only the classification matters.
    EXPECT_NE(s.code(), StatusCode::kCorruption) << s.ToString();
    EXPECT_NE(s.message().find("errno"), std::string::npos) << s.ToString();
  }
}

}  // namespace
}  // namespace xydiff
