// Overload and degradation behaviour of the warehouse pipeline
// (DESIGN.md §3.17): admission control sheds slots against byte
// budgets, a dead context fails slots with kDeadlineExceeded /
// kCancelled without touching the store, and persistent store IOError or
// a group commit cut short degrades only the failed slots' persistence —
// ingests and reads go on.

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/context.h"
#include "util/fault_env.h"
#include "util/status.h"
#include "version/warehouse.h"
#include "xml/parser.h"

namespace xydiff {
namespace {

namespace fs = std::filesystem;

using std::chrono::milliseconds;

class ScratchDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xydiff_overload_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Dir() const { return dir_.string(); }

  fs::path dir_;
};

std::string SmallDoc(int i, int version) {
  return "<doc><id>" + std::to_string(i) + "</id><v>page version " +
         std::to_string(version) + " payload</v></doc>";
}

std::vector<Warehouse::DiffJob> MakeJobs(size_t count, int version) {
  std::vector<Warehouse::DiffJob> jobs;
  for (size_t i = 0; i < count; ++i) {
    jobs.push_back({"doc" + std::to_string(i),
                    SmallDoc(static_cast<int>(i), version)});
  }
  return jobs;
}

TEST(OverloadTest, BatchByteBudgetShedsWithResourceExhausted) {
  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 2;
  const std::vector<Warehouse::DiffJob> jobs = MakeJobs(8, 1);
  // Budget for roughly half the batch: some slots must be admitted,
  // some must be shed (which ones depends on claim order).
  size_t total = 0;
  for (const auto& job : jobs) total += job.xml.size();
  pipeline.max_batch_bytes = total / 2;

  PipelineStats stats;
  const auto reports = warehouse.DiffBatch(jobs, pipeline, &stats);
  size_t ok = 0, shed = 0;
  for (const auto& r : reports) {
    if (r.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(r.status().code(), StatusCode::kResourceExhausted)
          << r.status().ToString();
      ++shed;
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(stats.shed_slots, shed);
  // Shed slots never became documents.
  EXPECT_EQ(warehouse.document_count(), ok);
}

TEST(OverloadTest, OversizedDocumentIsShedOthersProceed) {
  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 2;
  pipeline.max_document_bytes = 256;
  std::vector<Warehouse::DiffJob> jobs = MakeJobs(3, 1);
  jobs.push_back({"hostile", "<doc><blob>" + std::string(4096, 'x') +
                                 "</blob></doc>"});
  PipelineStats stats;
  const auto reports = warehouse.DiffBatch(jobs, pipeline, &stats);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(reports[i].ok()) << reports[i].status().ToString();
  }
  ASSERT_FALSE(reports[3].ok());
  EXPECT_EQ(reports[3].status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(stats.shed_slots, 1u);
  EXPECT_EQ(warehouse.document_count(), 3u);
}

TEST(OverloadTest, ExpiredDeadlineFailsEverySlotCleanly) {
  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 2;
  const Context expired = Context::WithTimeout(milliseconds(0));
  pipeline.context = &expired;
  PipelineStats stats;
  const auto reports = warehouse.DiffBatch(MakeJobs(5, 1), pipeline, &stats);
  for (const auto& r : reports) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
        << r.status().ToString();
  }
  EXPECT_EQ(stats.deadline_slots, 5u);
  // No partial state: nothing was ingested.
  EXPECT_EQ(warehouse.document_count(), 0u);
}

TEST(OverloadTest, CancelledSourceFailsEverySlotWithCancelled) {
  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 2;
  CancellationSource source;
  source.Cancel();
  const Context ctx = source.MakeContext();
  pipeline.context = &ctx;
  PipelineStats stats;
  const auto reports = warehouse.DiffBatch(MakeJobs(4, 1), pipeline, &stats);
  for (const auto& r : reports) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(stats.cancelled_slots, 4u);
  EXPECT_EQ(warehouse.document_count(), 0u);
}

TEST(OverloadTest, DeadlinePropagatesIntoSingleIngestDiff) {
  // The context reaches the diff itself (XyDiff checks it on entry), not
  // just the pipeline's admission gate.
  Warehouse warehouse;
  Result<XmlDocument> v1 = ParseXml(SmallDoc(0, 1));
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(warehouse.Ingest("doc0", std::move(*v1)).ok());

  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 1;
  const Context expired = Context::WithTimeout(milliseconds(0));
  pipeline.context = &expired;
  const auto reports =
      warehouse.DiffBatch({{"doc0", SmallDoc(0, 2)}}, pipeline);
  ASSERT_FALSE(reports[0].ok());
  EXPECT_EQ(reports[0].status().code(), StatusCode::kDeadlineExceeded);
  // The failed slot must not have advanced the stored version.
  EXPECT_EQ(warehouse.version_count("doc0"), 1);
}

using OverloadStoreTest = ScratchDirTest;

TEST_F(OverloadStoreTest, PersistentStoreIOErrorLeavesIngestsAndReadsStanding) {
  FaultInjectionEnv env;
  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 1;
  pipeline.save_directory = Dir();
  pipeline.env = &env;
  pipeline.max_io_retries = 0;
  pipeline.retry_backoff_ms = 0;
  // Nine slots at one thread: slots 1-8 fill one commit group, slot 9
  // is the tail group, so both group-commit paths meet the failing env.
  constexpr size_t kDocs = 9;

  // Round 1: version 1 everywhere, persisted while the env still works.
  for (const auto& r : warehouse.DiffBatch(MakeJobs(kDocs, 1), pipeline)) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  // Round 2: every I/O op fails with (transient-looking but persistent)
  // IOError. Every group commit fails, yet each slot's in-memory ingest
  // stands and is reported degraded (in memory yes, on disk no).
  env.InjectErrorAt(0, 1 << 20);
  const auto reports = warehouse.DiffBatch(MakeJobs(kDocs, 2), pipeline);
  ASSERT_EQ(reports.size(), kDocs);
  for (size_t i = 0; i < kDocs; ++i) {
    ASSERT_TRUE(reports[i].ok()) << reports[i].status().ToString();
    EXPECT_TRUE(reports[i]->store_degraded) << "slot " << i;
  }

  // Reads are served...
  EXPECT_FALSE(warehouse.Search("payload").empty());
  EXPECT_TRUE(warehouse.Checkout("doc0", 1).ok());
  EXPECT_EQ(warehouse.version_count("doc0"), 2);
  // ...and a later ingest is accepted while the store still fails.
  Result<XmlDocument> doc = ParseXml(SmallDoc(9, 1));
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(warehouse.Ingest("newdoc", std::move(*doc)).ok());
}

// A group commit that the context cuts short takes nothing back: every
// slot's in-memory ingest stands, so the slots come back ok() and
// degraded, and none is counted as cancelled — cancelled_slots still
// counts exactly the kCancelled results.
TEST_F(OverloadStoreTest, CutShortGroupCommitDegradesSlotsAndCountsNone) {
  Warehouse warehouse;
  constexpr size_t kDocs = 3;
  for (const Warehouse::DiffJob& job : MakeJobs(kDocs, 1)) {
    Result<XmlDocument> doc = ParseXml(job.xml);
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(warehouse.Ingest(job.url, std::move(*doc)).ok());
  }

  FaultInjectionEnv env;
  CancellationSource source;
  env.CancelAt(0, source);  // The save's first env op cancels the batch.
  const Context ctx = source.MakeContext();
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 1;
  pipeline.save_directory = Dir();
  pipeline.env = &env;
  pipeline.context = &ctx;
  PipelineStats stats;
  const auto reports =
      warehouse.DiffBatch(MakeJobs(kDocs, 2), pipeline, &stats);
  ASSERT_TRUE(source.cancelled());
  ASSERT_EQ(reports.size(), kDocs);
  size_t cancelled = 0;
  for (const auto& r : reports) {
    if (r.ok()) {
      EXPECT_TRUE(r->store_degraded) << r->url;
      continue;
    }
    if (r.status().code() == StatusCode::kCancelled) ++cancelled;
    ADD_FAILURE() << r.status().ToString();
  }
  EXPECT_EQ(stats.cancelled_slots, cancelled);
  EXPECT_EQ(cancelled, 0u);
  EXPECT_EQ(stats.deadline_slots, 0u);
  EXPECT_EQ(stats.degraded_slots, kDocs);
  EXPECT_EQ(warehouse.version_count("doc0"), 2);
}

TEST(OverloadTest, DefaultOptionsImposeNoLimits) {
  // All overload knobs default off: a plain batch behaves exactly as
  // before this subsystem existed.
  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 2;
  PipelineStats stats;
  const auto reports = warehouse.DiffBatch(MakeJobs(6, 1), pipeline, &stats);
  for (const auto& r : reports) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(stats.shed_slots, 0u);
  EXPECT_EQ(stats.deadline_slots, 0u);
  EXPECT_EQ(stats.cancelled_slots, 0u);
}

}  // namespace
}  // namespace xydiff
