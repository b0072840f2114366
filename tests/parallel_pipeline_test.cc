// DiffBatch (each slot parsed, diffed and stored start to finish on one
// ParallelFor worker) must be a *refinement* of the sequential ingest
// path: same results, same stored versions, independent of scheduling.
// These tests drive real batches through it under every configuration
// the scheduler can reach — more threads than documents, duplicate URLs,
// malformed members — and pin the outputs to the single-threaded run,
// or to Ingest() over freshly parsed documents, byte for byte. Run them
// under ASan/UBSan (XYDIFF_SANITIZE) and TSan (XYDIFF_TSAN,
// tools/run_tsan_tests.sh) to make the scheduling space itself part of
// the test.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "delta/delta_xml.h"
#include "gtest/gtest.h"
#include "monitor/index.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "version/repository.h"
#include "version/warehouse.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xydiff {
namespace {

struct Corpus {
  std::vector<Warehouse::DiffJob> week1;
  std::vector<Warehouse::DiffJob> week2;
};

/// Deterministic corpus of `count` documents with a simulated weekly
/// change applied to each. Small documents: the point is many
/// scheduling interleavings, not diff work.
Corpus MakeCorpus(size_t count, uint64_t seed) {
  Rng rng(seed);
  DocGenOptions gen;
  gen.target_bytes = 600;
  ChangeSimOptions sim;  // Paper defaults: 10% per operation.
  Corpus corpus;
  corpus.week1.reserve(count);
  corpus.week2.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    XmlDocument base = GenerateDocument(&rng, gen);
    base.AssignInitialXids();
    Result<SimulatedChange> change = SimulateChanges(base, sim, &rng);
    EXPECT_TRUE(change.ok()) << change.status().ToString();
    const std::string url = "doc" + std::to_string(i);
    corpus.week1.push_back({url, SerializeDocument(base)});
    corpus.week2.push_back(
        {url, SerializeDocument(change.ok() ? change->new_version : base)});
  }
  return corpus;
}

/// Everything observable about one document after a batch, keyed by URL:
/// the ingest report fields plus the canonical XID-carrying serialization
/// of every stored version. Two runs are "the same" iff these maps are
/// equal — the serialization includes XIDs, so even identifier assignment
/// must not depend on scheduling.
struct DocumentOutcome {
  int version = 0;
  size_t operations = 0;
  size_t delta_bytes = 0;
  std::vector<std::string> versions_with_xids;

  bool operator==(const DocumentOutcome& other) const {
    return version == other.version && operations == other.operations &&
           delta_bytes == other.delta_bytes &&
           versions_with_xids == other.versions_with_xids;
  }
};

std::map<std::string, DocumentOutcome> Observe(
    const Warehouse& warehouse,
    const std::vector<Result<Warehouse::IngestReport>>& reports) {
  std::map<std::string, DocumentOutcome> outcomes;
  SerializeOptions with_xids;
  with_xids.emit_xids = true;
  for (const auto& report : reports) {
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (!report.ok()) continue;
    DocumentOutcome& outcome = outcomes[report->url];
    outcome.version = report->version;
    outcome.operations = report->operations;
    outcome.delta_bytes = report->delta_bytes;
    for (int v = 1; v <= report->version; ++v) {
      Result<XmlDocument> doc = warehouse.Checkout(report->url, v);
      EXPECT_TRUE(doc.ok()) << report->url << " v" << v << ": "
                            << doc.status().ToString();
      outcome.versions_with_xids.push_back(
          doc.ok() ? SerializeDocument(*doc, with_xids) : std::string());
    }
  }
  return outcomes;
}

/// Runs both weeks through DiffBatch with the given tuning and returns
/// the full observable outcome.
std::map<std::string, DocumentOutcome> RunPipeline(
    const Corpus& corpus, const Warehouse::PipelineOptions& pipeline,
    PipelineStats* stats = nullptr) {
  Warehouse warehouse;
  XY_EXPECT_OK(warehouse.Subscribe("items", "//item"));
  auto week1_reports = warehouse.DiffBatch(corpus.week1, pipeline);
  for (const auto& r : week1_reports) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) {
      EXPECT_TRUE(r->first_version);
    }
  }
  auto week2_reports = warehouse.DiffBatch(corpus.week2, pipeline, stats);
  return Observe(warehouse, week2_reports);
}

/// The reference outcome: both weeks through Ingest() over documents
/// parsed fresh (no arena pool, monitors maintained inline). The
/// reference delta_bytes is the serialized length of a bare
/// VersionRepository's delta for the same pair, not a counted size.
std::map<std::string, DocumentOutcome> RunIngest(const Corpus& corpus) {
  Warehouse warehouse;
  XY_EXPECT_OK(warehouse.Subscribe("items", "//item"));
  for (const Warehouse::DiffJob& job : corpus.week1) {
    Result<XmlDocument> doc = ParseXml(job.xml);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    if (doc.ok()) {
      EXPECT_TRUE(warehouse.Ingest(job.url, std::move(*doc)).ok());
    }
  }
  std::vector<Result<Warehouse::IngestReport>> reports;
  for (const Warehouse::DiffJob& job : corpus.week2) {
    Result<XmlDocument> doc = ParseXml(job.xml);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    if (doc.ok()) reports.push_back(warehouse.Ingest(job.url, std::move(*doc)));
  }
  std::map<std::string, DocumentOutcome> outcomes =
      Observe(warehouse, reports);
  for (size_t i = 0; i < corpus.week1.size(); ++i) {
    Result<XmlDocument> v1 = ParseXml(corpus.week1[i].xml);
    Result<XmlDocument> v2 = ParseXml(corpus.week2[i].xml);
    EXPECT_TRUE(v1.ok() && v2.ok());
    if (!v1.ok() || !v2.ok()) continue;
    VersionRepository repo(std::move(*v1));
    Result<int> version = repo.Commit(std::move(*v2));
    EXPECT_TRUE(version.ok()) << version.status().ToString();
    if (!version.ok()) continue;
    Result<const Delta*> delta = repo.DeltaFor(*version - 1);
    EXPECT_TRUE(delta.ok()) << delta.status().ToString();
    if (delta.ok()) {
      outcomes[corpus.week1[i].url].delta_bytes =
          SerializeDelta(**delta).size();
    }
  }
  return outcomes;
}

// The headline scenario from the issue: 8 threads, 200 documents.
// Scheduling freedom is maximal (on a multicore box workers genuinely
// race; under TSan every access is checked), yet the outcome must be
// byte-identical to the 1-thread run — XIDs included.
TEST(ParallelPipelineTest, EightThreadsTwoHundredDocsMatchSingleThread) {
  Corpus corpus = MakeCorpus(200, 8200);

  Warehouse::PipelineOptions sequential;
  sequential.threads = 1;
  std::map<std::string, DocumentOutcome> expected =
      RunPipeline(corpus, sequential);
  ASSERT_EQ(expected.size(), 200u);

  Warehouse::PipelineOptions parallel;
  parallel.threads = 8;
  PipelineStats stats;
  std::map<std::string, DocumentOutcome> actual =
      RunPipeline(corpus, parallel, &stats);

  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [url, outcome] : expected) {
    auto it = actual.find(url);
    ASSERT_NE(it, actual.end()) << url;
    EXPECT_TRUE(it->second == outcome)
        << url << ": parallel outcome differs from sequential"
        << " (v" << it->second.version << " vs v" << outcome.version
        << ", ops " << it->second.operations << " vs " << outcome.operations
        << ")";
  }

  // Stage accounting: every document passed every stage exactly once.
  ASSERT_EQ(stats.stages.size(), 3u);
  for (const StageStats& stage : stats.stages) {
    EXPECT_EQ(stage.items, 200u) << stage.name;
    EXPECT_EQ(stage.failed, 0u) << stage.name;
  }
  EXPECT_GE(stats.peak_in_flight, 1u);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

// Determinism across thread counts that divide, exceed, and
// oversubscribe the batch.
TEST(ParallelPipelineTest, OutcomeIndependentOfThreadCount) {
  Corpus corpus = MakeCorpus(48, 4242);
  Warehouse::PipelineOptions reference;
  reference.threads = 1;
  std::map<std::string, DocumentOutcome> expected =
      RunPipeline(corpus, reference);

  for (int threads : {2, 3, 8, 64}) {
    Warehouse::PipelineOptions pipeline;
    pipeline.threads = threads;
    std::map<std::string, DocumentOutcome> actual =
        RunPipeline(corpus, pipeline);
    EXPECT_TRUE(actual == expected) << "threads=" << threads;
  }
}

// A malformed document fails its own slot and nothing else; the batch
// runs to completion and the failure names the culprit.
TEST(ParallelPipelineTest, MalformedDocumentFailsOnlyItsSlot) {
  Corpus corpus = MakeCorpus(24, 7);
  std::vector<Warehouse::DiffJob> week2 = corpus.week2;
  week2[5].xml = "<broken><unclosed>";
  week2[17].xml = "not xml at all";

  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 8;
  for (const auto& r : warehouse.DiffBatch(corpus.week1, pipeline)) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  auto reports = warehouse.DiffBatch(week2, pipeline);
  ASSERT_EQ(reports.size(), week2.size());
  for (size_t i = 0; i < reports.size(); ++i) {
    if (i == 5 || i == 17) {
      EXPECT_FALSE(reports[i].ok()) << "slot " << i;
      EXPECT_NE(reports[i].status().ToString().find(week2[i].url),
                std::string::npos)
          << "error should name the failing URL: "
          << reports[i].status().ToString();
    } else {
      EXPECT_TRUE(reports[i].ok()) << "slot " << i << ": "
                                   << reports[i].status().ToString();
    }
  }
  // The failed documents stay at version 1; their neighbours advanced.
  EXPECT_EQ(warehouse.version_count("doc5"), 1);
  EXPECT_EQ(warehouse.version_count("doc17"), 1);
  EXPECT_EQ(warehouse.version_count("doc6"), 2);
}

// Duplicate URLs in one batch are rejected up front (the pipeline would
// otherwise race two ingests of the same document non-deterministically).
TEST(ParallelPipelineTest, DuplicateUrlsInOneBatchAreRejected) {
  Corpus corpus = MakeCorpus(4, 11);
  std::vector<Warehouse::DiffJob> batch = corpus.week1;
  batch.push_back(batch[1]);  // Same URL twice.

  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 4;
  auto reports = warehouse.DiffBatch(batch, pipeline);
  ASSERT_EQ(reports.size(), 5u);
  EXPECT_FALSE(reports[4].ok());
  // The first occurrence still ingests normally.
  EXPECT_TRUE(reports[1].ok()) << reports[1].status().ToString();
}

// Reports preserve input order even though completion order is
// scheduler-dependent.
TEST(ParallelPipelineTest, ReportsComeBackInInputOrder) {
  Corpus corpus = MakeCorpus(32, 99);
  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 8;
  auto reports = warehouse.DiffBatch(corpus.week1, pipeline);
  ASSERT_EQ(reports.size(), corpus.week1.size());
  for (size_t i = 0; i < reports.size(); ++i) {
    ASSERT_TRUE(reports[i].ok()) << reports[i].status().ToString();
    EXPECT_EQ(reports[i]->url, corpus.week1[i].url) << "slot " << i;
  }
}

// An empty batch is a no-op, not a hang (the worker loop's exit
// condition must not wait for items that never come).
TEST(ParallelPipelineTest, EmptyBatchCompletes) {
  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 8;
  PipelineStats stats;
  auto reports = warehouse.DiffBatch({}, pipeline, &stats);
  EXPECT_TRUE(reports.empty());
  for (const StageStats& stage : stats.stages) {
    EXPECT_EQ(stage.items, 0u);
  }
}

// Mixed old and new URLs in one batch: first sights store version 1,
// known URLs diff — concurrently, in the same pipeline run.
TEST(ParallelPipelineTest, MixedFirstAndRepeatSightsInOneBatch) {
  Corpus corpus = MakeCorpus(16, 1234);
  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 4;
  // Pre-ingest the even URLs only.
  std::vector<Warehouse::DiffJob> first;
  for (size_t i = 0; i < corpus.week1.size(); i += 2) {
    first.push_back(corpus.week1[i]);
  }
  for (const auto& r : warehouse.DiffBatch(first, pipeline)) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // Now feed week2 for everyone: evens diff to v2, odds appear as v1.
  auto reports = warehouse.DiffBatch(corpus.week2, pipeline);
  ASSERT_EQ(reports.size(), corpus.week2.size());
  for (size_t i = 0; i < reports.size(); ++i) {
    ASSERT_TRUE(reports[i].ok()) << reports[i].status().ToString();
    if (i % 2 == 0) {
      EXPECT_EQ(reports[i]->version, 2) << "slot " << i;
      EXPECT_FALSE(reports[i]->first_version);
    } else {
      EXPECT_EQ(reports[i]->version, 1) << "slot " << i;
      EXPECT_TRUE(reports[i]->first_version);
    }
  }
}

// Subscriptions fire identically through the parallel path: alerts are
// evaluated under the per-document lock, so a matching change in any
// document yields its alert regardless of which worker ingested it.
TEST(ParallelPipelineTest, AlertsFireThroughThePipeline) {
  Warehouse warehouse;
  XY_ASSERT_OK(warehouse.Subscribe("price-watch", "//price"));
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 4;

  std::vector<Warehouse::DiffJob> week1;
  std::vector<Warehouse::DiffJob> week2;
  for (int i = 0; i < 8; ++i) {
    const std::string url = "shop" + std::to_string(i);
    week1.push_back({url, "<catalog><price>10</price></catalog>"});
    week2.push_back(
        {url, "<catalog><price>" + std::to_string(11 + i) + "</price>"
              "</catalog>"});
  }
  for (const auto& r : warehouse.DiffBatch(week1, pipeline)) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  auto reports = warehouse.DiffBatch(week2, pipeline);
  for (const auto& r : reports) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->alerts.empty())
        << r->url << ": price change should trigger the subscription";
  }
}

// Arena recycling is an allocator change, never a semantic one: DiffBatch
// slots parsed into pooled arenas must yield byte-identical stored
// versions — XIDs included — and identical deltas to Ingest() over
// freshly parsed documents. Run under the ASan preset, this is also the
// aliasing check: a recycled arena that still carried another slot's
// live bytes would trip use-after-poison immediately.
TEST(ParallelPipelineTest, PooledArenasMatchFreshArenasByteForByte) {
  Corpus corpus = MakeCorpus(60, 4600);

  std::map<std::string, DocumentOutcome> expected = RunIngest(corpus);
  ASSERT_EQ(expected.size(), 60u);

  Warehouse::PipelineOptions pooled;
  pooled.threads = 4;
  std::map<std::string, DocumentOutcome> actual =
      RunPipeline(corpus, pooled);

  EXPECT_TRUE(expected == actual)
      << "arena recycling changed an observable outcome";
}

// The first Search builds each document's index; every later delta is
// applied to it on the slot that made the delta. An index that a
// DiffBatch updated by FullTextIndex::Apply must answer exactly like one
// built from the current version, and like Ingest() of freshly parsed
// documents.
TEST(ParallelPipelineTest, BatchAppliedIndexAnswersSearchesLikeAFreshBuild) {
  Corpus corpus = MakeCorpus(30, 3000);
  // Probe with every token of both weeks, so words a delta removed are
  // asked for too, plus one miss.
  std::set<std::string> words = {"zzz-not-a-word"};
  for (const auto* week : {&corpus.week1, &corpus.week2}) {
    for (const auto& job : *week) {
      for (std::string& word : FullTextIndex::Tokenize(job.xml)) {
        words.insert(std::move(word));
      }
    }
  }
  const auto search_all = [&words](const Warehouse& warehouse) {
    std::map<std::string, std::vector<std::pair<std::string, Xid>>> hits;
    for (const std::string& word : words) hits[word] = warehouse.Search(word);
    return hits;
  };

  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 2;
  Warehouse applied_wh;  // Searched between the weeks.
  Warehouse fresh_wh;    // Searched only at the end.
  Warehouse inline_wh;   // Ingest() instead of DiffBatch.
  for (const auto* week : {&corpus.week1, &corpus.week2}) {
    for (Warehouse* warehouse : {&applied_wh, &fresh_wh}) {
      for (const auto& r : warehouse->DiffBatch(*week, pipeline)) {
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    }
    for (const auto& job : *week) {
      Result<XmlDocument> doc = ParseXml(job.xml);
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      auto report = inline_wh.Ingest(job.url, std::move(*doc));
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    }
    if (week == &corpus.week1) search_all(applied_wh);  // Builds the index.
  }
  const auto applied = search_all(applied_wh);
  EXPECT_TRUE(applied == search_all(fresh_wh))
      << "an applied index diverged from a fresh build";
  EXPECT_TRUE(applied == search_all(inline_wh))
      << "DiffBatch and Ingest answer Search differently";
  EXPECT_GT(std::count_if(applied.begin(), applied.end(),
                          [](const auto& entry) {
                            return !entry.second.empty();
                          }),
            0);
}

}  // namespace
}  // namespace xydiff
