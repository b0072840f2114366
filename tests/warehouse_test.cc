#include "version/warehouse.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>

#include "core/buld.h"
#include "gtest/gtest.h"
#include "monitor/change_stats.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "simulator/web_corpus.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "version/storage.h"

namespace xydiff {
namespace {

namespace fs = std::filesystem;

TEST(WarehouseTest, FirstIngestStoresVersionOne) {
  Warehouse warehouse;
  Result<Warehouse::IngestReport> report =
      warehouse.Ingest("http://a", MustParse("<doc><t>hello</t></doc>"));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->first_version);
  EXPECT_EQ(report->version, 1);
  EXPECT_EQ(report->operations, 0u);
  EXPECT_EQ(warehouse.document_count(), 1u);
  EXPECT_EQ(warehouse.version_count("http://a"), 1);
  EXPECT_EQ(warehouse.version_count("http://unknown"), 0);
}

TEST(WarehouseTest, SecondIngestRunsThePipeline) {
  Warehouse warehouse;
  XY_ASSERT_OK(warehouse.Subscribe("price", "//price", ChangeKind::kUpdate));
  ASSERT_TRUE(warehouse
                  .Ingest("http://a",
                          MustParse("<doc><price>10</price></doc>"))
                  .ok());
  Result<Warehouse::IngestReport> report = warehouse.Ingest(
      "http://a", MustParse("<doc><price>20</price></doc>"));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->first_version);
  EXPECT_EQ(report->version, 2);
  EXPECT_GT(report->operations, 0u);
  ASSERT_EQ(report->alerts.size(), 1u);
  EXPECT_EQ(report->alerts[0].subscription_id, "price");
  // Statistics learned the change.
  EXPECT_EQ(warehouse.StatsForLabel("price").text_updated, 1u);
}

// Every path feeds the statistics: a re-crawl handed to DiffBatch counts
// exactly like the same re-crawl through Ingest.
TEST(WarehouseTest, DiffBatchFeedsStatisticsLikeIngest) {
  const std::string before = "<doc><price>10</price></doc>";
  const std::string after = "<doc><price>12</price></doc>";
  Warehouse ingested;
  ASSERT_TRUE(ingested.Ingest("http://a", MustParse(before)).ok());
  ASSERT_TRUE(ingested.Ingest("http://a", MustParse(after)).ok());
  Warehouse batched;
  for (const std::string& xml : {before, after}) {
    for (const auto& r : batched.DiffBatch({{"http://a", xml}})) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  }
  EXPECT_EQ(batched.StatsForLabel("price").text_updated, 1u);
  for (const char* label : {"doc", "price"}) {
    EXPECT_TRUE(batched.StatsForLabel(label) == ingested.StatsForLabel(label))
        << label;
  }
  EXPECT_EQ(batched.StatsReport(), ingested.StatsReport());
}

// A warehouse keeps each document's label counts and moves them across
// every delta; its statistics must equal a collector that walks every
// version, through a Save/Load that makes the counts start over.
TEST(WarehouseTest, KeptLabelCountsMatchWalkingEveryVersion) {
  const fs::path dir = fs::temp_directory_path() /
                       ("xydiff_warehouse_labels_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  Warehouse warehouse;
  ChangeStatistics reference;
  std::set<std::string> labels;
  Rng rng(91);
  DocGenOptions gen;
  gen.target_bytes = 4096;
  XmlDocument current = MustParse(SerializeDocument(GenerateDocument(&rng, gen)));
  current.AssignInitialXids();
  ASSERT_TRUE(warehouse.Ingest("http://d", current.Clone()).ok());
  std::unique_ptr<Warehouse> loaded;
  for (int v = 0; v < 12; ++v) {
    if (v == 6) {
      XY_ASSERT_OK(warehouse.Save(dir.string()));
      Result<std::unique_ptr<Warehouse>> load = Warehouse::Load(dir.string());
      ASSERT_TRUE(load.ok()) << load.status().ToString();
      loaded = std::move(*load);
    }
    Result<SimulatedChange> change =
        SimulateChanges(current, ChangeSimOptions{}, &rng);
    ASSERT_TRUE(change.ok());
    const std::string text = SerializeDocument(change->new_version);
    XmlDocument next = MustParse(text);
    Result<Delta> delta = XyDiff(&current, &next);
    ASSERT_TRUE(delta.ok());
    if (v >= 6) reference.Accumulate(*delta, current, next);
    next.root()->Visit([&](const XmlNode* n) {
      if (n->is_element()) labels.emplace(n->label());
    });
    Warehouse& target = v < 6 ? warehouse : *loaded;
    ASSERT_TRUE(target.Ingest("http://d", MustParse(text)).ok());
    current = std::move(next);
  }
  fs::remove_all(dir);
  for (const std::string& label : labels) {
    EXPECT_TRUE(loaded->StatsForLabel(label) == reference.ForLabel(label))
        << label;
  }
}

TEST(WarehouseTest, CheckoutHistoricalVersions) {
  Warehouse warehouse;
  ASSERT_TRUE(warehouse.Ingest("u", MustParse("<d><t>v1</t></d>")).ok());
  ASSERT_TRUE(warehouse.Ingest("u", MustParse("<d><t>v2</t></d>")).ok());
  ASSERT_TRUE(warehouse.Ingest("u", MustParse("<d><t>v3</t></d>")).ok());
  for (int v = 1; v <= 3; ++v) {
    Result<XmlDocument> doc = warehouse.Checkout("u", v);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->root()->child(0)->child(0)->text(),
              "v" + std::to_string(v));
  }
  EXPECT_FALSE(warehouse.Checkout("u", 4).ok());
  EXPECT_FALSE(warehouse.Checkout("nope", 1).ok());
}

TEST(WarehouseTest, SearchSpansDocumentsAndStaysFresh) {
  Warehouse warehouse;
  ASSERT_TRUE(
      warehouse.Ingest("a", MustParse("<d><t>shared needle</t></d>")).ok());
  ASSERT_TRUE(
      warehouse.Ingest("b", MustParse("<d><t>needle too</t></d>")).ok());
  ASSERT_TRUE(warehouse.Ingest("c", MustParse("<d><t>nothing</t></d>")).ok());
  EXPECT_EQ(warehouse.Search("needle").size(), 2u);
  // After an update removing the word, the index follows.
  ASSERT_TRUE(
      warehouse.Ingest("a", MustParse("<d><t>shared thread</t></d>")).ok());
  EXPECT_EQ(warehouse.Search("needle").size(), 1u);
  EXPECT_EQ(warehouse.Search("needle")[0].first, "b");
}

TEST(WarehouseTest, BatchIngestParallelMatchesSerial) {
  Rng rng(71);
  DocGenOptions gen;
  gen.target_bytes = 2048;

  // Build two identical crawls of 24 documents.
  std::vector<std::pair<std::string, XmlDocument>> crawl1;
  std::vector<std::pair<std::string, XmlDocument>> crawl1_copy;
  for (int i = 0; i < 24; ++i) {
    XmlDocument doc = GenerateDocument(&rng, gen);
    crawl1_copy.emplace_back("url" + std::to_string(i), doc.Clone());
    crawl1.emplace_back("url" + std::to_string(i), std::move(doc));
  }

  Warehouse parallel;
  auto reports = parallel.IngestBatch(std::move(crawl1), /*threads=*/8);
  ASSERT_EQ(reports.size(), 24u);
  for (const auto& r : reports) {
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->first_version);
  }
  Warehouse serial;
  for (auto& [url, doc] : crawl1_copy) {
    ASSERT_TRUE(serial.Ingest(url, std::move(doc)).ok());
  }
  EXPECT_EQ(parallel.document_count(), serial.document_count());
  EXPECT_EQ(parallel.urls(), serial.urls());
}

TEST(WarehouseTest, BatchSecondWeekWithChanges) {
  Rng rng(72);
  DocGenOptions gen;
  gen.target_bytes = 2048;
  Warehouse warehouse;
  XY_ASSERT_OK(warehouse.Subscribe("any", "//*"));

  std::vector<std::pair<std::string, XmlDocument>> week1;
  for (int i = 0; i < 12; ++i) {
    week1.emplace_back("u" + std::to_string(i), GenerateDocument(&rng, gen));
  }
  // Week 2 = simulated change of week 1.
  std::vector<std::pair<std::string, XmlDocument>> week2;
  for (auto& [url, doc] : week1) {
    XmlDocument with_xids = doc.Clone();
    with_xids.AssignInitialXids();
    Result<SimulatedChange> change =
        SimulateChanges(with_xids, WeeklyWebChangeProfile(), &rng);
    ASSERT_TRUE(change.ok());
    change->new_version.root()->Visit(
        [](XmlNode* n) { n->set_xid(kNoXid); });  // Fresh crawl, no XIDs.
    week2.emplace_back(url, std::move(change->new_version));
  }

  for (auto& r : warehouse.IngestBatch(std::move(week1), 6)) {
    ASSERT_TRUE(r.ok());
  }
  size_t total_ops = 0;
  for (auto& r : warehouse.IngestBatch(std::move(week2), 6)) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->version, 2);
    total_ops += r->operations;
  }
  EXPECT_GT(total_ops, 0u);
  // Every document has two checkoutable versions.
  for (const std::string& url : warehouse.urls()) {
    EXPECT_TRUE(warehouse.Checkout(url, 1).ok());
    EXPECT_TRUE(warehouse.Checkout(url, 2).ok());
  }
}

TEST(WarehouseTest, DuplicateUrlsInBatchRejected) {
  Warehouse warehouse;
  std::vector<std::pair<std::string, XmlDocument>> batch;
  batch.emplace_back("same", MustParse("<a/>"));
  batch.emplace_back("same", MustParse("<b/>"));
  auto reports = warehouse.IngestBatch(std::move(batch), 2);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].ok());
  EXPECT_EQ(reports[1].status().code(), StatusCode::kInvalidArgument);
}

TEST(WarehouseTest, SaveAndLoadRoundTrip) {
  const fs::path dir = fs::temp_directory_path() /
                       ("xydiff_warehouse_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  Warehouse warehouse;
  ASSERT_TRUE(
      warehouse.Ingest("http://x/a", MustParse("<d><t>alpha one</t></d>"))
          .ok());
  ASSERT_TRUE(
      warehouse.Ingest("http://x/a", MustParse("<d><t>alpha two</t></d>"))
          .ok());
  ASSERT_TRUE(
      warehouse.Ingest("http://x/b", MustParse("<d><t>beta</t></d>")).ok());
  XY_ASSERT_OK(warehouse.Save(dir.string()));

  Result<std::unique_ptr<Warehouse>> loaded = Warehouse::Load(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->document_count(), 2u);
  EXPECT_EQ((*loaded)->version_count("http://x/a"), 2);
  Result<XmlDocument> v1 = (*loaded)->Checkout("http://x/a", 1);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->root()->child(0)->child(0)->text(), "alpha one");
  // The first Search builds the index from the loaded versions.
  EXPECT_EQ((*loaded)->Search("beta").size(), 1u);
  fs::remove_all(dir);
}

// Regression: a truncated stored document used to take down the whole
// Load (the parser error propagated as a hard failure). A warehouse of
// millions of crawled documents cannot lose everything to one bad file:
// Load must skip the corrupt repository, report it via `skipped`, and
// hand back every healthy document.
TEST(WarehouseTest, LoadSkipsTruncatedDocument) {
  const fs::path dir = fs::temp_directory_path() /
                       ("xydiff_truncated_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  Warehouse warehouse;
  ASSERT_TRUE(
      warehouse.Ingest("http://x/good", MustParse("<d><t>fine</t></d>")).ok());
  ASSERT_TRUE(
      warehouse.Ingest("http://x/bad", MustParse("<d><t>doomed</t></d>"))
          .ok());
  XY_ASSERT_OK(warehouse.Save(dir.string()));

  // Truncate the bad document's current file mid-tag, as out-of-band
  // damage (a bad disk, an overeager cleanup script) would. The store's
  // own crash-safe save can no longer produce this state by itself.
  fs::path bad_xml;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().find("bad") == std::string::npos) {
      continue;
    }
    for (const auto& file : fs::directory_iterator(entry.path())) {
      const std::string name = file.path().filename().string();
      if (name.rfind("current.", 0) == 0 &&
          name.size() > 4 && name.compare(name.size() - 4, 4, ".xml") == 0) {
        bad_xml = file.path();
      }
    }
  }
  ASSERT_FALSE(bad_xml.empty()) << "stored current file for http://x/bad";
  {
    std::ofstream out(bad_xml, std::ios::trunc);
    out << "<d><t>doo";
  }

  std::vector<std::string> skipped;
  Result<std::unique_ptr<Warehouse>> loaded =
      Warehouse::Load(dir.string(), DiffOptions{}, &skipped);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->document_count(), 1u);
  EXPECT_EQ((*loaded)->version_count("http://x/good"), 1);
  EXPECT_EQ((*loaded)->version_count("http://x/bad"), 0);
  ASSERT_EQ(skipped.size(), 1u);
  EXPECT_NE(skipped[0].find("bad"), std::string::npos) << skipped[0];

  // The caller may not care which documents were lost.
  Result<std::unique_ptr<Warehouse>> loaded_quietly =
      Warehouse::Load(dir.string());
  ASSERT_TRUE(loaded_quietly.ok()) << loaded_quietly.status().ToString();
  EXPECT_EQ((*loaded_quietly)->document_count(), 1u);
  fs::remove_all(dir);
}

// Regression for the group-commit flush path: FindDocument acquires a
// shard mutex, so it must run BEFORE the flusher starts taking the
// group's document locks (shard -> document is the order everywhere
// else). Twenty documents make two full groups of eight plus a tail of
// four, flushed once after the workers return — each group resolving
// and locking multiple documents — and every repository must land on
// disk loadable and current.
TEST(WarehouseTest, GroupCommitPersistsEveryDocument) {
  const fs::path dir = fs::temp_directory_path() /
                       ("xydiff_group_commit_test_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);

  Warehouse warehouse;
  constexpr int kDocs = 20;
  for (int i = 0; i < kDocs; ++i) {
    const std::string url = "doc" + std::to_string(i);
    ASSERT_TRUE(
        warehouse.Ingest(url, MustParse("<d><t>week one</t></d>")).ok());
  }

  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 4;
  pipeline.save_directory = dir.string();

  std::vector<Warehouse::DiffJob> jobs;
  for (int i = 0; i < kDocs; ++i) {
    jobs.push_back({"doc" + std::to_string(i),
                    "<d><t>week two #" + std::to_string(i) + "</t></d>"});
  }
  const auto results = warehouse.DiffBatch(std::move(jobs), pipeline);
  ASSERT_EQ(results.size(), static_cast<size_t>(kDocs));
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->store_degraded);
  }

  // DiffBatch persists one repository directory per document (no
  // warehouse manifest); each must reopen cleanly at version 2.
  for (int i = 0; i < kDocs; ++i) {
    const std::string url = "doc" + std::to_string(i);
    RecoveryReport report;
    Result<VersionRepository> repo =
        LoadRepository((dir / url).string(), nullptr, &report);
    ASSERT_TRUE(repo.ok()) << url << ": " << repo.status().ToString();
    EXPECT_TRUE(report.clean) << report.ToString();
    ASSERT_EQ(repo->version_count(), 2) << url;
    Result<XmlDocument> head = repo->Checkout(2);
    ASSERT_TRUE(head.ok()) << head.status().ToString();
    EXPECT_EQ(head->root()->child(0)->child(0)->text(),
              "week two #" + std::to_string(i));
  }
  fs::remove_all(dir);
}

// Regression: the directory name of a URL used to replace every byte
// outside [A-Za-z0-9.-] with '_', so "a?b" and "a_b" shared one
// repository and Save silently kept only the second. A DiffBatch group
// holding both failed with "duplicate batch slot". The empty URL (whose
// directory is "_") and a URL of high bytes must come back too.
TEST(WarehouseTest, UrlsDifferingInEscapedBytesKeepTheirOwnRepository) {
  const fs::path dir = fs::temp_directory_path() /
                       ("xydiff_url_names_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const std::vector<std::pair<std::string, std::string>> documents = {
      {"http://x.com/a?b", "first"},
      {"http://x.com/a_b", "second"},
      {"", "empty"},
      {"http://x.com/\xc3\xa9t\xc3\xa9", "accented"}};

  Warehouse warehouse;
  for (const auto& [url, text] : documents) {
    ASSERT_TRUE(
        warehouse.Ingest(url, MustParse("<r><b>" + text + "</b></r>")).ok())
        << url;
  }
  XY_ASSERT_OK(warehouse.Save(dir.string()));
  Result<std::unique_ptr<Warehouse>> loaded = Warehouse::Load(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ((*loaded)->document_count(), documents.size());
  for (const auto& [url, text] : documents) {
    Result<XmlDocument> doc = (*loaded)->Checkout(url, 1);
    ASSERT_TRUE(doc.ok()) << url << ": " << doc.status().ToString();
    EXPECT_EQ(doc->root()->child(0)->child(0)->text(), text) << url;
  }

  // Every URL in one DiffBatch group commit.
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 1;
  pipeline.save_directory = dir.string();
  std::vector<Warehouse::DiffJob> jobs;
  for (const auto& [url, text] : documents) {
    jobs.push_back({url, "<r><b>" + text + ", again</b></r>"});
  }
  for (const auto& r : warehouse.DiffBatch(std::move(jobs), pipeline)) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->store_degraded) << r->url;
  }
  for (const auto& [url, text] : documents) {
    Result<VersionRepository> repo =
        Warehouse::LoadDocument(dir.string(), url);
    ASSERT_TRUE(repo.ok()) << url << ": " << repo.status().ToString();
    ASSERT_EQ(repo->version_count(), 2) << url;
    EXPECT_EQ(repo->current().root()->child(0)->child(0)->text(),
              text + ", again")
        << url;
  }
  fs::remove_all(dir);
}

// Regression: only Save wrote the store's document list, so a store
// written by DiffBatch group commits alone did not reopen (NotFound for
// the list), and a URL that DiffBatch first stored after a Save was on
// disk but missing from Load. The directory names are the list now, and
// DiffBatch stores first sights too.
TEST(WarehouseTest, DiffBatchStoreReopensWithoutSave) {
  const fs::path dir = fs::temp_directory_path() /
                       ("xydiff_diffbatch_store_test_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  const std::vector<std::string> urls = {"http://x.com/a", "http://x.com/b?c",
                                         "doc"};
  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 2;
  pipeline.save_directory = dir.string();
  for (const char* week : {"one", "two"}) {
    std::vector<Warehouse::DiffJob> jobs;
    for (const std::string& url : urls) {
      jobs.push_back({url, "<d><t>" + url + " week " + week + "</t></d>"});
    }
    for (const auto& r : warehouse.DiffBatch(std::move(jobs), pipeline)) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_FALSE(r->store_degraded) << r->url;
    }
  }

  std::vector<std::string> skipped;
  Result<std::unique_ptr<Warehouse>> loaded =
      Warehouse::Load(dir.string(), DiffOptions{}, &skipped);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(skipped.empty()) << skipped.front();
  ASSERT_EQ((*loaded)->document_count(), urls.size());
  for (const std::string& url : urls) {
    ASSERT_EQ((*loaded)->version_count(url), 2) << url;
    for (int version = 1; version <= 2; ++version) {
      Result<XmlDocument> stored = (*loaded)->Checkout(url, version);
      Result<XmlDocument> live = warehouse.Checkout(url, version);
      ASSERT_TRUE(stored.ok()) << url << ": " << stored.status().ToString();
      ASSERT_TRUE(live.ok()) << url << ": " << live.status().ToString();
      EXPECT_TRUE(DocsEqualWithXids(*stored, *live)) << url << " v"
                                                     << version;
    }
  }

  // A URL that DiffBatch first sees after a Save is stored as version 1.
  XY_ASSERT_OK(warehouse.Save(dir.string()));
  const std::string late = "http://x.com/late";
  for (const auto& r :
       warehouse.DiffBatch({{late, "<d><t>late week one</t></d>"}},
                           pipeline)) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->first_version);
    EXPECT_FALSE(r->store_degraded);
    EXPECT_EQ(r->delta_bytes, 0u);
  }
  loaded = Warehouse::Load(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->document_count(), urls.size() + 1);
  ASSERT_EQ((*loaded)->version_count(late), 1);
  Result<XmlDocument> doc = (*loaded)->Checkout(late, 1);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root()->child(0)->child(0)->text(), "late week one");
  fs::remove_all(dir);
}

// Stores written by older releases hold a manifest.tsv document list
// beside the document directories, and a crash may leave a journal's
// ".tmp" behind. Neither is a document: the stale list (here naming one
// document of two) is never read, and Load skips nothing.
TEST(WarehouseTest, StoreWithLegacyDocumentListLoads) {
  const fs::path dir = fs::temp_directory_path() /
                       ("xydiff_legacy_list_test_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  Warehouse warehouse;
  ASSERT_TRUE(
      warehouse.Ingest("http://x.com/a", MustParse("<d><t>a</t></d>")).ok());
  ASSERT_TRUE(
      warehouse.Ingest("http://x.com/b", MustParse("<d><t>b</t></d>")).ok());
  XY_ASSERT_OK(warehouse.Save(dir.string()));
  {
    std::ofstream list(dir / "manifest.tsv");
    list << "http_3a_2f_2fx.com_2fa\thttp://x.com/a\n";
    std::ofstream journal(dir / "BATCH-COMMIT.tmp");
    journal << "xydiff-batch 1\nslot torn";
  }

  std::vector<std::string> skipped;
  Result<std::unique_ptr<Warehouse>> loaded =
      Warehouse::Load(dir.string(), DiffOptions{}, &skipped);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(skipped.empty()) << skipped.front();
  EXPECT_EQ((*loaded)->urls(),
            (std::vector<std::string>{"http://x.com/a", "http://x.com/b"}));
  EXPECT_TRUE(fs::exists(dir / "manifest.tsv"));  // Left as it was.
  fs::remove_all(dir);
}

// Regression: a URL equal to a store-level file name got that name as its
// directory, so a URL "BATCH-COMMIT" took the journal's place and every
// group commit failed, and a URL "manifest.tsv" took the document list's.
TEST(WarehouseTest, UrlsNamedLikeStoreFilesKeepTheirOwnRepository) {
  const fs::path dir = fs::temp_directory_path() /
                       ("xydiff_reserved_names_test_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  const std::vector<std::string> urls = {"manifest.tsv", "BATCH-COMMIT",
                                         "manifest.tsv.tmp",
                                         "BATCH-COMMIT.tmp"};
  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 2;
  pipeline.save_directory = dir.string();
  for (const char* week : {"one", "two"}) {
    std::vector<Warehouse::DiffJob> jobs;
    for (const std::string& url : urls) {
      jobs.push_back({url, "<d><t>" + url + " week " + week + "</t></d>"});
    }
    for (const auto& r : warehouse.DiffBatch(std::move(jobs), pipeline)) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_FALSE(r->store_degraded) << r->url;
    }
  }
  XY_ASSERT_OK(warehouse.Save(dir.string()));
  std::vector<std::string> skipped;
  Result<std::unique_ptr<Warehouse>> loaded =
      Warehouse::Load(dir.string(), DiffOptions{}, &skipped);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(skipped.empty()) << skipped.front();
  ASSERT_EQ((*loaded)->document_count(), urls.size());
  for (const std::string& url : urls) {
    ASSERT_EQ((*loaded)->version_count(url), 2) << url;
    Result<XmlDocument> doc = (*loaded)->Checkout(url, 2);
    ASSERT_TRUE(doc.ok()) << url << ": " << doc.status().ToString();
    EXPECT_EQ(doc->root()->child(0)->child(0)->text(), url + " week two");
  }
  fs::remove_all(dir);
}

// No valid URL holds a line break, so such a URL is refused as invalid
// input on every ingest path before it reaches the warehouse.
TEST(WarehouseTest, UrlWithLineBreakRejected) {
  Warehouse warehouse;
  for (const std::string url : {"http://a/\nb", "http://a/\rb"}) {
    EXPECT_EQ(warehouse.Ingest(url, MustParse("<d/>")).status().code(),
              StatusCode::kInvalidArgument);
    const auto results = warehouse.DiffBatch({{url, "<d/>"}});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(warehouse.document_count(), 0u);
}

// A URL's store directory is one path component, and file systems cap a
// component at 255 bytes. Escaping writes 3 bytes per escaped URL byte,
// so a URL whose escaped name (or its ".tmp" form) is longer is refused
// before it reaches the warehouse; the rest of its group still commits.
TEST(WarehouseTest, UrlWithTooLongStoreNameRejected) {
  const fs::path dir = fs::temp_directory_path() /
                       ("xydiff_long_url_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  std::string escaped = "http://example.com/";
  for (int i = 0; i < 100; ++i) escaped += "a/";
  ASSERT_EQ(escaped.size(), 219u);
  // Letters are kept as they are: 251 of them plus ".tmp" is exactly 255.
  const std::string longest(251, 'a');
  const std::string too_long(252, 'a');

  Warehouse warehouse;
  for (const std::string& url : {escaped, too_long}) {
    EXPECT_EQ(warehouse.Ingest(url, MustParse("<d/>")).status().code(),
              StatusCode::kInvalidArgument)
        << url;
  }
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 2;
  pipeline.save_directory = dir.string();
  for (const char* week : {"one", "two"}) {
    const std::string body = std::string("<d><t>week ") + week + "</t></d>";
    const auto results = warehouse.DiffBatch(
        {{escaped, body}, {"short", body}, {longest, body}}, pipeline);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].status().code(), StatusCode::kInvalidArgument);
    for (size_t i = 1; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      EXPECT_FALSE(results[i]->store_degraded) << results[i]->url;
    }
  }
  EXPECT_EQ(warehouse.document_count(), 2u);
  XY_ASSERT_OK(warehouse.Save(dir.string()));
  std::vector<std::string> skipped;
  Result<std::unique_ptr<Warehouse>> loaded =
      Warehouse::Load(dir.string(), DiffOptions{}, &skipped);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(skipped.empty());
  for (const std::string& url : {std::string("short"), longest}) {
    ASSERT_EQ((*loaded)->version_count(url), 2) << url;
    Result<XmlDocument> doc = (*loaded)->Checkout(url, 2);
    ASSERT_TRUE(doc.ok()) << url << ": " << doc.status().ToString();
    EXPECT_EQ(doc->root()->child(0)->child(0)->text(), "week two");
  }
  fs::remove_all(dir);
}

TEST(WarehouseTest, EmptyDocumentRejected) {
  Warehouse warehouse;
  EXPECT_EQ(warehouse.Ingest("u", XmlDocument()).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace xydiff
