// A repository keeps its current version's signed tree (core/buld.h
// SignedTree) from one commit to the next. These tests hold a commit
// that reuses it to the diff a fresh XyDiff makes of the same two
// versions: byte-identical encoded deltas and identical XIDs, with the
// Phase-5 node index and the kept label counts checked beside them.

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/buld.h"
#include "delta/codec.h"
#include "delta/node_index.h"
#include "gtest/gtest.h"
#include "monitor/change_stats.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "tests/test_util.h"
#include "util/context.h"
#include "util/random.h"
#include "version/repository.h"
#include "version/storage.h"
#include "xml/serializer.h"

namespace xydiff {
namespace {

/// Commits `next` to `repo` and checks the commit against a fresh diff
/// of clones of the same two versions. `kept` holds the label counts of
/// the current version and is moved across the delta, as a warehouse
/// does. Returns the commit's DiffStats.
DiffStats CommitMatchesFreshDiff(VersionRepository* repo, XmlDocument next,
                                 LabelCounts* kept,
                                 const DiffOptions& options = {}) {
  XmlDocument fresh_old = repo->current().Clone();
  XmlDocument fresh_new = next.Clone();
  DiffStats fresh_stats;
  Result<Delta> fresh = XyDiff(&fresh_old, &fresh_new, options, &fresh_stats);
  EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh_stats.trees_built, 2u);

  XmlDocument superseded;
  DeltaNodeIndex nodes;
  Result<int> version =
      repo->Commit(std::move(next), options, &superseded, &nodes);
  EXPECT_TRUE(version.ok()) << version.status().ToString();
  if (!fresh.ok() || !version.ok()) return {};
  const Delta& delta = **repo->DeltaFor(*version - 1);

  EXPECT_EQ(EncodeDeltaBinary(delta), EncodeDeltaBinary(*fresh));
  EXPECT_TRUE(DocsEqualWithXids(repo->current(), fresh_new));
  EXPECT_EQ(repo->current().next_xid(), fresh_new.next_xid());
  EXPECT_TRUE(nodes == DeltaNodeIndex::Build(delta, superseded,
                                             repo->current()));
  kept->Apply(delta);
  EXPECT_TRUE(*kept == LabelCounts::Of(repo->current()));
  return repo->last_commit_stats();
}

/// A simulated change of `base`, parsed back from its text as a crawl
/// would see it.
XmlDocument Crawled(const XmlDocument& base, Rng* rng,
                    const ChangeSimOptions& options = {}) {
  Result<SimulatedChange> change = SimulateChanges(base, options, rng);
  EXPECT_TRUE(change.ok());
  SerializeOptions serialize;
  serialize.doctype = true;
  return MustParse(SerializeDocument(change->new_version, serialize));
}

VersionRepository GeneratedRepository(uint64_t seed, size_t bytes) {
  Rng rng(seed);
  DocGenOptions gen;
  gen.target_bytes = bytes;
  return VersionRepository(
      MustParse(SerializeDocument(GenerateDocument(&rng, gen))));
}

TEST(ChainedDiffTest, SixteenCommitChainBuildsSeventeenTrees) {
  VersionRepository repo = GeneratedRepository(5, 4096);
  LabelCounts kept = LabelCounts::Of(repo.current());
  Rng rng(6);
  size_t trees = 0;
  for (int v = 0; v < 16; ++v) {
    trees += CommitMatchesFreshDiff(&repo, Crawled(repo.current(), &rng),
                                    &kept)
                 .trees_built;
  }
  EXPECT_EQ(repo.version_count(), 17);
  EXPECT_EQ(trees, 17u);
}

TEST(ChainedDiffTest, SimulatedChainsMatchFreshDiffs) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    VersionRepository repo = GeneratedRepository(seed * 100, 2048 * seed);
    LabelCounts kept = LabelCounts::Of(repo.current());
    Rng rng(seed);
    for (int v = 0; v < 8; ++v) {
      const DiffStats stats = CommitMatchesFreshDiff(
          &repo, Crawled(repo.current(), &rng), &kept);
      EXPECT_EQ(stats.trees_built, v == 0 ? 2u : 1u) << "commit " << v;
    }
  }
}

TEST(ChainedDiffTest, LabelTableStaysBoundedWhenLabelsChurn) {
  const auto version = [](int v) {
    std::string xml = "<r>";
    for (int k = 0; k < 4; ++k) {
      const std::string label = "l" + std::to_string(v) + "_" +
                                std::to_string(k);
      xml += "<" + label + ">t" + std::to_string(k) + "</" + label + ">";
    }
    return MustParse(xml + "</r>");
  };
  VersionRepository repo(version(0));
  LabelCounts kept = LabelCounts::Of(repo.current());
  size_t trees = 0;
  for (int v = 1; v <= 40; ++v) {
    trees += CommitMatchesFreshDiff(&repo, version(v), &kept).trees_built;
    // The current version uses five labels: r and its four children.
    EXPECT_LE(repo.carried_label_count(), 10u) << "version " << v;
  }
  EXPECT_EQ(trees, 41u);  // Rebinding the table keeps the tree.
}

constexpr char kCatalogDoctype[] =
    "<!DOCTYPE cat [<!ATTLIST product ref ID #REQUIRED>]>";

std::string Catalog(const std::vector<int>& refs, int price_shift,
                    bool doctype = true) {
  std::string xml = doctype ? kCatalogDoctype : "";
  xml += "<cat>";
  for (int ref : refs) {
    xml += "<product ref=\"p" + std::to_string(ref) + "\"><name>n" +
           std::to_string(ref) + "</name><price>" +
           std::to_string(ref * 10 + price_shift) + "</price></product>";
  }
  return xml + "</cat>";
}

TEST(ChainedDiffTest, IdAttributeChainMatchesFreshDiffs) {
  VersionRepository repo(MustParse(Catalog({1, 2, 3, 4}, 0)));
  LabelCounts kept = LabelCounts::Of(repo.current());
  const std::vector<std::vector<int>> versions = {
      {4, 3, 2, 1}, {1, 2, 5}, {5, 1, 2, 6, 7}, {7, 6, 5, 2, 1}, {2}};
  for (size_t v = 0; v < versions.size(); ++v) {
    CommitMatchesFreshDiff(
        &repo, MustParse(Catalog(versions[v], static_cast<int>(v))), &kept);
  }
  EXPECT_GT(repo.last_commit_stats().id_matched_nodes, 0u);
}

TEST(ChainedDiffTest, DoctypeChangesMatchFreshDiffs) {
  VersionRepository repo(MustParse(Catalog({1, 2, 3}, 0)));
  LabelCounts kept = LabelCounts::Of(repo.current());
  // The DTD drives Phase 1 only: the carried tree stays valid across a
  // DOCTYPE that comes and goes.
  const bool doctypes[] = {false, true, false, true};
  for (int v = 0; v < 4; ++v) {
    const DiffStats stats = CommitMatchesFreshDiff(
        &repo, MustParse(Catalog({3, 2, 1, v + 4}, v + 1, doctypes[v])),
        &kept);
    EXPECT_EQ(stats.trees_built, v == 0 ? 2u : 1u);
  }
}

TEST(ChainedDiffTest, TextLogWeightFlipRebuildsTheOldTree) {
  VersionRepository repo = GeneratedRepository(41, 4096);
  LabelCounts kept = LabelCounts::Of(repo.current());
  Rng rng(42);
  DiffOptions log_weight;
  DiffOptions unit_weight;
  unit_weight.text_log_weight = false;
  const DiffOptions* sequence[] = {&log_weight, &log_weight, &unit_weight,
                                   &unit_weight, &log_weight};
  const size_t expected_trees[] = {2, 1, 2, 1, 2};
  for (int v = 0; v < 5; ++v) {
    const DiffStats stats = CommitMatchesFreshDiff(
        &repo, Crawled(repo.current(), &rng), &kept, *sequence[v]);
    EXPECT_EQ(stats.trees_built, expected_trees[v]) << "commit " << v;
  }
}

TEST(ChainedDiffTest, DeadlineCutCommitThenAGoodOne) {
  VersionRepository repo = GeneratedRepository(51, 4096);
  LabelCounts kept = LabelCounts::Of(repo.current());
  Rng rng(52);
  CommitMatchesFreshDiff(&repo, Crawled(repo.current(), &rng), &kept);

  const Context expired =
      Context::WithDeadline(Context::Clock::now() - std::chrono::seconds(1));
  DiffOptions cut;
  cut.context = &expired;
  XmlDocument before = repo.current().Clone();
  Result<int> failed = repo.Commit(Crawled(repo.current(), &rng), cut);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(repo.version_count(), 2);
  EXPECT_TRUE(DocsEqualWithXids(repo.current(), before));

  // The failed commit dropped the carried tree; the next one rebuilds it.
  EXPECT_EQ(CommitMatchesFreshDiff(&repo, Crawled(repo.current(), &rng),
                                   &kept)
                .trees_built,
            2u);
  EXPECT_EQ(CommitMatchesFreshDiff(&repo, Crawled(repo.current(), &rng),
                                   &kept)
                .trees_built,
            1u);
}

TEST(ChainedDiffTest, LoadedRepositoryCommitsMatchFreshDiffs) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("xydiff_chained_diff_test_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  VersionRepository repo = GeneratedRepository(61, 4096);
  LabelCounts kept = LabelCounts::Of(repo.current());
  Rng rng(62);
  for (int v = 0; v < 3; ++v) {
    CommitMatchesFreshDiff(&repo, Crawled(repo.current(), &rng), &kept);
  }
  XY_ASSERT_OK(SaveRepository(repo, dir.string()));
  Result<VersionRepository> loaded = LoadRepository(dir.string());
  fs::remove_all(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(DocsEqualWithXids(loaded->current(), repo.current()));
  for (int v = 0; v < 3; ++v) {
    const DiffStats stats = CommitMatchesFreshDiff(
        &*loaded, Crawled(loaded->current(), &rng), &kept);
    EXPECT_EQ(stats.trees_built, v == 0 ? 2u : 1u) << "commit " << v;
  }
}

TEST(ChainedDiffTest, MovedRepositoryKeepsItsTree) {
  VersionRepository repo = GeneratedRepository(71, 4096);
  LabelCounts kept = LabelCounts::Of(repo.current());
  Rng rng(72);
  CommitMatchesFreshDiff(&repo, Crawled(repo.current(), &rng), &kept);
  VersionRepository moved = std::move(repo);
  EXPECT_EQ(CommitMatchesFreshDiff(&moved, Crawled(moved.current(), &rng),
                                   &kept)
                .trees_built,
            1u);
  auto boxed = std::make_unique<VersionRepository>(std::move(moved));
  EXPECT_EQ(CommitMatchesFreshDiff(boxed.get(),
                                   Crawled(boxed->current(), &rng), &kept)
                .trees_built,
            1u);
}

}  // namespace
}  // namespace xydiff
