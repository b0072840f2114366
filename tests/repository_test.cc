#include "version/repository.h"

#include "gtest/gtest.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace xydiff {
namespace {

TEST(RepositoryTest, SingleVersionHistory) {
  VersionRepository repo(MustParse("<r><a>one</a></r>"));
  EXPECT_EQ(repo.version_count(), 1);
  EXPECT_EQ(repo.current_version(), 1);
  Result<XmlDocument> v1 = repo.Checkout(1);
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(DocsEqualWithXids(*v1, repo.current()));
}

TEST(RepositoryTest, CommitAndCheckoutAllVersions) {
  VersionRepository repo(MustParse("<r><a>v1</a></r>"));
  XmlDocument v1_copy = repo.current().Clone();

  Result<int> v2 = repo.Commit(MustParse("<r><a>v2</a><b/></r>"));
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2);
  XmlDocument v2_copy = repo.current().Clone();

  Result<int> v3 = repo.Commit(MustParse("<r><b/><a>v3</a><c/></r>"));
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(repo.version_count(), 3);

  Result<XmlDocument> back1 = repo.Checkout(1);
  ASSERT_TRUE(back1.ok());
  EXPECT_TRUE(DocsEqualWithXids(*back1, v1_copy));

  Result<XmlDocument> back2 = repo.Checkout(2);
  ASSERT_TRUE(back2.ok());
  EXPECT_TRUE(DocsEqualWithXids(*back2, v2_copy));

  Result<XmlDocument> back3 = repo.Checkout(3);
  ASSERT_TRUE(back3.ok());
  EXPECT_TRUE(DocsEqualWithXids(*back3, repo.current()));
}

TEST(RepositoryTest, CheckoutBoundsChecked) {
  VersionRepository repo(MustParse("<r/>"));
  EXPECT_EQ(repo.Checkout(0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(repo.Checkout(2).status().code(), StatusCode::kNotFound);
}

TEST(RepositoryTest, DeltaForReturnsStoredDelta) {
  VersionRepository repo(MustParse("<r><t>x</t></r>"));
  ASSERT_TRUE(repo.Commit(MustParse("<r><t>y</t></r>")).ok());
  Result<const Delta*> delta = repo.DeltaFor(1);
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ((*delta)->updates().size(), 1u);
  EXPECT_EQ((*delta)->updates()[0].new_value, "y");
  EXPECT_EQ(repo.DeltaFor(2).status().code(), StatusCode::kNotFound);
}

TEST(RepositoryTest, ChangesBetweenSkipsIntermediates) {
  VersionRepository repo(MustParse("<r><t>first</t></r>"));
  ASSERT_TRUE(repo.Commit(MustParse("<r><t>second</t></r>")).ok());
  ASSERT_TRUE(repo.Commit(MustParse("<r><t>third</t></r>")).ok());

  Result<Delta> agg = repo.ChangesBetween(1, 3);
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->updates().size(), 1u);
  EXPECT_EQ(agg->updates()[0].old_value, "first");
  EXPECT_EQ(agg->updates()[0].new_value, "third");

  EXPECT_FALSE(repo.ChangesBetween(2, 2).ok());
  EXPECT_FALSE(repo.ChangesBetween(3, 1).ok());
}

TEST(RepositoryTest, TextAtTravelsThroughTime) {
  VersionRepository repo(MustParse("<r><t>alpha</t></r>"));
  // Find the text node's XID.
  Xid text_xid = kNoXid;
  repo.current().root()->Visit([&](const XmlNode* n) {
    if (n->is_text()) text_xid = n->xid();
  });
  ASSERT_NE(text_xid, kNoXid);
  ASSERT_TRUE(repo.Commit(MustParse("<r><t>beta</t></r>")).ok());

  Result<std::optional<std::string>> v1 = repo.TextAt(1, text_xid);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->value(), "alpha");
  Result<std::optional<std::string>> v2 = repo.TextAt(2, text_xid);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->value(), "beta");
  Result<std::optional<std::string>> missing = repo.TextAt(1, 9999);
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->has_value());
}

TEST(RepositoryTest, LongSimulatedHistory) {
  Rng rng(21);
  DocGenOptions gen;
  gen.target_bytes = 4096;
  XmlDocument base = GenerateDocument(&rng, gen);
  VersionRepository repo(std::move(base));

  std::vector<XmlDocument> snapshots;
  snapshots.push_back(repo.current().Clone());
  for (int v = 0; v < 6; ++v) {
    Result<SimulatedChange> change =
        SimulateChanges(repo.current(), ChangeSimOptions{}, &rng);
    ASSERT_TRUE(change.ok());
    ASSERT_TRUE(repo.Commit(std::move(change->new_version)).ok());
    snapshots.push_back(repo.current().Clone());
  }
  ASSERT_EQ(repo.version_count(), 7);
  for (int v = 1; v <= 7; ++v) {
    Result<XmlDocument> doc = repo.Checkout(v);
    ASSERT_TRUE(doc.ok());
    EXPECT_TRUE(DocsEqualWithXids(*doc, snapshots[static_cast<size_t>(v) - 1]))
        << "version " << v;
  }
  EXPECT_GT(repo.stored_delta_bytes(), 0u);
  EXPECT_GT(repo.last_commit_stats().nodes_new, 0u);
}

// --- reconstruction index (checkpoint + skip-deltas) -------------------

size_t CeilLog2(size_t n) {
  size_t bits = 0;
  while ((size_t{1} << bits) < n) ++bits;
  return bits;
}

/// Grows a repository through `commits` simulated changes, returning
/// clones of every version for ground truth.
std::vector<XmlDocument> Grow(VersionRepository* repo, int commits,
                              Rng* rng) {
  std::vector<XmlDocument> snapshots;
  snapshots.push_back(repo->current().Clone());
  for (int v = 0; v < commits; ++v) {
    Result<SimulatedChange> change =
        SimulateChanges(repo->current(), ChangeSimOptions{}, rng);
    EXPECT_TRUE(change.ok());
    EXPECT_TRUE(repo->Commit(std::move(change->new_version)).ok());
    snapshots.push_back(repo->current().Clone());
  }
  return snapshots;
}

TEST(RepositoryTest, IndexedCheckoutIsLogarithmicAndExact) {
  Rng rng(31);
  DocGenOptions gen;
  gen.target_bytes = 2048;
  VersionRepository repo(GenerateDocument(&rng, gen));
  // Activate the index up front; Commit maintains it from then on.
  XY_ASSERT_OK(repo.EnsureReconstructionIndex());
  const std::vector<XmlDocument> snapshots = Grow(&repo, 32, &rng);
  ASSERT_EQ(repo.version_count(), 33);

  const size_t bound = CeilLog2(static_cast<size_t>(repo.version_count())) + 2;
  for (int v = 1; v <= repo.version_count(); ++v) {
    CheckoutStats stats;
    Result<XmlDocument> doc = repo.Checkout(v, &stats);
    ASSERT_TRUE(doc.ok()) << "version " << v;
    EXPECT_TRUE(DocsEqualWithXids(*doc, snapshots[static_cast<size_t>(v) - 1]))
        << "version " << v;
    EXPECT_LE(stats.applications, bound)
        << "version " << v << " took " << stats.applications
        << " applications";
  }
  // Old versions must ride the forward skip path, not a long replay.
  CheckoutStats stats;
  XY_ASSERT_OK(repo.Checkout(1, &stats).status());
  EXPECT_TRUE(stats.forward);
  EXPECT_EQ(stats.applications, 0u);  // Version 1 IS the checkpoint.
  XY_ASSERT_OK(repo.Checkout(2, &stats).status());
  EXPECT_TRUE(stats.forward);
  EXPECT_EQ(stats.applications, 1u);  // popcount(2-1).
}

TEST(RepositoryTest, UnindexedCheckoutStaysBackwardCompatible) {
  Rng rng(32);
  DocGenOptions gen;
  gen.target_bytes = 1024;
  VersionRepository repo(GenerateDocument(&rng, gen));
  const std::vector<XmlDocument> snapshots = Grow(&repo, 5, &rng);
  // Without activation, reconstruction is the plain backward replay.
  CheckoutStats stats;
  Result<XmlDocument> v1 = repo.Checkout(1, &stats);
  ASSERT_TRUE(v1.ok());
  EXPECT_FALSE(stats.forward);
  EXPECT_EQ(stats.applications, 5u);
  EXPECT_TRUE(DocsEqualWithXids(*v1, snapshots[0]));
}

TEST(RepositoryTest, EnsureActivatesIndexOnExistingChain) {
  Rng rng(33);
  DocGenOptions gen;
  gen.target_bytes = 1024;
  VersionRepository grown(GenerateDocument(&rng, gen));
  const std::vector<XmlDocument> snapshots = Grow(&grown, 12, &rng);

  // Rebuild from persisted-style parts: chain only, no index.
  std::vector<Delta> chain;
  for (const Delta& d : grown.deltas()) chain.push_back(d.Clone());
  VersionRepository repo = VersionRepository::FromParts(
      grown.current().Clone(), std::move(chain));
  XY_ASSERT_OK(repo.EnsureReconstructionIndex());

  const size_t bound = CeilLog2(static_cast<size_t>(repo.version_count())) + 2;
  for (int v = 1; v <= repo.version_count(); ++v) {
    CheckoutStats stats;
    Result<XmlDocument> doc = repo.Checkout(v, &stats);
    ASSERT_TRUE(doc.ok()) << "version " << v;
    EXPECT_TRUE(DocsEqualWithXids(*doc, snapshots[static_cast<size_t>(v) - 1]))
        << "version " << v;
    EXPECT_LE(stats.applications, bound) << "version " << v;
  }
  // The index is complete: every level the chain supports exists.
  const ReconstructionIndex& index = repo.reconstruction_index();
  ASSERT_TRUE(index.checkpoint.has_value());
  ASSERT_EQ(index.levels.size(), 3u);  // Spans 2, 4, 8 fit in 12 deltas.
  EXPECT_EQ(index.levels[0].size(), 6u);
  EXPECT_EQ(index.levels[1].size(), 3u);
  EXPECT_EQ(index.levels[2].size(), 1u);

  // A second Ensure is an idempotent no-op.
  XY_ASSERT_OK(repo.EnsureReconstructionIndex());
  ASSERT_EQ(index.levels.size(), 3u);
}

TEST(RepositoryTest, CheckoutIndexesEachNodeOncePerPath) {
  Rng rng(35);
  DocGenOptions gen;
  gen.target_bytes = 2048;
  VersionRepository repo(GenerateDocument(&rng, gen));
  const std::vector<XmlDocument> snapshots = Grow(&repo, 63, &rng);
  ASSERT_EQ(repo.version_count(), 64);
  const size_t start_nodes = repo.current().node_count();

  // Backward replay to `version` re-inserts what the undone hops deleted;
  // those snapshots are the only nodes the path may index beyond the
  // starting document. Re-indexing the document per hop would instead
  // cost about hops x nodes.
  size_t inserted = 0;
  for (int version = repo.version_count() - 1; version >= 1; --version) {
    for (const DeleteOp& op : repo.deltas()[static_cast<size_t>(version) - 1]
                                  .deletes()) {
      inserted += op.subtree->SubtreeSize();
    }
    CheckoutStats stats;
    Result<XmlDocument> doc = repo.Checkout(version, &stats);
    ASSERT_TRUE(doc.ok()) << "version " << version;
    ASSERT_FALSE(stats.forward);
    EXPECT_EQ(stats.applications,
              static_cast<size_t>(repo.version_count() - version));
    EXPECT_LE(stats.nodes_indexed, start_nodes + inserted)
        << "version " << version;
    EXPECT_GE(stats.nodes_indexed, start_nodes);
    if (version == 1) {
      EXPECT_TRUE(DocsEqualWithXids(*doc, snapshots[0]));
      EXPECT_LT(stats.nodes_indexed, stats.applications * start_nodes / 4);
    }
  }
}

TEST(RepositoryTest, ForwardAndBackwardPathsAgreeEverywhere) {
  Rng rng(34);
  DocGenOptions gen;
  gen.target_bytes = 2048;
  VersionRepository indexed(GenerateDocument(&rng, gen));
  XY_ASSERT_OK(indexed.EnsureReconstructionIndex());
  const std::vector<XmlDocument> snapshots = Grow(&indexed, 9, &rng);

  std::vector<Delta> chain;
  for (const Delta& d : indexed.deltas()) chain.push_back(d.Clone());
  const VersionRepository plain = VersionRepository::FromParts(
      indexed.current().Clone(), std::move(chain));

  for (int v = 1; v <= indexed.version_count(); ++v) {
    Result<XmlDocument> fast = indexed.Checkout(v);
    Result<XmlDocument> slow = plain.Checkout(v);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    EXPECT_TRUE(DocsEqualWithXids(*fast, *slow)) << "version " << v;
    EXPECT_TRUE(DocsEqualWithXids(*fast, snapshots[static_cast<size_t>(v) - 1]))
        << "version " << v;
  }
}

}  // namespace
}  // namespace xydiff
