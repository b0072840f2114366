// DeltaPathApplicator keeps one XID index for a whole path of deltas. These
// tests compare its output, bit-exactly and including XIDs, against
// step-by-step verified ApplyDelta on chains that exercise every way a
// hop changes the index: deletes, moves, a move into a subtree inserted
// by an earlier hop, a delete of a subtree inserted earlier, and root
// replacement through the XID-0 super-root. The chains also carry
// compressed text updates and attribute inserts, deletes and updates.
//
// Inverse hops read the forward delta in place, so their oracle is the
// materialized inverse: forward ApplyDelta(InvertDelta(d)) with
// verification, compared bit-exactly, next_xid included.

#include "delta/apply.h"

#include <utility>
#include <vector>

#include "core/buld.h"
#include "delta/invert.h"
#include "gtest/gtest.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "version/repository.h"

namespace xydiff {
namespace {

/// A delta chain plus every version it passes through. Each version is
/// produced by a verified ApplyDelta of the hop to its predecessor, so
/// the versions are the step-by-step ground truth.
struct Chain {
  std::vector<XmlDocument> versions;
  std::vector<Delta> deltas;

  const XmlDocument& head() const { return versions.back(); }

  void Append(Delta delta) {
    XmlDocument next = head().Clone();
    XY_EXPECT_OK(ApplyDelta(delta, &next));
    deltas.push_back(std::move(delta));
    versions.push_back(std::move(next));
  }

  std::vector<Delta> CloneDeltas() const {
    std::vector<Delta> out;
    for (const Delta& d : deltas) out.push_back(d.Clone());
    return out;
  }
};

/// One simulated edit (deletes, updates, inserts and moves at 10% each),
/// stored as the delta the version store itself would compute.
void SimulatorHop(Chain* chain, Rng* rng) {
  Result<SimulatedChange> change =
      SimulateChanges(chain->head(), ChangeSimOptions{}, rng);
  ASSERT_TRUE(change.ok()) << change.status().ToString();
  XmlDocument from = chain->head().Clone();
  Result<Delta> delta = XyDiff(&from, &change->new_version);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  chain->Append(std::move(*delta));
  EXPECT_TRUE(DocsEqualWithXids(chain->head(), change->new_version));
}

Delta EmptyHop(const XmlDocument& doc, Xid new_next_xid) {
  Delta delta;
  delta.set_old_next_xid(doc.next_xid());
  delta.set_new_next_xid(new_next_xid);
  return delta;
}

/// The last element in document order outside `wrap`'s subtree, other
/// than the root; nullptr when there is none.
XmlNode* LastElementOutside(XmlNode* root, const XmlNode* wrap) {
  XmlNode* last = nullptr;
  root->Visit([&](XmlNode* n) {
    if (n == root || !n->is_element()) return;
    for (const XmlNode* a = n; a != nullptr; a = a->parent()) {
      if (a == wrap) return;
    }
    last = n;
  });
  return last;
}

/// Hop A: inserts <wrap>inside</wrap> as the root's first child.
/// Hop B: moves an existing element, from deep in the tree, into it.
/// Hop C: deletes the wrapper, moved element included.
void InsertMoveIntoThenDelete(Chain* chain) {
  const Xid wrap_xid = chain->head().next_xid();
  {
    Delta insert = EmptyHop(chain->head(), wrap_xid + 2);
    XmlNodePtr wrap = XmlNode::Element("wrap");
    wrap->set_xid(wrap_xid);
    XmlNodePtr text = XmlNode::Text("inside");
    text->set_xid(wrap_xid + 1);
    wrap->AppendChild(std::move(text));
    insert.inserts().emplace_back(wrap_xid, chain->head().root()->xid(), 1,
                                  std::move(wrap));
    chain->Append(std::move(insert));
  }
  {
    XmlDocument work = chain->head().Clone();
    XmlNode* root = work.root();
    XmlNode* wrap = root->child(0);
    ASSERT_EQ(wrap->xid(), wrap_xid);
    XmlNode* moved = LastElementOutside(root, wrap);
    ASSERT_NE(moved, nullptr);
    Delta move = EmptyHop(work, work.next_xid());
    move.moves().push_back(
        MoveOp{moved->xid(), moved->parent()->xid(),
               static_cast<uint32_t>(moved->IndexInParent() + 1), wrap_xid,
               2});
    chain->Append(std::move(move));
  }
  {
    XmlDocument work = chain->head().Clone();
    XmlNode* wrap = work.root()->child(0);
    ASSERT_EQ(wrap->xid(), wrap_xid);
    ASSERT_EQ(wrap->child_count(), 2u);
    Delta remove = EmptyHop(work, work.next_xid());
    remove.deletes().emplace_back(wrap_xid, work.root()->xid(), 1,
                                  wrap->Clone());
    chain->Append(std::move(remove));
  }
}

/// Replaces the root through the super-root: a fresh root is inserted at
/// (XID 0, position 1), the old root's largest element child moves into
/// it, and the rest of the old root is deleted.
void ReplaceRoot(Chain* chain) {
  XmlDocument work = chain->head().Clone();
  XmlNode* root = work.root();
  XmlNode* kept = nullptr;
  for (size_t i = 0; i < root->child_count(); ++i) {
    XmlNode* child = root->child(i);
    if (child->is_element() &&
        (kept == nullptr || child->SubtreeSize() > kept->SubtreeSize())) {
      kept = child;
    }
  }
  ASSERT_NE(kept, nullptr);
  const Xid new_root_xid = work.next_xid();
  Delta replace = EmptyHop(work, new_root_xid + 1);
  XmlNodePtr new_root = XmlNode::Element("reroot");
  new_root->set_xid(new_root_xid);
  replace.inserts().emplace_back(new_root_xid, kNoXid, 1, std::move(new_root));
  replace.moves().push_back(
      MoveOp{kept->xid(), root->xid(),
             static_cast<uint32_t>(kept->IndexInParent() + 1), new_root_xid,
             1});
  // The snapshot of a deleted subtree excludes what moved out of it.
  root->RemoveChild(kept->IndexInParent());
  replace.deletes().emplace_back(root->xid(), kNoXid, 1, root->Clone());
  chain->Append(std::move(replace));
  ASSERT_EQ(chain->head().root()->xid(), new_root_xid);
}

/// Hop A: inserts an attribute on the root and one on another element.
/// Hop B: updates the first and deletes the second.
void AttributeHops(Chain* chain) {
  XmlNode* root = chain->versions.back().root();
  const XmlNode* other = LastElementOutside(root, nullptr);
  ASSERT_NE(other, nullptr);
  const Xid root_xid = root->xid();
  const Xid other_xid = other->xid();
  {
    Delta insert = EmptyHop(chain->head(), chain->head().next_xid());
    insert.attribute_ops().push_back(
        {AttributeOpKind::kInsert, root_xid, "stamp", "", "one"});
    insert.attribute_ops().push_back(
        {AttributeOpKind::kInsert, other_xid, "gone", "", "soon"});
    chain->Append(std::move(insert));
  }
  {
    Delta change = EmptyHop(chain->head(), chain->head().next_xid());
    change.attribute_ops().push_back(
        {AttributeOpKind::kUpdate, root_xid, "stamp", "one", "two"});
    change.attribute_ops().push_back(
        {AttributeOpKind::kDelete, other_xid, "gone", "soon", ""});
    chain->Append(std::move(change));
  }
}

/// Hop A: appends <note>long text</note> to the root, so that every
/// chain has a text to edit.
/// Hop B: edits the middle of every text node of at least four bytes and
/// diffs with DiffOptions::compress_updates, so the hop's updates store
/// only the differing middles.
void CompressedUpdateHops(Chain* chain) {
  {
    const Xid note_xid = chain->head().next_xid();
    Delta insert = EmptyHop(chain->head(), note_xid + 2);
    XmlNodePtr note = XmlNode::Element("note");
    note->set_xid(note_xid);
    XmlNodePtr text = XmlNode::Text("a note long enough to edit");
    text->set_xid(note_xid + 1);
    note->AppendChild(std::move(text));
    const XmlNode* root = chain->head().root();
    insert.inserts().emplace_back(
        note_xid, root->xid(), static_cast<uint32_t>(root->child_count() + 1),
        std::move(note));
    chain->Append(std::move(insert));
  }
  XmlDocument from = chain->head().Clone();
  XmlDocument to = chain->head().Clone();
  to.root()->Visit([](XmlNode* n) {
    if (!n->is_text() || n->text().size() < 4) return;
    std::string text(n->text());
    text.insert(text.size() / 2, "~edit~");
    n->set_text(std::move(text));
  });
  DiffOptions options;
  options.compress_updates = true;
  Result<Delta> delta = XyDiff(&from, &to, options);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  size_t compressed = 0;
  for (const UpdateOp& op : delta->updates()) {
    if (op.is_compressed()) ++compressed;
  }
  ASSERT_GT(compressed, 0u);
  chain->Append(std::move(*delta));
  EXPECT_TRUE(DocsEqualWithXids(chain->head(), to));
}

/// Simulator hops around the hand-written ones, so later simulated edits
/// touch nodes the hand-written hops moved, inserted and re-rooted.
Chain MixedChain(uint64_t seed) {
  Rng rng(seed);
  DocGenOptions gen;
  gen.target_bytes = 3072;
  Chain chain;
  chain.versions.push_back(GenerateDocument(&rng, gen));
  chain.versions.back().AssignInitialXids();
  for (int i = 0; i < 5; ++i) SimulatorHop(&chain, &rng);
  InsertMoveIntoThenDelete(&chain);
  for (int i = 0; i < 3; ++i) SimulatorHop(&chain, &rng);
  ReplaceRoot(&chain);
  for (int i = 0; i < 3; ++i) SimulatorHop(&chain, &rng);
  InsertMoveIntoThenDelete(&chain);
  AttributeHops(&chain);
  CompressedUpdateHops(&chain);
  for (int i = 0; i < 4; ++i) SimulatorHop(&chain, &rng);
  return chain;
}

size_t SnapshotNodes(const std::vector<DeleteOp>& ops) {
  size_t nodes = 0;
  for (const DeleteOp& op : ops) nodes += op.subtree->SubtreeSize();
  return nodes;
}

size_t SnapshotNodes(const std::vector<InsertOp>& ops) {
  size_t nodes = 0;
  for (const InsertOp& op : ops) nodes += op.subtree->SubtreeSize();
  return nodes;
}

TEST(DeltaPathTest, ChainsCoverEveryIndexChange) {
  const Chain chain = MixedChain(71);
  ASSERT_EQ(chain.deltas.size(), 26u);
  // The simulated hops alone already delete and move.
  size_t deletes = 0, moves = 0;
  for (size_t hop = 0; hop < 5; ++hop) {
    deletes += chain.deltas[hop].deletes().size();
    moves += chain.deltas[hop].moves().size();
  }
  EXPECT_GT(deletes, 0u);
  EXPECT_GT(moves, 0u);
  // The hand-written hops add compressed updates and every kind of
  // attribute op.
  size_t compressed = 0;
  std::vector<size_t> attribute_kinds(3, 0);
  for (const Delta& delta : chain.deltas) {
    for (const UpdateOp& op : delta.updates()) {
      if (op.is_compressed()) ++compressed;
    }
    for (const AttributeOp& op : delta.attribute_ops()) {
      ++attribute_kinds[static_cast<size_t>(op.kind)];
    }
  }
  EXPECT_GT(compressed, 0u);
  for (size_t kind = 0; kind < attribute_kinds.size(); ++kind) {
    EXPECT_GT(attribute_kinds[kind], 0u) << "attribute op kind " << kind;
  }
}

/// Bit-exact equality of two versions: tree, XIDs and the XID allocator.
::testing::AssertionResult SameVersion(const XmlDocument& a,
                                       const XmlDocument& b) {
  ::testing::AssertionResult same = DocsEqualWithXids(a, b);
  if (!same) return same;
  if (a.next_xid() != b.next_xid()) {
    return ::testing::AssertionFailure()
           << "next_xid " << a.next_xid() << " vs " << b.next_xid();
  }
  return ::testing::AssertionSuccess();
}

/// The oracle for an inverse hop: the inverse materialized by
/// InvertDelta, applied forward with verification.
XmlDocument MaterializedInverse(const Delta& delta, const XmlDocument& doc) {
  XmlDocument out = doc.Clone();
  XY_EXPECT_OK(ApplyDelta(InvertDelta(delta), &out));
  return out;
}

TEST(DeltaPathTest, InPlaceInverseMatchesMaterializedInverse) {
  for (uint64_t seed : {72, 79}) {
    const Chain chain = MixedChain(seed);
    // Each hop undone on its own, from the version it produced.
    for (size_t v = chain.deltas.size(); v > 0; --v) {
      const Delta& delta = chain.deltas[v - 1];
      XmlDocument in_place = chain.versions[v].Clone();
      XY_ASSERT_OK(ApplyDeltaInverse(delta, &in_place));
      const XmlDocument oracle = MaterializedInverse(delta, chain.versions[v]);
      ASSERT_TRUE(SameVersion(in_place, oracle))
          << "seed " << seed << " hop " << v;
      ASSERT_TRUE(DocsEqualWithXids(in_place, chain.versions[v - 1]))
          << "seed " << seed << " hop " << v;
    }
    // The whole chain undone as one verifying path, against the chain of
    // materialized inverses.
    DeltaPathApplicator path(chain.head().Clone(), ApplyOptions{});
    XmlDocument oracle = chain.head().Clone();
    for (size_t v = chain.deltas.size(); v > 0; --v) {
      XY_ASSERT_OK(path.Push(chain.deltas[v - 1], /*inverse=*/true));
      oracle = MaterializedInverse(chain.deltas[v - 1], oracle);
    }
    EXPECT_TRUE(SameVersion(std::move(path).Finish(), oracle))
        << "seed " << seed;
  }
}

TEST(DeltaPathTest, ForwardPathMatchesStepByStep) {
  for (uint64_t seed : {73, 74, 75}) {
    const Chain chain = MixedChain(seed);
    for (const bool verify : {false, true}) {
      DeltaPathApplicator path(chain.versions[0].Clone(),
                               ApplyOptions{.verify = verify});
      size_t inserted = 0;
      for (size_t v = 0; v < chain.deltas.size(); ++v) {
        XY_ASSERT_OK(path.Push(chain.deltas[v]));
        inserted += SnapshotNodes(chain.deltas[v].inserts());
      }
      EXPECT_EQ(path.applications(), chain.deltas.size());
      EXPECT_EQ(path.nodes_indexed(),
                chain.versions[0].node_count() + inserted);
      EXPECT_TRUE(DocsEqualWithXids(std::move(path).Finish(), chain.head()))
          << "seed " << seed << " verify " << verify;
    }
  }
}

TEST(DeltaPathTest, BackwardPathMatchesStepByStep) {
  for (uint64_t seed : {76, 77}) {
    const Chain chain = MixedChain(seed);
    for (size_t v = chain.deltas.size(); v-- > 0;) {
      DeltaPathApplicator path(chain.head().Clone());
      size_t inserted = 0;
      for (size_t hop = chain.deltas.size(); hop > v; --hop) {
        XY_ASSERT_OK(path.Push(chain.deltas[hop - 1], /*inverse=*/true));
        // Undoing a hop re-inserts what it deleted.
        inserted += SnapshotNodes(chain.deltas[hop - 1].deletes());
      }
      EXPECT_EQ(path.nodes_indexed(), chain.head().node_count() + inserted);
      EXPECT_TRUE(DocsEqualWithXids(std::move(path).Finish(),
                                    chain.versions[v]))
          << "seed " << seed << " version " << v + 1;
    }
  }
}

TEST(DeltaPathTest, RepositoryCheckoutMatchesStepByStep) {
  const Chain chain = MixedChain(78);
  const int versions = static_cast<int>(chain.versions.size());

  // Checkout is a backward replay of inverse hops from the head.
  VersionRepository repo =
      VersionRepository::FromParts(chain.head().Clone(), chain.CloneDeltas());
  for (int v = 1; v <= versions; ++v) {
    CheckoutStats stats;
    Result<XmlDocument> doc = repo.Checkout(v, &stats);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    EXPECT_EQ(stats.applications, static_cast<size_t>(versions - v));
    EXPECT_TRUE(DocsEqualWithXids(*doc, chain.versions[v - 1]))
        << "version " << v;
  }
}

/// <r><a>x</a><b/></r> with postfix XIDs: x=1 a=2 b=3 r=4.
XmlDocument BaseDoc() {
  XmlDocument doc = MustParse("<r><a>x</a><b/></r>");
  doc.AssignInitialXids();
  return doc;
}

TEST(DeltaPathTest, HeapTreeInArenaDocumentKeepsIndexValid) {
  // The tree's domain, not the document's, decides where the super-root
  // lives; otherwise the first hop would copy the tree and strand the
  // index built over the original nodes.
  XmlDocument doc = XmlDocument::ArenaBacked();
  doc.set_root(BaseDoc().Clone().take_root());
  doc.set_next_xid(5);
  DeltaPathApplicator path(std::move(doc));
  Delta first;
  first.updates().push_back(UpdateOp{1, "x", "y"});
  Delta second;
  second.updates().push_back(UpdateOp{1, "y", "z"});
  XmlNodePtr c = XmlNode::Element("c");
  c->set_xid(5);
  second.inserts().emplace_back(5, 4, 3, std::move(c));
  second.set_new_next_xid(6);
  XY_ASSERT_OK(path.Push(first));
  XY_ASSERT_OK(path.Push(second));
  const XmlDocument out = std::move(path).Finish();
  EXPECT_EQ(SerializeDocument(out), "<r><a>z</a><b/><c/></r>");
}

TEST(DeltaPathTest, FirstErrorIsSticky) {
  // Heap domain: a failed application frees its registered snapshot, so
  // reusing the index would read freed memory (caught under ASan).
  DeltaPathApplicator path(BaseDoc().Clone());

  // A delta for another version: it deletes <b> and registers an inserted
  // snapshot, then fails to attach it under a parent that does not exist.
  // The document is half-modified and the index holds the snapshot's
  // nodes, which die with the failed application.
  Delta wrong;
  wrong.deletes().emplace_back(3, 4, 2, XmlNode::Element("b"));
  XmlNodePtr orphan = XmlNode::Text("orphan");
  orphan->set_xid(20);
  wrong.inserts().emplace_back(20, 99, 1, std::move(orphan));
  wrong.set_new_next_xid(21);
  const Status first = path.Push(wrong);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kNotFound);

  // A delta that is valid for the base version is refused with the first
  // error, and so is one addressing the dead snapshot's XID.
  Delta valid;
  valid.updates().push_back(UpdateOp{1, "x", "y"});
  Delta stale;
  stale.updates().push_back(UpdateOp{20, "orphan", "reused"});
  for (const Delta* next : {&valid, &stale}) {
    const Status again = path.Push(*next);
    EXPECT_EQ(again.code(), first.code());
    EXPECT_EQ(again.message(), first.message());
  }
  EXPECT_EQ(path.applications(), 1u);
  XmlDocument doc = std::move(path).Finish();
  ASSERT_NE(doc.root(), nullptr);
  EXPECT_EQ(doc.root()->child(0)->child(0)->text(), "x");
}


TEST(DeltaPathTest, VerifyingInversePushOntoWrongVersionConflicts) {
  // d: <r><a>x</a><b/></r> -> <r a="1"><a>y</a><c/></r> (text update,
  // attribute insert, <b/> replaced by <c/>).
  Delta d;
  d.set_old_next_xid(5);
  d.set_new_next_xid(6);
  d.updates().push_back(UpdateOp{1, "x", "y"});
  d.attribute_ops().push_back({AttributeOpKind::kInsert, 4, "a", "", "1"});
  XmlNodePtr b = XmlNode::Element("b");
  b->set_xid(3);
  d.deletes().emplace_back(3, 4, 2, std::move(b));
  XmlNodePtr c = XmlNode::Element("c");
  c->set_xid(5);
  d.inserts().emplace_back(5, 4, 2, std::move(c));

  XmlDocument target = BaseDoc();
  XY_ASSERT_OK(ApplyDelta(d, &target));
  {
    // The right version: undone exactly.
    DeltaPathApplicator path(target.Clone(), ApplyOptions{});
    XY_ASSERT_OK(path.Push(d, /*inverse=*/true));
    EXPECT_TRUE(SameVersion(std::move(path).Finish(),
                            MaterializedInverse(d, target)));
  }
  // The source version is the wrong one for an inverse push: its text
  // still reads "x" where the inverse update expects "y".
  {
    DeltaPathApplicator path(BaseDoc(), ApplyOptions{});
    EXPECT_EQ(path.Push(d, /*inverse=*/true).code(), StatusCode::kConflict);
  }
  // A version whose text matches but whose inserted <c/> was changed:
  // the inverse delete finds a subtree that is not the snapshot.
  {
    XmlDocument changed = target.Clone();
    changed.root()->child(1)->SetAttribute("extra", "z");
    DeltaPathApplicator path(std::move(changed), ApplyOptions{});
    EXPECT_EQ(path.Push(d, /*inverse=*/true).code(), StatusCode::kConflict);
  }
  // A version where the inserted attribute already changed value.
  {
    XmlDocument changed = target.Clone();
    changed.root()->SetAttribute("a", "2");
    DeltaPathApplicator path(std::move(changed), ApplyOptions{});
    EXPECT_EQ(path.Push(d, /*inverse=*/true).code(), StatusCode::kConflict);
  }
}

}  // namespace
}  // namespace xydiff
