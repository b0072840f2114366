#include "delta/delta.h"

#include "delta/node_index.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace xydiff {
namespace {

XmlNodePtr SmallSubtree() {
  auto node = XmlNode::Element("p");
  node->set_xid(2);
  auto text = XmlNode::Text("x");
  text->set_xid(1);
  node->AppendChild(std::move(text));
  return node;
}

TEST(DeltaTest, EmptyByDefault) {
  Delta delta;
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.operation_count(), 0u);
  EXPECT_EQ(delta.snapshot_node_count(), 0u);
  EXPECT_EQ(delta.edit_cost(), 0u);
}

TEST(DeltaTest, OperationCountSumsAllKinds) {
  Delta delta;
  delta.deletes().emplace_back(2, 5, 1, SmallSubtree());
  delta.inserts().emplace_back(7, 5, 2, SmallSubtree());
  delta.moves().push_back(MoveOp{3, 5, 1, 6, 2});
  delta.updates().push_back(UpdateOp{4, "a", "b"});
  delta.attribute_ops().push_back(
      {AttributeOpKind::kUpdate, 5, "k", "1", "2"});
  EXPECT_EQ(delta.operation_count(), 5u);
  EXPECT_FALSE(delta.empty());
  EXPECT_EQ(delta.snapshot_node_count(), 4u);
  EXPECT_EQ(delta.edit_cost(), 4u + 3u);
}

TEST(DeltaTest, CloneIsDeep) {
  Delta delta;
  delta.deletes().emplace_back(2, 5, 1, SmallSubtree());
  delta.updates().push_back(UpdateOp{4, "a", "b"});
  delta.set_old_next_xid(10);
  delta.set_new_next_xid(20);

  Delta copy = delta.Clone();
  EXPECT_EQ(copy.operation_count(), 2u);
  EXPECT_EQ(copy.old_next_xid(), 10u);
  EXPECT_EQ(copy.new_next_xid(), 20u);
  ASSERT_NE(copy.deletes()[0].subtree, nullptr);
  EXPECT_NE(copy.deletes()[0].subtree.get(), delta.deletes()[0].subtree.get());
  EXPECT_TRUE(
      copy.deletes()[0].subtree->DeepEquals(*delta.deletes()[0].subtree));
  // Mutating the copy leaves the original intact.
  copy.deletes()[0].subtree->SetAttribute("mut", "1");
  EXPECT_EQ(delta.deletes()[0].subtree->FindAttribute("mut"), nullptr);
}

TEST(DeltaTest, OpCloneHelpers) {
  DeleteOp del(2, 5, 1, SmallSubtree());
  DeleteOp del2 = del.Clone();
  EXPECT_EQ(del2.xid, del.xid);
  EXPECT_TRUE(del2.subtree->DeepEquals(*del.subtree));

  InsertOp ins(2, 5, 1, SmallSubtree());
  InsertOp ins2 = ins.Clone();
  EXPECT_EQ(ins2.parent_xid, 5u);
  EXPECT_TRUE(ins2.subtree->DeepEquals(*ins.subtree));
}

TEST(DeltaTest, MoveOpEquality) {
  MoveOp a{1, 2, 3, 4, 5};
  MoveOp b{1, 2, 3, 4, 5};
  MoveOp c{1, 2, 3, 4, 6};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

// DeltaNodeIndex screens nodes by the low bits of their XIDs before the
// exact lookup; nodes whose XIDs share those bits with a wanted one must
// not resolve in its place.
TEST(DeltaNodeIndexTest, ResolvesExactlyTheXidsTheDeltaNames) {
  std::string xml = "<r>";
  for (int i = 0; i < 9000; ++i) xml += "<a/>";
  xml += "</r>";
  XmlDocument old_doc = MustParse(xml);
  old_doc.AssignInitialXids();
  XmlDocument new_doc = old_doc.Clone();
  Delta delta;
  delta.deletes().push_back(DeleteOp(7, old_doc.root()->xid(), 7, nullptr));
  delta.moves().push_back(MoveOp{5000, old_doc.root()->xid(), 5000,
                                 old_doc.root()->xid(), 1});
  const DeltaNodeIndex nodes = DeltaNodeIndex::Build(delta, old_doc, new_doc);
  ASSERT_NE(nodes.old_node(7), nullptr);
  EXPECT_EQ(nodes.old_node(7)->xid(), 7u);
  ASSERT_NE(nodes.new_node(5000), nullptr);
  EXPECT_EQ(nodes.new_node(5000)->xid(), 5000u);
  for (Xid other : {Xid{7 + 4096}, Xid{5000 - 4096}, Xid{5000 + 4096}}) {
    EXPECT_EQ(nodes.old_node(other), nullptr) << other;
    EXPECT_EQ(nodes.new_node(other), nullptr) << other;
  }
  EXPECT_EQ(nodes.old_node(5000), nullptr);  // Moves name new-side nodes.
  EXPECT_EQ(nodes.new_node(7), nullptr);     // Deletes name old-side ones.
}

}  // namespace
}  // namespace xydiff
