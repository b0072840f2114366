#include "delta/delta_xml.h"

#include "core/buld.h"
#include "delta/apply.h"
#include "gtest/gtest.h"
#include "simulator/change_simulator.h"
#include "simulator/web_corpus.h"
#include "util/random.h"
#include "tests/test_util.h"
#include "xml/path.h"

namespace xydiff {
namespace {

Delta SampleDelta() {
  XmlDocument a = MustParse(
      "<shop><item k=\"1\">apple</item><item>pear</item>"
      "<box><item>plum</item></box></shop>");
  a.AssignInitialXids();
  XmlDocument b = MustParse(
      "<shop><box><item>plum</item><item>apple!</item></box>"
      "<item k=\"2\">apple</item></shop>");
  Result<Delta> delta = XyDiff(&a, &b);
  EXPECT_TRUE(delta.ok());
  return std::move(delta.value());
}

TEST(DeltaXmlTest, RoundTripPreservesEverything) {
  const Delta delta = SampleDelta();
  const std::string xml = SerializeDelta(delta);
  Result<Delta> reparsed = ParseDelta(xml);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << xml;

  EXPECT_EQ(reparsed->deletes().size(), delta.deletes().size());
  EXPECT_EQ(reparsed->inserts().size(), delta.inserts().size());
  EXPECT_EQ(reparsed->moves().size(), delta.moves().size());
  EXPECT_EQ(reparsed->updates().size(), delta.updates().size());
  EXPECT_EQ(reparsed->attribute_ops().size(), delta.attribute_ops().size());
  EXPECT_EQ(reparsed->old_next_xid(), delta.old_next_xid());
  EXPECT_EQ(reparsed->new_next_xid(), delta.new_next_xid());
  // Serialization is a fixpoint.
  EXPECT_EQ(SerializeDelta(*reparsed), xml);
}

TEST(DeltaXmlTest, DeltaIsItselfParsableXml) {
  // §2: deltas are XML documents and can be queried like any other.
  const Delta delta = SampleDelta();
  XmlDocument doc = MustParse(SerializeDelta(delta));
  EXPECT_EQ(doc.root()->label(), "xy:delta");
}

TEST(DeltaXmlTest, DeltasAreQueryableWithPaths) {
  // §2's claim made concrete: query the delta document with the
  // library's own path engine — e.g. "which moves happened?" or "which
  // Products were inserted?".
  const Delta delta = SampleDelta();
  XmlDocument doc = MustParse(SerializeDelta(delta));

  Result<XmlPath> moves = XmlPath::Parse("/xy:delta/xy:move");
  ASSERT_TRUE(moves.ok());
  EXPECT_EQ(moves->FindAll(*doc.root()).size(), delta.moves().size());

  Result<XmlPath> inserted_items = XmlPath::Parse("//xy:insert//item");
  ASSERT_TRUE(inserted_items.ok());
  size_t items_in_inserts = 0;
  for (const InsertOp& op : delta.inserts()) {
    op.subtree->Visit([&](const XmlNode* n) {
      if (n->is_element() && n->label() == "item") ++items_in_inserts;
    });
  }
  EXPECT_EQ(inserted_items->FindAll(*doc.root()).size(), items_in_inserts);
}

TEST(DeltaXmlTest, XidMapAttributeOnSnapshots) {
  XmlDocument a = MustParse("<r><gone><x>1</x><y>2</y></gone></r>");
  a.AssignInitialXids();
  XmlDocument b = MustParse("<r/>");
  Result<Delta> delta = XyDiff(&a, &b);
  ASSERT_TRUE(delta.ok());
  const std::string xml = SerializeDelta(*delta);
  // Subtree postfix XIDs: x-text=1 x=2 y-text=3 y=4 gone=5 -> "(1-5)".
  EXPECT_NE(xml.find("xidMap=\"(1-5)\""), std::string::npos) << xml;
}

TEST(DeltaXmlTest, UpdateValuesWithSpecialCharacters) {
  Delta delta;
  delta.updates().push_back(UpdateOp{3, "a<b>&c", "\"quoted\" & 'apos'"});
  delta.set_old_next_xid(5);
  delta.set_new_next_xid(5);
  Result<Delta> reparsed = ParseDelta(SerializeDelta(delta));
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->updates().size(), 1u);
  EXPECT_EQ(reparsed->updates()[0].old_value, "a<b>&c");
  EXPECT_EQ(reparsed->updates()[0].new_value, "\"quoted\" & 'apos'");
}

TEST(DeltaXmlTest, EmptyUpdateValues) {
  Delta delta;
  delta.updates().push_back(UpdateOp{3, "", "now set"});
  delta.set_old_next_xid(5);
  delta.set_new_next_xid(5);
  Result<Delta> reparsed = ParseDelta(SerializeDelta(delta));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->updates()[0].old_value, "");
  EXPECT_EQ(reparsed->updates()[0].new_value, "now set");
}

TEST(DeltaXmlTest, TextNodeSnapshot) {
  // A deleted bare text node round-trips as an op with a text child.
  Delta delta;
  auto text = XmlNode::Text("  spaced  ");
  text->set_xid(7);
  delta.deletes().emplace_back(7, 9, 2, std::move(text));
  delta.set_old_next_xid(10);
  delta.set_new_next_xid(10);
  Result<Delta> reparsed = ParseDelta(SerializeDelta(delta));
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->deletes().size(), 1u);
  ASSERT_TRUE(reparsed->deletes()[0].subtree->is_text());
  EXPECT_EQ(reparsed->deletes()[0].subtree->text(), "  spaced  ");
  EXPECT_EQ(reparsed->deletes()[0].subtree->xid(), 7u);
}

TEST(DeltaXmlTest, AppliedAfterRoundTrip) {
  XmlDocument a = MustParse(
      "<shop><item k=\"1\">apple</item><item>pear</item>"
      "<box><item>plum</item></box></shop>");
  a.AssignInitialXids();
  XmlDocument b = MustParse(
      "<shop><box><item>plum</item><item>apple!</item></box>"
      "<item k=\"2\">apple</item></shop>");
  XmlDocument a2 = a.Clone();
  Result<Delta> delta = XyDiff(&a2, &b);
  ASSERT_TRUE(delta.ok());
  Result<Delta> reparsed = ParseDelta(SerializeDelta(*delta));
  ASSERT_TRUE(reparsed.ok());
  XmlDocument patched = a.Clone();
  XY_ASSERT_OK(ApplyDelta(*reparsed, &patched));
  EXPECT_TRUE(DocsEqualWithXids(patched, b));
}

TEST(DeltaXmlTest, ParseErrors) {
  EXPECT_FALSE(ParseDelta("<notadelta/>").ok());
  EXPECT_FALSE(ParseDelta("not xml at all").ok());
  // Missing oldNextXid.
  EXPECT_FALSE(ParseDelta("<xy:delta newNextXid=\"1\"/>").ok());
  // Unknown operation.
  EXPECT_FALSE(ParseDelta("<xy:delta oldNextXid=\"1\" newNextXid=\"1\">"
                          "<xy:frobnicate/></xy:delta>")
                   .ok());
  // Delete without snapshot.
  EXPECT_FALSE(ParseDelta("<xy:delta oldNextXid=\"1\" newNextXid=\"1\">"
                          "<xy:delete xid=\"1\" parentXid=\"0\" pos=\"1\"/>"
                          "</xy:delta>")
                   .ok());
  // Move with a malformed number.
  EXPECT_FALSE(ParseDelta("<xy:delta oldNextXid=\"1\" newNextXid=\"1\">"
                          "<xy:move xid=\"x\" fromParent=\"1\" fromPos=\"1\""
                          " toParent=\"1\" toPos=\"1\"/></xy:delta>")
                   .ok());
  // Update missing old/new wrappers.
  EXPECT_FALSE(ParseDelta("<xy:delta oldNextXid=\"1\" newNextXid=\"1\">"
                          "<xy:update xid=\"1\"/></xy:delta>")
                   .ok());
}

TEST(DeltaXmlTest, PrettyFormParsesToo) {
  const Delta delta = SampleDelta();
  Result<Delta> reparsed = ParseDelta(SerializeDelta(delta, /*pretty=*/true));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->operation_count(), delta.operation_count());
}

TEST(DeltaXmlTest, EmptyDelta) {
  Delta delta;
  delta.set_old_next_xid(4);
  delta.set_new_next_xid(4);
  Result<Delta> reparsed = ParseDelta(SerializeDelta(delta));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(reparsed->empty());
  EXPECT_EQ(reparsed->old_next_xid(), 4u);
}

/// SerializedDeltaSize must equal the length of the text it stands in for.
void ExpectSizeMatches(const Delta& delta) {
  EXPECT_EQ(SerializedDeltaSize(delta), SerializeDelta(delta).size())
      << SerializeDelta(delta);
}

/// An element snapshot `<label a="value">text</label>` whose two nodes
/// carry XIDs `text_xid` and `element_xid` (postorder).
XmlNodePtr Snapshot(std::string_view label, std::string_view value,
                    std::string_view text, Xid text_xid, Xid element_xid) {
  auto element = XmlNode::Element(label);
  element->SetAttribute("a", value);
  element->set_xid(element_xid);
  auto child = XmlNode::Text(text);
  child->set_xid(text_xid);
  element->AppendChild(std::move(child));
  return element;
}

TEST(DeltaXmlTest, SizeCounterCoversEveryOperationKind) {
  Delta delta;
  delta.set_old_next_xid(9);
  delta.set_new_next_xid(123456);
  // XID maps: a run ("(4-5)"), single values ("(7;9)"), and both.
  delta.deletes().emplace_back(5, 1, 1, Snapshot("d", "v", "t", 4, 5));
  delta.deletes().emplace_back(9, 1, 2, Snapshot("e", "", "", 7, 9));
  auto runs = XmlNode::Element("r");
  runs->set_xid(100);
  for (Xid xid : {10, 11, 12, 40, 99}) {
    auto leaf = XmlNode::Element("leaf");
    leaf->set_xid(xid);
    runs->AppendChild(std::move(leaf));
  }
  delta.inserts().emplace_back(100, 2, 3, std::move(runs));
  // A snapshot-less op and a bare text snapshot.
  delta.inserts().emplace_back(200, 2, 4, nullptr);
  auto text = XmlNode::Text("bare");
  text->set_xid(201);
  delta.inserts().emplace_back(201, 2, 5, std::move(text));
  delta.moves().push_back(MoveOp{3, 1, 7, 20, 1000});
  delta.updates().push_back(UpdateOp{6, "old", "new"});
  // Compressed updates: only the differing middle is stored.
  delta.updates().push_back(UpdateOp{7, "mid", "dle", 12, 0});
  delta.updates().push_back(UpdateOp{8, "x", "y", 0, 3456});
  delta.updates().push_back(UpdateOp{9, "p", "q", 1, 22});
  delta.attribute_ops().push_back(
      AttributeOp{AttributeOpKind::kInsert, 4, "lang", "", "en"});
  delta.attribute_ops().push_back(
      AttributeOp{AttributeOpKind::kDelete, 4, "id", "x7", ""});
  delta.attribute_ops().push_back(
      AttributeOp{AttributeOpKind::kUpdate, 4, "class", "a", "b"});
  ExpectSizeMatches(delta);

  Delta empty;
  empty.set_old_next_xid(0);
  empty.set_new_next_xid(18446744073709551615ULL);
  ExpectSizeMatches(empty);
}

TEST(DeltaXmlTest, SizeCounterHandlesEmptyValues) {
  Delta delta;
  delta.set_old_next_xid(5);
  delta.set_new_next_xid(5);
  delta.updates().push_back(UpdateOp{3, "", "now set"});
  delta.updates().push_back(UpdateOp{4, "was set", ""});
  delta.updates().push_back(UpdateOp{5, "", ""});
  delta.attribute_ops().push_back(
      AttributeOp{AttributeOpKind::kUpdate, 2, "k", "", ""});
  delta.attribute_ops().push_back(
      AttributeOp{AttributeOpKind::kInsert, 2, "", "", ""});
  ExpectSizeMatches(delta);
}

TEST(DeltaXmlTest, SizeCounterCountsEscapes) {
  const std::string nasty = "a&b<c>d\"e'f&&<<>>\"\"";
  Delta delta;
  delta.set_old_next_xid(50);
  delta.set_new_next_xid(60);
  // In text (update values and snapshot text), in snapshot attribute
  // values, and in the attribute-op name and values.
  delta.updates().push_back(UpdateOp{3, nasty, "\"quoted\" & 'apos'"});
  delta.deletes().emplace_back(11, 1, 1, Snapshot("s", nasty, nasty, 10, 11));
  delta.attribute_ops().push_back(
      AttributeOp{AttributeOpKind::kUpdate, 4, nasty, nasty, "<&>"});
  delta.attribute_ops().push_back(
      AttributeOp{AttributeOpKind::kInsert, 4, "\"", "", nasty});
  delta.attribute_ops().push_back(
      AttributeOp{AttributeOpKind::kDelete, 4, "&", "\">", ""});
  ExpectSizeMatches(delta);
}

TEST(DeltaXmlTest, SizeCounterMatchesSimulatedDeltas) {
  Rng rng(2002);
  WebCorpusOptions corpus_options;
  corpus_options.document_count = 40;
  std::vector<XmlDocument> corpus = GenerateWebCorpus(&rng, corpus_options);
  const ChangeSimOptions weekly = WeeklyWebChangeProfile();
  size_t checked = 0;
  for (XmlDocument& doc : corpus) {
    doc.AssignInitialXids();
    Result<SimulatedChange> change = SimulateChanges(doc, weekly, &rng);
    ASSERT_TRUE(change.ok()) << change.status().ToString();
    ExpectSizeMatches(change->perfect_delta);
    XmlDocument old_version = doc.Clone();
    Result<Delta> delta = XyDiff(&old_version, &change->new_version);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    ExpectSizeMatches(*delta);
    checked += delta->operation_count();
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace xydiff
