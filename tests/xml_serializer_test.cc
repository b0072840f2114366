#include "xml/serializer.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "simulator/doc_generator.h"
#include "util/random.h"
#include "xml/parser.h"

namespace xydiff {
namespace {

TEST(SerializerTest, SelfClosingEmptyElement) {
  XmlDocument doc = MustParse("<a></a>");
  EXPECT_EQ(SerializeDocument(doc), "<a/>");
}

TEST(SerializerTest, NestedStructure) {
  XmlDocument doc = MustParse("<a><b>t</b><c/></a>");
  EXPECT_EQ(SerializeDocument(doc), "<a><b>t</b><c/></a>");
}

TEST(SerializerTest, AttributesPreserved) {
  XmlDocument doc = MustParse(R"(<a x="1" y="two"/>)");
  EXPECT_EQ(SerializeDocument(doc), R"(<a x="1" y="two"/>)");
}

TEST(SerializerTest, TextEscaping) {
  EXPECT_EQ(EscapeText("a<b>&c"), "a&lt;b&gt;&amp;c");
  EXPECT_EQ(EscapeText("plain"), "plain");
  EXPECT_EQ(EscapeAttribute("a\"b<c&"), "a&quot;b&lt;c&amp;");
  for (std::string_view text : {"a<b>&c", "plain", "a\"b<c&", "", "\"\""}) {
    EXPECT_EQ(EscapedTextSize(text), EscapeText(text).size()) << text;
    EXPECT_EQ(EscapedAttributeSize(text), EscapeAttribute(text).size())
        << text;
  }
}

TEST(SerializerTest, EscapedRoundTrip) {
  auto root = XmlNode::Element("t");
  root->SetAttribute("attr", "q\"uote & <tag>");
  root->AppendChild(XmlNode::Text("body & <stuff>"));
  XmlDocument doc(std::move(root));
  const std::string xml = SerializeDocument(doc);
  EXPECT_EQ(SerializedNodeSize(*doc.root()), xml.size());
  XmlDocument reparsed = MustParse(xml);
  EXPECT_TRUE(DocsEqual(doc, reparsed));
}

TEST(SerializerTest, XmlDeclaration) {
  XmlDocument doc = MustParse("<a/>");
  SerializeOptions options;
  options.xml_declaration = true;
  const std::string out = SerializeDocument(doc, options);
  EXPECT_TRUE(out.starts_with("<?xml version=\"1.0\""));
}

TEST(SerializerTest, PrettyPrinting) {
  XmlDocument doc = MustParse("<a><b>t</b></a>");
  SerializeOptions options;
  options.pretty = true;
  const std::string out = SerializeDocument(doc, options);
  EXPECT_NE(out.find("<a>\n"), std::string::npos);
  EXPECT_NE(out.find("  <b>"), std::string::npos);
  // Pretty output re-parses to the same tree under default options.
  EXPECT_TRUE(DocsEqual(doc, MustParse(out)));
}

TEST(SerializerTest, EmitXids) {
  XmlDocument doc = MustParse("<a><b/></a>");
  doc.AssignInitialXids();
  SerializeOptions options;
  options.emit_xids = true;
  const std::string out = SerializeDocument(doc, options);
  EXPECT_NE(out.find("xy:xid=\"2\""), std::string::npos);
  EXPECT_NE(out.find("xy:xid=\"1\""), std::string::npos);
}

TEST(SerializerTest, DoctypeEmissionRoundTripsIdAttributes) {
  XmlDocument doc = MustParse(
      "<!DOCTYPE c [<!ATTLIST p id ID #IMPLIED>]><c><p id=\"1\"/></c>");
  SerializeOptions options;
  options.doctype = true;
  const std::string out = SerializeDocument(doc, options);
  XmlDocument reparsed = MustParse(out);
  ASSERT_NE(reparsed.dtd().IdAttributeFor("p"), nullptr);
  EXPECT_EQ(*reparsed.dtd().IdAttributeFor("p"), "id");
}

TEST(SerializerTest, SerializeNodeSubtree) {
  XmlDocument doc = MustParse("<a><b>x</b></a>");
  EXPECT_EQ(SerializeNode(*doc.root()->child(0)), "<b>x</b>");
}

TEST(SerializerTest, EmptyDocument) {
  XmlDocument doc;
  EXPECT_EQ(SerializeDocument(doc), "");
}

// Property: parse(serialize(doc)) == doc over random documents.
class SerializerRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializerRoundTrip, RandomDocuments) {
  Rng rng(GetParam());
  DocGenOptions options;
  options.target_bytes = 4096;
  XmlDocument doc = GenerateDocument(&rng, options);
  const std::string xml = SerializeDocument(doc);
  EXPECT_EQ(SerializedNodeSize(*doc.root()), xml.size());
  XmlDocument reparsed = MustParse(xml);
  EXPECT_TRUE(DocsEqual(doc, reparsed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializerRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace xydiff
