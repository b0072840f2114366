#include "monitor/change_stats.h"

#include "core/buld.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace xydiff {
namespace {

/// Diffs two documents and feeds the result to the statistics collector.
void Feed(ChangeStatistics* stats, std::string_view old_xml,
          std::string_view new_xml) {
  XmlDocument old_doc = MustParse(old_xml);
  old_doc.AssignInitialXids();
  XmlDocument new_doc = MustParse(new_xml);
  Result<Delta> delta = XyDiff(&old_doc, &new_doc);
  ASSERT_TRUE(delta.ok());
  stats->Accumulate(*delta, old_doc, new_doc);
}

TEST(ChangeStatsTest, EmptyCollector) {
  ChangeStatistics stats;
  EXPECT_EQ(stats.delta_count(), 0u);
  EXPECT_EQ(stats.ForLabel("anything").occurrences, 0u);
  EXPECT_TRUE(stats.MostVolatile(5).empty());
}

TEST(ChangeStatsTest, PriceChangesMoreThanDescription) {
  // The paper's own example: "learn that a price node is more likely to
  // change than a description node" (§5.2).
  ChangeStatistics stats;
  const char* version_a =
      "<shop><item><price>1</price><desc>stable text</desc></item>"
      "<item><price>5</price><desc>also stable</desc></item></shop>";
  const char* version_b =
      "<shop><item><price>2</price><desc>stable text</desc></item>"
      "<item><price>6</price><desc>also stable</desc></item></shop>";
  const char* version_c =
      "<shop><item><price>3</price><desc>stable text</desc></item>"
      "<item><price>7</price><desc>also stable</desc></item></shop>";
  Feed(&stats, version_a, version_b);
  Feed(&stats, version_b, version_c);

  EXPECT_EQ(stats.delta_count(), 2u);
  const auto price = stats.ForLabel("price");
  const auto desc = stats.ForLabel("desc");
  EXPECT_EQ(price.text_updated, 4u);  // 2 prices x 2 transitions.
  EXPECT_EQ(desc.text_updated, 0u);
  EXPECT_GT(price.change_rate(), desc.change_rate());

  const auto ranking = stats.MostVolatile(3);
  ASSERT_FALSE(ranking.empty());
  EXPECT_EQ(ranking[0].first, "price");
}

TEST(ChangeStatsTest, CountsInsertDeleteMove) {
  ChangeStatistics stats;
  Feed(&stats,
       "<r><keep>long stable payload</keep><gone><x>bye</x></gone>"
       "<spot/></r>",
       "<r><spot><keep>long stable payload</keep></spot><fresh/></r>");
  const auto gone = stats.ForLabel("gone");
  EXPECT_EQ(gone.deleted, 1u);
  EXPECT_EQ(stats.ForLabel("x").deleted, 1u);
  EXPECT_EQ(stats.ForLabel("fresh").inserted, 1u);
  EXPECT_EQ(stats.ForLabel("keep").moved, 1u);
  // Deleted elements still count as occurrences.
  EXPECT_GE(gone.occurrences, 1u);
}

TEST(ChangeStatsTest, CountsAttributeChanges) {
  ChangeStatistics stats;
  Feed(&stats, R"(<r><p k="1">t</p></r>)", R"(<r><p k="2">t</p></r>)");
  EXPECT_EQ(stats.ForLabel("p").attr_changed, 1u);
}

TEST(ChangeStatsTest, OccurrencesAccumulate) {
  ChangeStatistics stats;
  Feed(&stats, "<r><a/><a/></r>", "<r><a/><a/></r>");
  Feed(&stats, "<r><a/><a/></r>", "<r><a/><a/></r>");
  EXPECT_EQ(stats.ForLabel("a").occurrences, 4u);
  EXPECT_EQ(stats.ForLabel("a").total_changes(), 0u);
}

TEST(ChangeStatsTest, OccurrencesMergeEqualLabelsStoredApart) {
  // A parsed document stores each distinct label once; a built one
  // stores every label on its own. The counts must not see the
  // difference.
  XmlDocument old_doc = MustParse("<r><a/><a/></r>");
  old_doc.AssignInitialXids();
  XmlDocument new_doc(XmlNode::Element("r"));
  new_doc.root()->AppendChild(XmlNode::Element("a"));
  new_doc.root()->AppendChild(XmlNode::Element("a"));
  ASSERT_NE(new_doc.root()->child(0)->label().data(),
            new_doc.root()->child(1)->label().data());
  Result<Delta> delta = XyDiff(&old_doc, &new_doc);
  ASSERT_TRUE(delta.ok());
  ChangeStatistics stats;
  stats.Accumulate(*delta, old_doc, new_doc);
  EXPECT_EQ(stats.ForLabel("a").occurrences, 2u);
  EXPECT_EQ(stats.ForLabel("r").occurrences, 1u);
}

TEST(ChangeStatsTest, MostVolatileRespectsMinOccurrences) {
  ChangeStatistics stats;
  Feed(&stats, "<r><rare>x</rare></r>", "<r><rare>y</rare></r>");
  // Only one sighting of <rare>: excluded at min_occurrences=4,
  // included at 1.
  EXPECT_TRUE(stats.MostVolatile(5, 4).empty());
  EXPECT_FALSE(stats.MostVolatile(5, 1).empty());
}

TEST(ChangeStatsTest, ReportIsReadable) {
  ChangeStatistics stats;
  Feed(&stats, "<r><price>1</price></r>", "<r><price>2</price></r>");
  const std::string report = stats.Report(5);
  EXPECT_NE(report.find("change statistics over 1 delta(s)"),
            std::string::npos);
}

}  // namespace
}  // namespace xydiff
