#include "version/site_diff.h"

#include "gtest/gtest.h"
#include "simulator/web_corpus.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace xydiff {
namespace {

constexpr std::string_view kWeek1 = R"(<site>
  <section name="docs">
    <page url="/docs/a"><title>Alpha</title><summary>about alpha</summary></page>
    <page url="/docs/b"><title>Beta</title><summary>about beta</summary></page>
  </section>
  <section name="blog">
    <page url="/blog/1"><title>Post one</title><summary>hello</summary></page>
  </section>
</site>)";

TEST(SiteDiffTest, NoChanges) {
  XmlDocument a = MustParse(kWeek1);
  XmlDocument b = MustParse(kWeek1);
  Result<SiteDiffResult> result = DiffSites(&a, &b);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->changes.empty());
  EXPECT_EQ(result->pages_old, 3u);
  EXPECT_EQ(result->pages_new, 3u);
  EXPECT_EQ(result->pages_unchanged(), 3u);
}

TEST(SiteDiffTest, AddedAndRemovedPages) {
  XmlDocument a = MustParse(kWeek1);
  XmlDocument b = MustParse(R"(<site>
    <section name="docs">
      <page url="/docs/a"><title>Alpha</title><summary>about alpha</summary></page>
      <page url="/docs/c"><title>Gamma</title><summary>new page</summary></page>
    </section>
    <section name="blog">
      <page url="/blog/1"><title>Post one</title><summary>hello</summary></page>
    </section>
  </site>)");
  Result<SiteDiffResult> result = DiffSites(&a, &b);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pages_added, 1u);
  EXPECT_EQ(result->pages_removed, 1u);
  EXPECT_EQ(result->pages_modified, 0u);
  ASSERT_EQ(result->changes.size(), 2u);  // Sorted by URL: /docs/b, /docs/c.
  EXPECT_EQ(result->changes[0].url, "/docs/b");
  EXPECT_EQ(result->changes[0].kind, PageChangeKind::kRemoved);
  EXPECT_EQ(result->changes[1].url, "/docs/c");
  EXPECT_EQ(result->changes[1].kind, PageChangeKind::kAdded);
}

TEST(SiteDiffTest, ModifiedPage) {
  XmlDocument a = MustParse(kWeek1);
  XmlDocument b = MustParse(R"(<site>
  <section name="docs">
    <page url="/docs/a"><title>Alpha v2</title><summary>about alpha</summary></page>
    <page url="/docs/b"><title>Beta</title><summary>about beta</summary></page>
  </section>
  <section name="blog">
    <page url="/blog/1"><title>Post one</title><summary>hello</summary></page>
  </section>
</site>)");
  Result<SiteDiffResult> result = DiffSites(&a, &b);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->changes.size(), 1u);
  EXPECT_EQ(result->changes[0].url, "/docs/a");
  EXPECT_EQ(result->changes[0].kind, PageChangeKind::kModified);
  EXPECT_EQ(result->pages_unchanged(), 2u);
}

TEST(SiteDiffTest, PageMovedBetweenSections) {
  // /blog/1 relocates into docs; URL pinning keeps its identity, the
  // summary reports a move, not remove+add.
  XmlDocument a = MustParse(kWeek1);
  XmlDocument b = MustParse(R"(<site>
  <section name="docs">
    <page url="/docs/a"><title>Alpha</title><summary>about alpha</summary></page>
    <page url="/docs/b"><title>Beta</title><summary>about beta</summary></page>
    <page url="/blog/1"><title>Post one</title><summary>hello</summary></page>
  </section>
  <section name="blog"/>
</site>)");
  Result<SiteDiffResult> result = DiffSites(&a, &b);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->changes.size(), 1u);
  EXPECT_EQ(result->changes[0].url, "/blog/1");
  EXPECT_EQ(result->changes[0].kind, PageChangeKind::kMoved);
  EXPECT_EQ(result->pages_added, 0u);
  EXPECT_EQ(result->pages_removed, 0u);
}

TEST(SiteDiffTest, UrlReuseCountsAsModified) {
  // The page at /docs/a is deleted and a brand-new page takes its URL.
  XmlDocument a = MustParse(
      R"(<site><page url="/docs/a"><title>Old</title></page></site>)");
  XmlDocument b = MustParse(
      R"(<site><other><page url="/docs/a"><body>totally new</body></page>
      </other></site>)");
  Result<SiteDiffResult> result = DiffSites(&a, &b);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->changes.size(), 1u);
  EXPECT_EQ(result->changes[0].kind, PageChangeKind::kModified);
}

TEST(SiteDiffTest, GeneratedSnapshotScale) {
  Rng rng(8);
  XmlDocument week1 = GenerateSiteSnapshot(&rng, 300);
  week1.AssignInitialXids();
  // Mutate: drop one page, retitle another.
  XmlDocument week2 = week1.Clone();
  week2.root()->RemoveChild(5);
  week2.root()->child(10)->child(0)->child(0)->set_text("retitled page");
  // Strip week2's XIDs (a fresh crawl has none).
  week2.root()->Visit([](XmlNode* n) { n->set_xid(kNoXid); });

  Result<SiteDiffResult> result = DiffSites(&week1, &week2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pages_old, 300u);
  EXPECT_EQ(result->pages_new, 299u);
  EXPECT_EQ(result->pages_removed, 1u);
  EXPECT_EQ(result->pages_modified, 1u);
  EXPECT_EQ(result->pages_added, 0u);
}

TEST(SiteDiffTest, EmptySnapshotRejected) {
  XmlDocument a;
  XmlDocument b = MustParse("<site/>");
  EXPECT_FALSE(DiffSites(&a, &b).ok());
}

}  // namespace
}  // namespace xydiff
