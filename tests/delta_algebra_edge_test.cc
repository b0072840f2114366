// Edge cases of the delta algebra (§4's completed deltas) that the
// randomized sweeps are unlikely to hit: identity elements (the empty
// delta under invert and compose), degenerate operands (a delta applied
// to a document with no root), the virtual super-root's protection
// against moves, and composition of deltas that crossed the binary
// codec — storage is where composed chains actually come from, so the
// algebra must hold on decoded deltas, not just freshly-diffed ones.

#include <string>

#include "core/buld.h"
#include "delta/apply.h"
#include "delta/codec.h"
#include "delta/compose.h"
#include "delta/delta.h"
#include "delta/invert.h"
#include "delta/validate.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "xml/serializer.h"

namespace xydiff {
namespace {

std::string WithXids(const XmlDocument& doc) {
  SerializeOptions options;
  options.emit_xids = true;
  return SerializeDocument(doc, options);
}

XmlDocument ParseWithXids(std::string_view text) {
  XmlDocument doc = MustParse(text);
  doc.AssignInitialXids();
  return doc;
}

TEST(DeltaAlgebraEdgeTest, EmptyDeltaIsTheIdentityUnderInvert) {
  const Delta empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(InvertDelta(empty).empty());
  XY_EXPECT_OK(ValidateDelta(empty));
}

TEST(DeltaAlgebraEdgeTest, EmptyDeltaAppliesAsANoOp) {
  XmlDocument doc = ParseWithXids("<a><b>x</b><c>y</c></a>");
  const std::string before = WithXids(doc);
  Delta empty;
  empty.set_old_next_xid(doc.next_xid());
  empty.set_new_next_xid(doc.next_xid());
  XY_ASSERT_OK(ApplyDelta(empty, &doc));
  EXPECT_EQ(WithXids(doc), before);
}

TEST(DeltaAlgebraEdgeTest, EmptyDeltaIsTheIdentityUnderCompose) {
  XmlDocument base = ParseWithXids("<a><b>x</b><c>y</c></a>");
  XmlDocument changed = MustParse("<a><b>z</b><c>y</c><d/></a>");
  Result<Delta> d = XyDiff(&base, &changed);
  XY_ASSERT_OK(d.status());
  ASSERT_FALSE(d->empty());

  // empty ∘ empty = empty.
  Delta empty1, empty2;
  empty1.set_old_next_xid(base.next_xid());
  empty1.set_new_next_xid(base.next_xid());
  empty2 = empty1.Clone();
  Result<Delta> ee = ComposeDeltas(base, empty1, empty2);
  XY_ASSERT_OK(ee.status());
  EXPECT_TRUE(ee->empty());

  // empty ∘ d and d ∘ empty are both apply-equivalent to d.
  Delta pre_identity;
  pre_identity.set_old_next_xid(base.next_xid());
  pre_identity.set_new_next_xid(base.next_xid());
  Result<Delta> ed = ComposeDeltas(base, pre_identity, *d);
  XY_ASSERT_OK(ed.status());
  Delta post_identity;
  post_identity.set_old_next_xid(d->new_next_xid());
  post_identity.set_new_next_xid(d->new_next_xid());
  Result<Delta> de = ComposeDeltas(base, *d, post_identity);
  XY_ASSERT_OK(de.status());
  for (const Delta* composed : {&*ed, &*de}) {
    XmlDocument work = base.Clone();
    XY_ASSERT_OK(ApplyDelta(*composed, &work));
    EXPECT_EQ(WithXids(work), WithXids(changed));
  }

  // Cancellation: d ∘ Invert(d) composes to the empty delta.
  Result<Delta> cancelled = ComposeDeltas(base, *d, InvertDelta(*d));
  XY_ASSERT_OK(cancelled.status());
  EXPECT_TRUE(cancelled->empty());
}

TEST(DeltaAlgebraEdgeTest, DeltaOntoEmptyDocumentIsRejected) {
  XmlDocument base = ParseWithXids("<a><b>x</b></a>");
  XmlDocument changed = MustParse("<a><b>y</b></a>");
  Result<Delta> d = XyDiff(&base, &changed);
  XY_ASSERT_OK(d.status());

  XmlDocument empty_doc;  // No root: nothing to address ops against.
  const Status status = ApplyDelta(*d, &empty_doc);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("empty document"), std::string::npos)
      << status.ToString();
  // The inverse direction hits the same guard — no partial application.
  EXPECT_FALSE(ApplyDeltaInverse(*d, &empty_doc).ok());
  EXPECT_EQ(empty_doc.root(), nullptr);
}

TEST(DeltaAlgebraEdgeTest, MoveOfTheVirtualRootIsRejected) {
  Delta d;
  MoveOp move;
  move.xid = kNoXid;  // XID 0 is the virtual super-root.
  move.from_parent = 1;
  move.from_pos = 1;
  move.to_parent = 1;
  move.to_pos = 2;
  d.moves().push_back(move);

  const Status status = ValidateDelta(d);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_NE(status.message().find("virtual root"), std::string::npos)
      << status.ToString();

  // The same structure with a real XID is structurally fine.
  d.moves()[0].xid = 5;
  d.set_old_next_xid(10);
  d.set_new_next_xid(10);
  XY_EXPECT_OK(ValidateDelta(d));
}

// Composition across the storage boundary: encode both deltas through
// the binary codec, decode them back, compose the *decoded* deltas, and
// the composite must still take v1 to v3 (XIDs included). This is the
// path any aggregation over a store's decoded chain deltas takes.
TEST(DeltaAlgebraEdgeTest, ComposeHoldsAcrossTheCodecBoundary) {
  XmlDocument v1 = ParseWithXids(
      "<root><item id=\"1\">alpha</item><item id=\"2\">beta</item></root>");
  XmlDocument v2 = MustParse(
      "<root><item id=\"2\">beta</item><item id=\"1\">gamma</item>"
      "<extra/></root>");
  XmlDocument v3 = MustParse(
      "<root><item id=\"1\">gamma</item><note>new</note></root>");

  Result<Delta> d1 = XyDiff(&v1, &v2);
  XY_ASSERT_OK(d1.status());
  Result<Delta> d2 = XyDiff(&v2, &v3);  // v2 now carries d1's XIDs.
  XY_ASSERT_OK(d2.status());

  Result<Delta> decoded1 = DecodeDeltaBinary(EncodeDeltaBinary(*d1));
  XY_ASSERT_OK(decoded1.status());
  Result<Delta> decoded2 = DecodeDeltaBinary(EncodeDeltaBinary(*d2));
  XY_ASSERT_OK(decoded2.status());

  Result<Delta> composed = ComposeDeltas(v1, *decoded1, *decoded2);
  XY_ASSERT_OK(composed.status());
  XY_ASSERT_OK(ValidateDelta(*composed));

  XmlDocument work = v1.Clone();
  XY_ASSERT_OK(ApplyDelta(*composed, &work));
  EXPECT_EQ(WithXids(work), WithXids(v3));

  // And the composite itself survives another codec round-trip.
  Result<Delta> recoded = DecodeDeltaBinary(EncodeDeltaBinary(*composed));
  XY_ASSERT_OK(recoded.status());
  XmlDocument work2 = v1.Clone();
  XY_ASSERT_OK(ApplyDelta(*recoded, &work2));
  EXPECT_EQ(WithXids(work2), WithXids(v3));
}

}  // namespace
}  // namespace xydiff
