#include "delta/codec.h"

#include <string>
#include <string_view>

#include "core/buld.h"
#include "delta/delta_xml.h"
#include "gtest/gtest.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace xydiff {
namespace {

// The codec's correctness contract: byte-identity of the XML
// serialization across an encode/decode round trip.
std::string RoundTripXml(const Delta& delta) {
  const std::string encoded = EncodeDeltaBinary(delta);
  Result<Delta> decoded = DecodeDeltaBinary(encoded);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  if (!decoded.ok()) return {};
  return SerializeDelta(*decoded);
}

TEST(CodecTest, EmptyDeltaRoundTrips) {
  Delta delta;
  EXPECT_EQ(RoundTripXml(delta), SerializeDelta(delta));
}

TEST(CodecTest, SimulatedPairsRoundTripByteIdentically) {
  size_t total_binary = 0, total_xml = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    DocGenOptions gen;
    gen.target_bytes = 4096;
    XmlDocument old_doc = GenerateDocument(&rng, gen);
    old_doc.AssignInitialXids();
    Result<SimulatedChange> change =
        SimulateChanges(old_doc, ChangeSimOptions{}, &rng);
    ASSERT_TRUE(change.ok()) << change.status().ToString();
    Result<Delta> delta = XyDiff(&old_doc, &change->new_version);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();

    const std::string xml = SerializeDelta(*delta);
    const std::string binary = EncodeDeltaBinary(*delta);
    EXPECT_EQ(RoundTripXml(*delta), xml) << "seed " << seed;
    total_binary += binary.size();
    total_xml += xml.size();
  }
  // The compact codec must beat the XML serialization it replaces.
  EXPECT_LT(total_binary, total_xml);
}

/// A delta exercising every operation kind, every attribute-op kind,
/// the §7 compressed update form, and snapshots with interned labels,
/// attributes, and text leaves.
Delta MakeAllOpKindsDelta() {
  Delta delta;
  delta.set_old_next_xid(50);
  delta.set_new_next_xid(60);
  Arena* arena = delta.snapshot_arena();

  DeleteOp del;
  del.xid = 7;
  del.parent_xid = 1;
  del.pos = 2;
  del.subtree = XmlNode::ElementIn(arena, "item");
  del.subtree->set_xid(7);
  del.subtree->SetAttribute("id", "a-1");
  XmlNodePtr del_text = XmlNode::TextIn(arena, "bye");
  del_text->set_xid(8);
  del.subtree->AppendChild(std::move(del_text));
  delta.deletes().push_back(std::move(del));

  InsertOp ins;
  ins.xid = 51;
  ins.parent_xid = 1;
  ins.pos = 3;
  ins.subtree = XmlNode::ElementIn(arena, "item");  // Interned with del's.
  ins.subtree->set_xid(51);
  ins.subtree->SetAttribute("id", "a-2");
  XmlNodePtr ins_child = XmlNode::ElementIn(arena, "name");
  ins_child->set_xid(52);
  XmlNodePtr ins_text = XmlNode::TextIn(arena, "gamma");
  ins_text->set_xid(53);
  ins_child->AppendChild(std::move(ins_text));
  ins.subtree->AppendChild(std::move(ins_child));
  delta.inserts().push_back(std::move(ins));

  MoveOp move;
  move.xid = 9;
  move.from_parent = 1;
  move.from_pos = 4;
  move.to_parent = 51;
  move.to_pos = 1;
  delta.moves().push_back(move);

  UpdateOp update;  // Compressed: "hello world" -> "hello brave world".
  update.xid = 11;
  update.prefix = 6;
  update.suffix = 5;
  update.old_value = "";
  update.new_value = "brave ";
  delta.updates().push_back(std::move(update));

  AttributeOp attr_insert;
  attr_insert.kind = AttributeOpKind::kInsert;
  attr_insert.element_xid = 2;
  attr_insert.name = "lang";
  attr_insert.new_value = "en";
  delta.attribute_ops().push_back(std::move(attr_insert));

  AttributeOp attr_delete;
  attr_delete.kind = AttributeOpKind::kDelete;
  attr_delete.element_xid = 3;
  attr_delete.name = "stale";
  attr_delete.old_value = "yes";
  delta.attribute_ops().push_back(std::move(attr_delete));

  AttributeOp attr_update;
  attr_update.kind = AttributeOpKind::kUpdate;
  attr_update.element_xid = 4;
  attr_update.name = "id";  // Interned with the snapshot attributes.
  attr_update.old_value = "a-3";
  attr_update.new_value = "a-4";
  delta.attribute_ops().push_back(std::move(attr_update));
  return delta;
}

TEST(CodecTest, AllOpKindsRoundTripByteIdentically) {
  const Delta delta = MakeAllOpKindsDelta();
  EXPECT_EQ(RoundTripXml(delta), SerializeDelta(delta));
}

// --- adversarial decode ------------------------------------------------
// Hostile bytes must come back as Status (kCorruption), never UB; run
// under ASan/UBSan these tests double as memory-safety proofs.

void ExpectCorrupt(const std::string& bytes, const char* what) {
  Result<Delta> decoded = DecodeDeltaBinary(bytes);
  ASSERT_FALSE(decoded.ok()) << what;
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption) << what;
}

TEST(CodecTest, DecodeRejectsInputWithoutTheMagic) {
  EXPECT_TRUE(DecodeDeltaBinary(EncodeDeltaBinary(Delta{})).ok());
  ExpectCorrupt("<xy:delta/>", "an XML delta");
  ExpectCorrupt("", "no bytes");
  ExpectCorrupt("XYD", "a magic prefix");
}

TEST(CodecTest, EveryTruncationIsRejected) {
  const std::string encoded = EncodeDeltaBinary(MakeAllOpKindsDelta());
  for (size_t len = 0; len < encoded.size(); ++len) {
    ExpectCorrupt(encoded.substr(0, len), "truncated prefix");
  }
}

TEST(CodecTest, MutatedBytesNeverCrash) {
  const std::string encoded = EncodeDeltaBinary(MakeAllOpKindsDelta());
  for (size_t i = 0; i < encoded.size(); ++i) {
    for (const char flip : {char(0x01), char(0x80), char(0xff)}) {
      std::string mutated = encoded;
      mutated[i] = static_cast<char>(mutated[i] ^ flip);
      // Any outcome is fine — decoded garbage or a Status — as long as
      // the decoder neither crashes nor reads out of bounds.
      // Justified discard: only the absence of UB is under test.
      (void)DecodeDeltaBinary(mutated);
    }
  }
}

// Wire-format building blocks for hand-crafted hostile buffers.
std::string V(uint64_t value) {
  std::string out;
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
  return out;
}

std::string Hdr() { return std::string("XYDB") + '\x01'; }

TEST(CodecTest, BadMagicRejected) {
  ExpectCorrupt("ABCD\x01", "wrong magic");
  ExpectCorrupt("", "empty input");
}

TEST(CodecTest, UnsupportedVersionRejected) {
  ExpectCorrupt(std::string("XYDB") + '\x02' + V(1) + V(1) + V(0) + V(0) +
                    V(0) + V(0) + V(0) + V(0),
                "future format version");
}

TEST(CodecTest, OverlongVarintRejected) {
  // 0x80 0x00 encodes 0 in two bytes — non-canonical padding.
  ExpectCorrupt(Hdr() + '\x80' + '\x00', "overlong varint");
}

TEST(CodecTest, OverflowingVarintRejected) {
  // Ten groups whose final one pushes past 64 bits.
  ExpectCorrupt(Hdr() + std::string(9, '\xff') + '\x7f', "65-bit varint");
}

TEST(CodecTest, EndlessVarintRejected) {
  ExpectCorrupt(Hdr() + std::string(10, '\x80'), "unterminated varint");
}

TEST(CodecTest, HostileCountRejectedBeforeAllocation) {
  // A dictionary claiming ~1 trillion entries in a 10-byte buffer must
  // fail the count-vs-remaining check, not attempt the allocation.
  ExpectCorrupt(Hdr() + V(1) + V(1) + V(uint64_t{1} << 40), "huge count");
}

TEST(CodecTest, TrailingBytesRejected) {
  ExpectCorrupt(EncodeDeltaBinary(Delta{}) + '\x00', "trailing byte");
}

TEST(CodecTest, DictionaryIdOutOfRangeRejected) {
  // Empty dictionary, one attribute op naming dictionary entry 9.
  ExpectCorrupt(Hdr() + V(1) + V(1) + V(0) + V(0) + V(0) + V(0) + V(0) +
                    V(1) + '\x00' + V(1) + V(9),
                "dict id out of range");
}

TEST(CodecTest, BadSnapshotKindRejected) {
  // One delete op whose snapshot root claims node kind 7.
  ExpectCorrupt(Hdr() + V(1) + V(1) + V(0) + V(1) + V(1) + V(0) + V(1) +
                    '\x01' + '\x07',
                "unknown snapshot node kind");
}

TEST(CodecTest, BadSnapshotFlagRejected) {
  ExpectCorrupt(Hdr() + V(1) + V(1) + V(0) + V(1) + V(1) + V(0) + V(1) +
                    '\x02',
                "snapshot flag neither 0 nor 1");
}

TEST(CodecTest, BadAttributeKindRejected) {
  ExpectCorrupt(Hdr() + V(1) + V(1) + V(0) + V(0) + V(0) + V(0) + V(0) +
                    V(1) + '\x03' + V(1) + V(0),
                "attribute op kind 3");
}

TEST(CodecTest, PositionBeyondUint32Rejected) {
  // Insert op with pos = 2^32: the wire varint fits, uint32_t does not.
  ExpectCorrupt(Hdr() + V(1) + V(1) + V(0) + V(0) + V(1) + V(1) + V(0) +
                    V(uint64_t{1} << 32),
                "pos overflows uint32");
}

TEST(CodecTest, RunawayNestingRejected) {
  // 10100 nested single-child elements: deeper than any snapshot the
  // parser can produce, so the decoder's depth cap must fire instead of
  // exhausting the stack.
  std::string bytes = Hdr() + V(1) + V(1);
  bytes += V(1) + V(1) + "e";          // Dictionary: one label.
  bytes += V(1);                       // One delete op...
  bytes += V(1) + V(0) + V(1) + '\x01';  // ...with a subtree.
  for (int depth = 0; depth < 10100; ++depth) {
    bytes += '\x00';        // Element...
    bytes += V(0) + V(1);   // ...label id 0, xid 1...
    bytes += V(0) + V(1);   // ...no attributes, one child.
  }
  ExpectCorrupt(bytes, "runaway nesting");
}

}  // namespace
}  // namespace xydiff
