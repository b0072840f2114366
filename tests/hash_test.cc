#include "util/hash.h"

#include <set>
#include <string>
#include <string_view>

#include "gtest/gtest.h"
#include "util/random.h"

namespace xydiff {
namespace {

TEST(HashTest, Deterministic) {
  EXPECT_EQ(HashBytes("hello"), HashBytes("hello"));
  EXPECT_EQ(HashBytes(""), HashBytes(""));
}

TEST(HashTest, SeedChangesValue) {
  EXPECT_NE(HashBytes("hello", 0), HashBytes("hello", 1));
}

TEST(HashTest, DifferentInputsDiffer) {
  EXPECT_NE(HashBytes("hello"), HashBytes("hellp"));
  EXPECT_NE(HashBytes("a"), HashBytes("aa"));
  EXPECT_NE(HashBytes(""), HashBytes("\0", 1));
}

TEST(HashTest, AllLengthBranches) {
  // Exercise the <4, <8, <32 and >=32 byte code paths.
  std::set<Signature> seen;
  std::string s;
  for (int len = 0; len <= 100; ++len) {
    EXPECT_TRUE(seen.insert(HashBytes(s)).second) << "collision at " << len;
    s += static_cast<char>('a' + len % 26);
  }
}

TEST(HashTest, CombineIsOrderSensitive) {
  const Signature a = HashBytes("a");
  const Signature b = HashBytes("b");
  EXPECT_NE(HashCombine(HashCombine(0, a), b),
            HashCombine(HashCombine(0, b), a));
}

TEST(HashTest, CombineStringOverload) {
  EXPECT_EQ(HashCombine(1, "xyz"), HashCombine(1, HashBytes("xyz")));
}

TEST(HashTest, FinalizeAvalanches) {
  // Neighbouring accumulators land far apart after finalization.
  const Signature f1 = HashFinalize(1);
  const Signature f2 = HashFinalize(2);
  EXPECT_NE(f1, f2);
  int differing_bits = __builtin_popcountll(f1 ^ f2);
  EXPECT_GT(differing_bits, 10);
}

TEST(HashTest, NoCollisionsOnRandomCorpus) {
  Rng rng(99);
  std::set<Signature> seen;
  std::set<std::string> inputs;
  for (int i = 0; i < 20000; ++i) {
    std::string word = rng.NextWord(1, 20);
    if (!inputs.insert(word).second) continue;
    EXPECT_TRUE(seen.insert(HashBytes(word)).second)
        << "collision for " << word;
  }
}

TEST(HashTest, ChainedCombineDistinguishesSequences) {
  // Simulates sibling lists: (x)(yz) vs (xy)(z) must differ.
  const Signature x = HashBytes("x");
  const Signature y = HashBytes("y");
  const Signature z = HashBytes("z");
  const Signature xy = HashBytes("xy");
  const Signature yz = HashBytes("yz");
  EXPECT_NE(HashCombine(HashCombine(0, x), yz),
            HashCombine(HashCombine(0, xy), z));
  (void)y;  // Kept for symmetry with x/z; not needed by the assertions.
}

/// Bytewise CRC-64/XZ straight from the polynomial: the reference the
/// table-driven Crc64 must match.
uint64_t ReferenceCrc64(std::string_view data, uint64_t crc) {
  constexpr uint64_t kPoly = 0xC96C5795D7870F42ULL;
  crc = ~crc;
  for (char c : data) {
    crc ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
  }
  return ~crc;
}

TEST(HashTest, Crc64MatchesTheXzCheckValue) {
  EXPECT_EQ(Crc64("123456789"), 0x995DC9BBDF1939FAULL);
  EXPECT_EQ(Crc64(""), 0u);
}

TEST(HashTest, Crc64MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  Rng rng(64);
  std::string buffer;
  for (int i = 0; i < 64 + 8; ++i) {
    buffer += static_cast<char>(rng.NextBelow(256));
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      const std::string_view data(buffer.data() + offset, length);
      EXPECT_EQ(Crc64(data), ReferenceCrc64(data, 0))
          << "offset " << offset << " length " << length;
      // Chained: a checksum extended over a second piece equals the
      // checksum of the whole.
      const size_t cut = length / 3;
      EXPECT_EQ(Crc64(data.substr(cut), Crc64(data.substr(0, cut))),
                ReferenceCrc64(data, 0));
      EXPECT_EQ(Crc64(data, 0x0123456789ABCDEFULL),
                ReferenceCrc64(data, 0x0123456789ABCDEFULL));
    }
  }
}

}  // namespace
}  // namespace xydiff
