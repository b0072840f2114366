#include "core/candidates.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "delta/signature.h"
#include "gtest/gtest.h"
#include "simulator/doc_generator.h"
#include "tests/test_util.h"
#include "util/random.h"

// Every non-aligned global allocation in this binary goes through these
// replacements, so a test can count the allocations one call makes. Both
// sides use malloc/free, which keeps the pairs consistent under ASan;
// the free sits out of line so the compiler does not pair it with the
// built-in operator new.
namespace {
std::atomic<size_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

[[gnu::noinline]] void Release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}

namespace xydiff {
namespace {

struct Fixture {
  XmlDocument doc;
  LabelTable labels;
  DiffTree tree;

  explicit Fixture(std::string_view xml) { Index(MustParse(xml)); }
  explicit Fixture(XmlDocument d) { Index(std::move(d)); }

  void Index(XmlDocument d) {
    doc = std::move(d);
    tree = DiffTree::Build(&doc, &labels);
    DiffOptions options;
    ComputeSignaturesAndWeights(&tree, options);
  }
};

std::vector<NodeIndex> Nodes(const CandidateIndex::Run* run) {
  if (run == nullptr) return {};
  return std::vector<NodeIndex>(run->begin(), run->end());
}

TEST(CandidateIndexTest, FindBySignature) {
  // Three identical <p>x</p> subtrees: nodes 1,3,5 (texts 2,4,6).
  Fixture f("<r><p>x</p><p>x</p><p>x</p></r>");
  CandidateIndex index(&f.tree);
  const CandidateIndex::Run* hits = index.Find(f.tree.signature(1));
  ASSERT_NE(hits, nullptr);
  const NodeIndex expected[] = {1, 3, 5};
  EXPECT_TRUE(std::equal(hits->begin(), hits->end(), std::begin(expected),
                         std::end(expected)));
  EXPECT_EQ(index.Find(0xDEADBEEF), nullptr);
}

TEST(CandidateIndexTest, FindUnmatchedWithParent) {
  Fixture f("<r><a><p>x</p></a><b><p>x</p></b></r>");
  // Nodes: r=0 a=1 p=2 x=3 b=4 p=5 x=6.
  CandidateIndex index(&f.tree);
  const Signature sig = f.tree.signature(2);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 1), 2);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 4), 5);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 0), kInvalidNode);
}

TEST(CandidateIndexTest, SkipsMatchedCandidates) {
  Fixture f("<r><p>x</p><p>x</p></r>");
  CandidateIndex index(&f.tree);
  const Signature sig = f.tree.signature(1);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 0), 1);
  f.tree.set_match(1, 99);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 0), 3);
  f.tree.set_match(3, 98);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 0), kInvalidNode);
}

TEST(CandidateIndexTest, SkipsIdLockedCandidates) {
  Fixture f("<r><p>x</p></r>");
  CandidateIndex index(&f.tree);
  const Signature sig = f.tree.signature(1);
  f.tree.set_id_locked(1);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 0), kInvalidNode);
}

TEST(CandidateIndexTest, PrefersSamePosition) {
  // Identical siblings at positions 0,1,2; a reference node at position
  // 2 should get the position-2 candidate (§5.1: position plays a role).
  Fixture f("<r><p>x</p><p>x</p><p>x</p></r>");
  CandidateIndex index(&f.tree);
  const Signature sig = f.tree.signature(1);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 0, 2), 5);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 0, 1), 3);
  // Preferred position occupied -> fall back to first free.
  f.tree.set_match(5, 99);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 0, 2), 1);
  // No preference -> first free.
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 0), 1);
}

TEST(CandidateIndexTest, RootHasNoParentEntry) {
  Fixture f("<r><p>x</p></r>");
  CandidateIndex index(&f.tree);
  // The root's signature exists in the primary index...
  ASSERT_NE(index.Find(f.tree.signature(0)), nullptr);
  // ...but no by-parent entry can reach it.
  EXPECT_EQ(index.FindUnmatchedWithParent(f.tree.signature(0), 0),
            kInvalidNode);
}

TEST(CandidateIndexTest, RootOnlyTreeHasNoParentEntries) {
  Fixture f("<r/>");
  ASSERT_EQ(f.tree.size(), 1);
  CandidateIndex index(&f.tree);
  EXPECT_EQ(Nodes(index.Find(f.tree.signature(0))),
            (std::vector<NodeIndex>{0}));
  EXPECT_EQ(index.FindUnmatchedWithParent(f.tree.signature(0), 0),
            kInvalidNode);
  EXPECT_EQ(index.FindUnmatchedWithParent(f.tree.signature(0), kInvalidNode),
            kInvalidNode);
}

// Every run holds exactly the nodes with its key, in document order, on a
// document full of duplicate sibling runs and repeated texts.
TEST(CandidateIndexTest, RunsKeepDocumentOrder) {
  Rng rng(17);
  DocGenOptions gen;
  gen.target_bytes = 16 * 1024;
  gen.duplicate_sibling_probability = 0.4;
  gen.min_text_words = 1;
  gen.max_text_words = 1;
  Fixture f(GenerateDocument(&rng, gen));
  CandidateIndex index(&f.tree);
  size_t shared = 0;
  for (NodeIndex i = 0; i < f.tree.size(); ++i) {
    const Signature sig = f.tree.signature(i);
    std::vector<NodeIndex> same_signature;
    NodeIndex first_sibling = kInvalidNode;
    for (NodeIndex j = 0; j < f.tree.size(); ++j) {
      if (f.tree.signature(j) != sig) continue;
      same_signature.push_back(j);
      if (first_sibling == kInvalidNode && j != 0 &&
          f.tree.parent(j) == f.tree.parent(i)) {
        first_sibling = j;
      }
    }
    if (same_signature.size() > 1) ++shared;
    ASSERT_EQ(Nodes(index.Find(sig)), same_signature) << "node " << i;
    if (i != 0) {
      EXPECT_EQ(index.FindUnmatchedWithParent(sig, f.tree.parent(i)),
                first_sibling)
          << "node " << i;
    }
  }
  EXPECT_GT(shared, 100u);  // The document really repeats subtrees.
}

// The multiplicative inverse of an odd 64-bit constant (Newton's method
// doubles the correct low bits per step).
uint64_t InverseOf(uint64_t odd) {
  uint64_t x = odd;
  for (int i = 0; i < 6; ++i) x *= 2 - odd * x;
  return x;
}

// Keys k with k * kHashMultiplier = m select their slot by the top bits
// of m, so m = 0, 1, 2, ... all start probing at the first slot and
// m = 2^64 - 1, - 2, ... at the last one, whatever the table size. The two
// clusters meet and wrap around the end of the table.
TEST(CsrMultimapTest, ManyKeysCollidingInOneProbeSequence) {
  const uint64_t inverse = InverseOf(CsrMultimap::kHashMultiplier);
  ASSERT_EQ(inverse * CsrMultimap::kHashMultiplier, 1u);
  constexpr NodeIndex kKeys = 64;
  std::vector<uint64_t> keys;
  for (NodeIndex j = 0; j < kKeys / 2; ++j) {
    keys.push_back(static_cast<uint64_t>(j) * inverse);
    keys.push_back((UINT64_MAX - static_cast<uint64_t>(j)) * inverse);
  }
  // Node i carries keys[i % kKeys]: every key owns three nodes.
  const CsrMultimap map(3 * kKeys, [&keys](NodeIndex i, uint64_t* key) {
    *key = keys[static_cast<size_t>(i % kKeys)];
    return true;
  });
  for (NodeIndex k = 0; k < kKeys; ++k) {
    const CsrMultimap::Run* run = map.Find(keys[static_cast<size_t>(k)]);
    ASSERT_NE(run, nullptr) << "key " << k;
    EXPECT_EQ(std::vector<NodeIndex>(run->begin(), run->end()),
              (std::vector<NodeIndex>{k, k + kKeys, k + 2 * kKeys}));
  }
  // Absent keys on the same probe sequences walk the whole cluster.
  EXPECT_EQ(map.Find(static_cast<uint64_t>(kKeys) * inverse), nullptr);
  EXPECT_EQ(map.Find((UINT64_MAX - kKeys) * inverse), nullptr);
}

TEST(CsrMultimapTest, ZeroIsAKeyLikeAnyOther) {
  // Even nodes carry key 0, odd nodes key 7; node 5 is left out.
  const CsrMultimap map(8, [](NodeIndex i, uint64_t* key) {
    *key = i % 2 == 0 ? 0 : 7;
    return i != 5;
  });
  const CsrMultimap::Run* zero = map.Find(0);
  ASSERT_NE(zero, nullptr);
  EXPECT_EQ(std::vector<NodeIndex>(zero->begin(), zero->end()),
            (std::vector<NodeIndex>{0, 2, 4, 6}));
  const CsrMultimap::Run* seven = map.Find(7);
  ASSERT_NE(seven, nullptr);
  EXPECT_EQ(std::vector<NodeIndex>(seven->begin(), seven->end()),
            (std::vector<NodeIndex>{1, 3, 7}));

  // An empty slot never answers for key 0.
  const CsrMultimap no_zero(4, [](NodeIndex, uint64_t* key) {
    *key = 7;
    return true;
  });
  EXPECT_EQ(no_zero.Find(0), nullptr);
  const CsrMultimap nothing(4, [](NodeIndex, uint64_t*) { return false; });
  EXPECT_EQ(nothing.Find(0), nullptr);
}

// "Allocations per node stay flat": building the index costs the same
// number of allocations for a 1k-node and a 64k-node tree.
size_t AllocationsToIndex(int items) {
  std::string xml = "<r>";
  for (int i = 0; i < items; ++i) {
    xml += "<p>t" + std::to_string(i % 97) + "</p>";
  }
  xml += "</r>";
  Fixture f(xml);
  EXPECT_EQ(f.tree.size(), 2 * items + 1);
  const size_t before = g_allocations.load();
  const CandidateIndex index(&f.tree);
  const size_t after = g_allocations.load();
  EXPECT_NE(index.Find(f.tree.signature(1)), nullptr);
  return after - before;
}

TEST(CandidateIndexTest, AllocationCountIsIndependentOfTreeSize) {
  const size_t small = AllocationsToIndex(500);
  const size_t large = AllocationsToIndex(32 * 1024);
  EXPECT_GT(small, 0u);  // The counter sees the index's allocations.
  EXPECT_EQ(small, large);
}

}  // namespace
}  // namespace xydiff
