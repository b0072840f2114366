#ifndef XYDIFF_CORE_CANDIDATES_H_
#define XYDIFF_CORE_CANDIDATES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "delta/diff_tree.h"

namespace xydiff {

/// A hashed CSR (compressed sparse row) multimap from 64-bit keys to runs
/// of node indices, built by counting sort: an open-addressing table maps
/// each key to a run id, and every run is a slice of one flat array, in
/// increasing node order. The build is O(n) and makes a constant number of
/// allocations whatever n is.
class CsrMultimap {
 public:
  /// The nodes under one key, in increasing order.
  struct Run {
    const NodeIndex* first = nullptr;
    const NodeIndex* last = nullptr;
    const NodeIndex* begin() const { return first; }
    const NodeIndex* end() const { return last; }
  };

  /// Slots are chosen by the top bits of key * kHashMultiplier
  /// (Fibonacci hashing), probed linearly.
  static constexpr uint64_t kHashMultiplier = UINT64_C(0x9E3779B97F4A7C15);

  /// Indexes the nodes `i` of [0, n) for which `key_of(i, &key)` returns
  /// true, grouped by key.
  template <typename KeyOf>
  CsrMultimap(NodeIndex n, KeyOf key_of);

  // Runs point into this object's own arrays.
  CsrMultimap(const CsrMultimap&) = delete;
  CsrMultimap& operator=(const CsrMultimap&) = delete;

  /// The run of `key`, or nullptr when no node has it.
  const Run* Find(uint64_t key) const {
    for (size_t s = Home(key);; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.run == kEmpty) return nullptr;
      if (slot.key == key) return &runs_[slot.run];
    }
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Slot {
    uint64_t key = 0;
    uint32_t run = kEmpty;
  };

  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * kHashMultiplier) >> shift_);
  }

  int shift_ = 63;
  size_t mask_ = 1;
  std::vector<Slot> slots_;  ///< A power of two, at most half full.
  std::vector<Run> runs_;
  std::vector<NodeIndex> nodes_;
};

/// Phase 3 candidate lookup (§5.2/§5.3): for a subtree of the new document
/// we need all old-document subtrees with the same signature (primary
/// index), and — to keep the per-node cost bounded when a short text
/// occurs thousands of times — the candidate under a *given* parent in
/// O(1) (secondary index "by their parent's identifier", §5.3). Both are
/// CsrMultimaps.
class CandidateIndex {
 public:
  using Run = CsrMultimap::Run;

  /// Indexes every subtree of `old_tree`. O(n) time and space, and a
  /// constant number of allocations.
  explicit CandidateIndex(const DiffTree* old_tree);

  /// All old-tree subtrees with signature `sig`, in document order
  /// (matched ones included; callers filter). Returns nullptr when none
  /// exist.
  const Run* Find(Signature sig) const { return by_signature_.Find(sig); }

  /// An *unmatched* old-tree subtree with signature `sig` whose parent is
  /// `parent`, or kInvalidNode. Among several such siblings, one at child
  /// position `preferred_position` wins ("the position among siblings
  /// plays an important role too", §5.1); otherwise the first in document
  /// order. Constant expected time (sibling candidate lists are scanned,
  /// but identical siblings under one parent are rare and capped upstream).
  NodeIndex FindUnmatchedWithParent(Signature sig, NodeIndex parent,
                                    int32_t preferred_position = -1) const;

 private:
  static uint64_t ParentKey(Signature sig, NodeIndex parent);

  const DiffTree* tree_;
  CsrMultimap by_signature_;
  CsrMultimap by_parent_;
};

template <typename KeyOf>
CsrMultimap::CsrMultimap(NodeIndex n, KeyOf key_of) {
  // At most n keys at load factor <= 1/2, so every probe sequence ends
  // at an empty slot.
  const size_t count = static_cast<size_t>(n);
  size_t capacity = 2;
  int bits = 1;
  while (capacity < 2 * count) {
    capacity <<= 1;
    ++bits;
  }
  shift_ = 64 - bits;
  mask_ = capacity - 1;
  slots_.assign(capacity, Slot{});

  // Counting pass: a run id per distinct key, in order of first
  // occurrence, and the size of every run. The scratch holds a run id per
  // node, then a size (later a write cursor) per run.
  std::vector<uint32_t> scratch(2 * count);
  uint32_t* run_of = scratch.data();
  uint32_t* cursor = run_of + count;
  uint32_t runs = 0;
  size_t entries = 0;
  for (NodeIndex i = 0; i < n; ++i) {
    uint64_t key = 0;
    if (!key_of(i, &key)) {
      run_of[i] = kEmpty;
      continue;
    }
    size_t s = Home(key);
    while (slots_[s].run != kEmpty && slots_[s].key != key) {
      s = (s + 1) & mask_;
    }
    if (slots_[s].run == kEmpty) {
      slots_[s] = Slot{key, runs};
      cursor[runs++] = 0;
    }
    run_of[i] = slots_[s].run;
    ++cursor[run_of[i]];
    ++entries;
  }

  // Prefix sum: cursor[r] becomes the offset where run r starts.
  runs_.assign(runs, Run{});
  nodes_.assign(entries, kInvalidNode);
  uint32_t start = 0;
  for (uint32_t r = 0; r < runs; ++r) {
    const uint32_t size = cursor[r];
    cursor[r] = start;
    runs_[r].first = nodes_.data() + start;
    start += size;
  }

  // Scatter pass in node order, so each run stays in node order.
  for (NodeIndex i = 0; i < n; ++i) {
    if (run_of[i] != kEmpty) nodes_[cursor[run_of[i]]++] = i;
  }
  for (uint32_t r = 0; r < runs; ++r) {
    runs_[r].last = nodes_.data() + cursor[r];
  }
}

}  // namespace xydiff

#endif  // XYDIFF_CORE_CANDIDATES_H_
