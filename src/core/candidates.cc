#include "core/candidates.h"

namespace xydiff {

CandidateIndex::CandidateIndex(const DiffTree* old_tree)
    : tree_(old_tree),
      by_signature_(old_tree->size(),
                    [old_tree](NodeIndex i, uint64_t* key) {
                      *key = old_tree->signature(i);
                      return true;
                    }),
      by_parent_(old_tree->size(), [old_tree](NodeIndex i, uint64_t* key) {
        const NodeIndex p = old_tree->parent(i);
        if (p == kInvalidNode) return false;
        *key = ParentKey(old_tree->signature(i), p);
        return true;
      }) {}

NodeIndex CandidateIndex::FindUnmatchedWithParent(
    Signature sig, NodeIndex parent, int32_t preferred_position) const {
  const Run* run = by_parent_.Find(ParentKey(sig, parent));
  if (run == nullptr) return kInvalidNode;
  NodeIndex first = kInvalidNode;
  for (NodeIndex c : *run) {
    // Guard against (unlikely) 64-bit key collisions and skip matched or
    // locked candidates.
    if (tree_->signature(c) != sig || tree_->parent(c) != parent ||
        tree_->matched(c) || tree_->id_locked(c)) {
      continue;
    }
    if (preferred_position < 0 ||
        tree_->position_in_parent(c) == preferred_position) {
      return c;
    }
    if (first == kInvalidNode) first = c;
  }
  return first;
}

uint64_t CandidateIndex::ParentKey(Signature sig, NodeIndex parent) {
  return HashFinalize(
      HashCombine(sig, static_cast<Signature>(parent) + 0x9E3779B9u));
}

}  // namespace xydiff
