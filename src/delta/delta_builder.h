#ifndef XYDIFF_DELTA_DELTA_BUILDER_H_
#define XYDIFF_DELTA_DELTA_BUILDER_H_

#include "delta/diff_tree.h"
#include "delta/options.h"
#include "delta/delta.h"
#include "delta/node_index.h"
#include "xml/document.h"

namespace xydiff {

/// Configuration for Phase 5 beyond the DiffOptions knobs.
struct DeltaBuildConfig {
  /// When true (the diff pipeline), matched nodes of the new document
  /// inherit the XID of their old partner and unmatched nodes receive
  /// fresh XIDs from the allocator, which is seeded past every XID of the
  /// old document. When false (delta composition), the new document's
  /// existing XIDs are respected untouched.
  bool assign_new_xids = true;
};

/// Phase 5 (§5.2): constructs the delta implied by the matching recorded
/// in the two trees.
///
/// * Unmatched old-document subtrees become `delete` operations (maximal
///   subtrees; matched descendants — which leave by `move` — are excised
///   from the snapshot, because moves are applied before deletes).
/// * Unmatched new-document subtrees become `insert` operations
///   symmetrically (moves into them are applied after the insert).
/// * Matched pairs whose parents do not correspond become `move`s; within
///   one parent, the complement of a maximum-weight order-preserving
///   subsequence of the common children becomes reordering `move`s.
/// * Matched text pairs with different content become `update`s; attribute
///   differences of matched elements become attribute operations.
///
/// Position fields are 1-based: source-document positions on deletes and
/// move origins, target-document positions on inserts and move
/// destinations. Together with the guarantee that non-moved children keep
/// their relative order, this makes the delta applicable in either
/// direction (apply.h, invert.h).
///
/// With `DiffOptions::detect_moves == false`, every would-be move is
/// first demoted to unmatched (cascading to descendants), producing a
/// delete+insert-only delta.
///
/// When `nodes` is non-null it receives the nodes the delta's operations
/// name (delta/node_index.h), taken from the trees as each operation is
/// emitted, so the delta's consumers need no walk of either document.
Delta BuildDeltaFromMatching(DiffTree* old_tree, DiffTree* new_tree,
                             XmlDocument* old_doc, XmlDocument* new_doc,
                             const DiffOptions& options,
                             const DeltaBuildConfig& config = {},
                             DeltaNodeIndex* nodes = nullptr);

}  // namespace xydiff

#endif  // XYDIFF_DELTA_DELTA_BUILDER_H_
