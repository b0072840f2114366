#ifndef XYDIFF_DELTA_DIFF_TREE_H_
#define XYDIFF_DELTA_DIFF_TREE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/annotations.h"
#include "util/hash.h"
#include "xml/document.h"
#include "xml/node.h"

namespace xydiff {

/// Index of a node within a DiffTree; kInvalidNode means "none".
using NodeIndex = int32_t;
inline constexpr NodeIndex kInvalidNode = -1;

/// Interns element labels so that both documents of a diff share integer
/// label ids; label comparison during matching is an integer compare.
class LabelTable {
 public:
  /// Returns the id for `label`, creating one if needed.
  int32_t Intern(std::string_view label);
  /// Returns the id for `label` or -1 if never interned.
  int32_t Find(std::string_view label) const;
  const std::string& Name(int32_t id) const { return names_[static_cast<size_t>(id)]; }
  size_t size() const { return names_.size(); }

  /// Label id used for text nodes (distinct from every element label).
  static constexpr int32_t kTextLabel = -2;

 private:
  // Keys are views into `names_`; the deque keeps stored strings at
  // stable addresses as the table grows, so no per-lookup copy is made.
  std::unordered_map<std::string_view, int32_t> ids_;
  std::deque<std::string> names_;
};

/// Flat, cache-friendly view of one document used by the BULD algorithm.
///
/// Nodes are numbered in document (preorder) order; the root is node 0.
/// Children are stored contiguously (CSR layout), so traversals are index
/// loops over dense arrays instead of pointer chasing — signatures,
/// weights and match links live in parallel arrays. Each entry keeps a
/// pointer back to its DOM node for label/text/attribute access and for
/// XID read-back; the DOM must outlive the DiffTree.
class DiffTree {
 public:
  /// Builds the flat view over `doc` (which must have a root). `labels`
  /// must be shared between the two trees of one diff.
  static DiffTree Build(XmlDocument* doc, LabelTable* labels);

  NodeIndex size() const { return static_cast<NodeIndex>(dom_.size()); }

  // --- Structure -------------------------------------------------------------

  NodeIndex parent(NodeIndex i) const { return parent_[static_cast<size_t>(i)]; }
  int32_t child_count(NodeIndex i) const {
    return child_offset_[static_cast<size_t>(i) + 1] - child_offset_[static_cast<size_t>(i)];
  }
  NodeIndex child(NodeIndex i, int32_t k) const {
    return child_list_[static_cast<size_t>(child_offset_[static_cast<size_t>(i)] + k)];
  }
  /// 0-based position of `i` among its parent's children.
  int32_t position_in_parent(NodeIndex i) const {
    return position_[static_cast<size_t>(i)];
  }
  /// Depth of node (root = 0).
  int32_t depth(NodeIndex i) const { return depth_[static_cast<size_t>(i)]; }

  /// Node indices in postorder (children before parents).
  const std::vector<NodeIndex>& postorder() const { return postorder_; }

  // --- Content ---------------------------------------------------------------

  bool is_element(NodeIndex i) const {
    return label_[static_cast<size_t>(i)] != LabelTable::kTextLabel;
  }
  bool is_text(NodeIndex i) const { return !is_element(i); }
  /// Interned label id; LabelTable::kTextLabel for text nodes.
  int32_t label(NodeIndex i) const { return label_[static_cast<size_t>(i)]; }
  XmlNode* dom(NodeIndex i) const XY_ARENA_BOUND("source document") { return dom_[static_cast<size_t>(i)]; }

  /// The shared label table this tree was built against.
  const LabelTable& labels() const { return *labels_; }

  // --- Diff state (filled by the algorithm phases) -----------------------------

  Signature signature(NodeIndex i) const { return signature_[static_cast<size_t>(i)]; }
  void set_signature(NodeIndex i, Signature s) { signature_[static_cast<size_t>(i)] = s; }
  double weight(NodeIndex i) const { return weight_[static_cast<size_t>(i)]; }
  void set_weight(NodeIndex i, double w) { weight_[static_cast<size_t>(i)] = w; }

  /// Match link into the other tree (kInvalidNode if unmatched).
  NodeIndex match(NodeIndex i) const { return match_[static_cast<size_t>(i)]; }
  void set_match(NodeIndex i, NodeIndex other) { match_[static_cast<size_t>(i)] = other; }
  bool matched(NodeIndex i) const { return match_[static_cast<size_t>(i)] != kInvalidNode; }

  /// Nodes carrying an ID attribute may only be matched in Phase 1; they
  /// are locked against later matching (§5.2 Phase 1).
  bool id_locked(NodeIndex i) const { return id_locked_[static_cast<size_t>(i)] != 0; }
  void set_id_locked(NodeIndex i) { id_locked_[static_cast<size_t>(i)] = 1; }

  /// Total weight of the whole document (weight of the root).
  double total_weight() const { return weight_[0]; }

  // --- Reuse across diffs (core/buld.h SignedTree) -----------------------------

  /// Clears what a matching left behind (match links and ID locks),
  /// keeping structure, labels, signatures and weights, so the tree of
  /// one diff's new document can serve as the next diff's old tree.
  void ResetMatching();

  /// Number of distinct element labels the tree uses.
  size_t CountLabelsUsed() const;

  /// Re-interns the labels the tree uses into `labels` (in first-use
  /// order) and points the tree at it; the old table must still be alive
  /// during the call. Lets a long-lived tree drop a table that has grown
  /// with labels of documents it no longer holds.
  void RebindLabels(LabelTable* labels);

 private:
  const LabelTable* labels_ = nullptr;
  std::vector<XmlNode*> dom_;
  std::vector<NodeIndex> parent_;
  std::vector<int32_t> child_offset_;
  std::vector<NodeIndex> child_list_;
  std::vector<int32_t> position_;
  std::vector<int32_t> depth_;
  std::vector<int32_t> label_;
  std::vector<Signature> signature_;
  std::vector<double> weight_;
  std::vector<NodeIndex> match_;
  std::vector<uint8_t> id_locked_;
  std::vector<NodeIndex> postorder_;
};

}  // namespace xydiff

#endif  // XYDIFF_DELTA_DIFF_TREE_H_
