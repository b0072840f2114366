#include "delta/delta_builder.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "delta/lcs.h"

namespace xydiff {

namespace {

/// True when the matched pair (i1, i2) sits under corresponding parents
/// (both roots, or parents matched to each other).
bool ParentsCorrespond(const DiffTree& t1, const DiffTree& t2, NodeIndex i1,
                       NodeIndex i2) {
  const NodeIndex p1 = t1.parent(i1);
  const NodeIndex p2 = t2.parent(i2);
  if (p1 == kInvalidNode || p2 == kInvalidNode) {
    return p1 == kInvalidNode && p2 == kInvalidNode;
  }
  return t1.match(p1) == p2;
}

/// For each matched element pair, finds the children kept in the same
/// parent, and marks the complement of the maximum-weight order-preserving
/// subsequence as reordering moves. Returns, via `moved`, a flag per
/// new-tree node. `moved` must already contain the inter-parent moves.
void MarkReorderMoves(const DiffTree& t1, const DiffTree& t2,
                      const DiffOptions& options, std::vector<char>* moved) {
  std::vector<NodeIndex> common_new;  // Reused buffers.
  std::vector<size_t> values;
  std::vector<double> weights;
  for (NodeIndex i2 = 0; i2 < t2.size(); ++i2) {
    if (!t2.matched(i2) || !t2.is_element(i2)) continue;
    const NodeIndex i1 = t2.match(i2);
    common_new.clear();
    // Children of i1 (old order) matched into the same parent i2 and not
    // already moving between parents.
    for (int32_t k = 0; k < t1.child_count(i1); ++k) {
      const NodeIndex c1 = t1.child(i1, k);
      if (!t1.matched(c1)) continue;
      const NodeIndex c2 = t1.match(c1);
      if (t2.parent(c2) != i2) continue;
      common_new.push_back(c2);
    }
    if (common_new.size() <= 1) continue;
    values.clear();
    weights.clear();
    for (NodeIndex c2 : common_new) {
      values.push_back(static_cast<size_t>(t2.position_in_parent(c2)));
      weights.push_back(std::max(t2.weight(c2), 1e-9));
    }
    const std::vector<size_t> kept =
        options.lops_window > 0
            ? WindowedLis(values, weights, options.lops_window)
            : WeightedLis(values, weights);
    std::vector<char> in_lis(common_new.size(), 0);
    for (size_t k : kept) in_lis[k] = 1;
    for (size_t k = 0; k < common_new.size(); ++k) {
      if (!in_lis[k]) (*moved)[static_cast<size_t>(common_new[k])] = 1;
    }
  }
}

/// Ablation support: removes every matching that would require a move,
/// cascading so the final matching is parent-consistent and
/// order-preserving. Matches only ever shrink, so this terminates.
void DropMoveMatchings(DiffTree* t1, DiffTree* t2,
                       const DiffOptions& options) {
  for (;;) {
    bool changed = false;
    // Parent consistency, top-down so parents settle before children.
    for (NodeIndex i2 = 0; i2 < t2->size(); ++i2) {
      if (!t2->matched(i2)) continue;
      const NodeIndex i1 = t2->match(i2);
      if (!ParentsCorrespond(*t1, *t2, i1, i2)) {
        t1->set_match(i1, kInvalidNode);
        t2->set_match(i2, kInvalidNode);
        changed = true;
      }
    }
    // Intra-parent order.
    std::vector<char> moved(static_cast<size_t>(t2->size()), 0);
    MarkReorderMoves(*t1, *t2, options, &moved);
    for (NodeIndex i2 = 0; i2 < t2->size(); ++i2) {
      if (moved[static_cast<size_t>(i2)] && t2->matched(i2)) {
        t1->set_match(t2->match(i2), kInvalidNode);
        t2->set_match(i2, kInvalidNode);
        changed = true;
      }
    }
    if (!changed) return;
  }
}

/// Clones the subtree rooted at `i1` into the delta's snapshot arena,
/// excising maximal matched subtrees (they leave by move before the
/// delete is applied / arrive by move after the insert is applied).
XmlNodePtr SnapshotUnmatched(const DiffTree& t, NodeIndex i, Arena* arena) {
  const XmlNode& dom = *t.dom(i);
  XmlNodePtr copy = dom.is_element() ? XmlNode::ElementIn(arena, dom.label())
                                     : XmlNode::TextIn(arena, dom.text());
  if (dom.is_element()) {
    for (const auto& attr : dom.attributes()) {
      copy->SetAttribute(attr.name, attr.value);
    }
  }
  copy->set_xid(dom.xid());
  for (int32_t k = 0; k < t.child_count(i); ++k) {
    const NodeIndex c = t.child(i, k);
    if (t.matched(c)) continue;  // Leaves/arrives via its own move.
    copy->AppendChild(SnapshotUnmatched(t, c, arena));
  }
  return copy;
}

/// Builds a text UpdateOp, optionally in the compressed form: shared
/// prefix/suffix bytes are trimmed (backing off to UTF-8 sequence
/// boundaries so the delta stays valid UTF-8).
UpdateOp MakeUpdateOp(Xid xid, std::string_view old_text,
                      std::string_view new_text, bool compress) {
  UpdateOp op;
  op.xid = xid;
  if (!compress) {
    op.old_value = old_text;
    op.new_value = new_text;
    return op;
  }
  const auto is_continuation = [](char c) {
    return (static_cast<unsigned char>(c) & 0xC0) == 0x80;
  };
  size_t prefix = 0;
  const size_t max_prefix = std::min(old_text.size(), new_text.size());
  while (prefix < max_prefix && old_text[prefix] == new_text[prefix]) {
    ++prefix;
  }
  while (prefix > 0 && prefix < old_text.size() &&
         is_continuation(old_text[prefix])) {
    --prefix;  // Do not split a multi-byte sequence.
  }
  size_t suffix = 0;
  const size_t max_suffix = max_prefix - prefix;
  while (suffix < max_suffix &&
         old_text[old_text.size() - 1 - suffix] ==
             new_text[new_text.size() - 1 - suffix]) {
    ++suffix;
  }
  while (suffix > 0 && is_continuation(old_text[old_text.size() - suffix])) {
    --suffix;
  }
  op.prefix = static_cast<uint32_t>(prefix);
  op.suffix = static_cast<uint32_t>(suffix);
  op.old_value = old_text.substr(prefix, old_text.size() - prefix - suffix);
  op.new_value = new_text.substr(prefix, new_text.size() - prefix - suffix);
  return op;
}

Xid ParentXid(const DiffTree& t, NodeIndex i) {
  const NodeIndex p = t.parent(i);
  return p == kInvalidNode ? kNoXid : t.dom(p)->xid();
}

/// 1-based position of node `i` among its parent's children; 1 for roots
/// (the document root is child 1 of the virtual super-root).
uint32_t Pos1(const DiffTree& t, NodeIndex i) {
  if (t.parent(i) == kInvalidNode) return 1;
  return static_cast<uint32_t>(t.position_in_parent(i)) + 1;
}

void EmitAttributeOps(const XmlNode& old_node, const XmlNode& new_node,
                      Delta* delta) {
  for (const auto& attr : old_node.attributes()) {
    const std::string_view* new_value = new_node.FindAttribute(attr.name);
    if (new_value == nullptr) {
      delta->attribute_ops().push_back(
          {AttributeOpKind::kDelete, old_node.xid(), std::string(attr.name),
           std::string(attr.value), std::string()});
    } else if (*new_value != attr.value) {
      delta->attribute_ops().push_back(
          {AttributeOpKind::kUpdate, old_node.xid(), std::string(attr.name),
           std::string(attr.value), std::string(*new_value)});
    }
  }
  for (const auto& attr : new_node.attributes()) {
    if (old_node.FindAttribute(attr.name) == nullptr) {
      delta->attribute_ops().push_back(
          {AttributeOpKind::kInsert, old_node.xid(), std::string(attr.name),
           std::string(), std::string(attr.value)});
    }
  }
}

}  // namespace

Delta BuildDeltaFromMatching(DiffTree* old_tree, DiffTree* new_tree,
                             XmlDocument* old_doc, XmlDocument* new_doc,
                             const DiffOptions& options,
                             const DeltaBuildConfig& config,
                             DeltaNodeIndex* nodes) {
  DiffTree& t1 = *old_tree;
  DiffTree& t2 = *new_tree;

  if (!options.detect_moves) {
    DropMoveMatchings(&t1, &t2, options);
  }

  Delta delta;
  delta.set_old_next_xid(old_doc->next_xid());

  // --- XID assignment on the new document -----------------------------------
  if (config.assign_new_xids) {
    new_doc->set_next_xid(old_doc->next_xid());
    // Matched nodes inherit; fresh XIDs go out in postorder for stability.
    for (NodeIndex i2 : t2.postorder()) {
      if (t2.matched(i2)) {
        t2.dom(i2)->set_xid(t1.dom(t2.match(i2))->xid());
      } else {
        t2.dom(i2)->set_xid(new_doc->AllocateXid());
      }
    }
  }
  delta.set_new_next_xid(new_doc->next_xid());

  // --- Moves -----------------------------------------------------------------
  std::vector<char> moved(static_cast<size_t>(t2.size()), 0);
  if (options.detect_moves) {
    for (NodeIndex i2 = 0; i2 < t2.size(); ++i2) {
      if (t2.matched(i2) && !ParentsCorrespond(t1, t2, t2.match(i2), i2)) {
        moved[static_cast<size_t>(i2)] = 1;
      }
    }
    MarkReorderMoves(t1, t2, options, &moved);
    size_t move_count = 0;
    for (char m : moved) move_count += static_cast<size_t>(m);
    delta.moves().reserve(move_count);
    for (NodeIndex i2 = 0; i2 < t2.size(); ++i2) {
      if (!moved[static_cast<size_t>(i2)]) continue;
      const NodeIndex i1 = t2.match(i2);
      if (nodes != nullptr) nodes->AddNew(t2.dom(i2));
      delta.moves().push_back(MoveOp{t1.dom(i1)->xid(), ParentXid(t1, i1),
                                     Pos1(t1, i1), ParentXid(t2, i2),
                                     Pos1(t2, i2)});
    }
  }

  // --- Deletes (maximal unmatched old subtrees) -------------------------------
  const auto count_maximal_unmatched = [](const DiffTree& t) {
    size_t count = 0;
    for (NodeIndex i = 0; i < t.size(); ++i) {
      if (t.matched(i)) continue;
      const NodeIndex p = t.parent(i);
      if (p == kInvalidNode || t.matched(p)) ++count;
    }
    return count;
  };
  delta.deletes().reserve(count_maximal_unmatched(t1));
  for (NodeIndex i1 = 0; i1 < t1.size(); ++i1) {
    if (t1.matched(i1)) continue;
    const NodeIndex p1 = t1.parent(i1);
    if (p1 != kInvalidNode && !t1.matched(p1)) continue;  // Not maximal.
    if (nodes != nullptr) nodes->AddOld(t1.dom(i1));
    delta.deletes().emplace_back(
        t1.dom(i1)->xid(), ParentXid(t1, i1), Pos1(t1, i1),
        SnapshotUnmatched(t1, i1, delta.snapshot_arena()));
  }

  // --- Inserts (maximal unmatched new subtrees) --------------------------------
  delta.inserts().reserve(count_maximal_unmatched(t2));
  for (NodeIndex i2 = 0; i2 < t2.size(); ++i2) {
    if (t2.matched(i2)) continue;
    const NodeIndex p2 = t2.parent(i2);
    if (p2 != kInvalidNode && !t2.matched(p2)) continue;
    if (nodes != nullptr) nodes->AddNew(t2.dom(i2));
    delta.inserts().emplace_back(
        t2.dom(i2)->xid(), ParentXid(t2, i2), Pos1(t2, i2),
        SnapshotUnmatched(t2, i2, delta.snapshot_arena()));
  }

  // --- Updates and attribute operations ----------------------------------------
  for (NodeIndex i2 = 0; i2 < t2.size(); ++i2) {
    if (!t2.matched(i2)) continue;
    const NodeIndex i1 = t2.match(i2);
    const XmlNode& old_dom = *t1.dom(i1);
    const XmlNode& new_dom = *t2.dom(i2);
    if (t2.is_text(i2)) {
      if (old_dom.text() != new_dom.text()) {
        delta.updates().push_back(MakeUpdateOp(old_dom.xid(), old_dom.text(),
                                               new_dom.text(),
                                               options.compress_updates));
        if (nodes != nullptr) {
          nodes->AddOld(&old_dom);
          nodes->AddNew(&new_dom);
        }
      }
    } else {
      const size_t before = delta.attribute_ops().size();
      EmitAttributeOps(old_dom, new_dom, &delta);
      if (nodes != nullptr && delta.attribute_ops().size() > before) {
        nodes->AddNew(&new_dom);
      }
    }
  }
  if (nodes != nullptr) nodes->Seal();

  return delta;
}

}  // namespace xydiff
