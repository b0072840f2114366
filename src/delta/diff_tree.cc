#include "delta/diff_tree.h"

#include <algorithm>
#include <cassert>

namespace xydiff {

int32_t LabelTable::Intern(std::string_view label) {
  auto it = ids_.find(label);
  if (it != ids_.end()) return it->second;
  const int32_t id = static_cast<int32_t>(names_.size());
  names_.emplace_back(label);
  ids_.emplace(std::string_view(names_.back()), id);
  return id;
}

int32_t LabelTable::Find(std::string_view label) const {
  auto it = ids_.find(label);
  return it == ids_.end() ? -1 : it->second;
}

DiffTree DiffTree::Build(XmlDocument* doc, LabelTable* labels) {
  assert(doc->root() != nullptr);
  DiffTree tree;
  tree.labels_ = labels;
  const size_t n = doc->node_count();

  // Parsed documents carry a per-document interner: every element label
  // was deduplicated at parse time and nodes hold dense interner ids.
  // Translating interner id -> table id once per distinct label turns the
  // per-node Intern (hash of the label bytes) into an array lookup.
  const StringInterner* interner = doc->interner();
  std::vector<int32_t> table_id_of;
  if (interner != nullptr) {
    table_id_of.assign(interner->size(), kInvalidNode);
  }
  const auto intern_label = [&](const XmlNode& node) {
    const int32_t pid = node.label_id();
    if (pid < 0 || static_cast<size_t>(pid) >= table_id_of.size()) {
      return labels->Intern(node.label());
    }
    int32_t& cached = table_id_of[static_cast<size_t>(pid)];
    if (cached == kInvalidNode) cached = labels->Intern(node.label());
    return cached;
  };
  tree.dom_.reserve(n);
  tree.parent_.reserve(n);
  tree.position_.reserve(n);
  tree.depth_.reserve(n);
  tree.label_.reserve(n);

  // Preorder numbering with an explicit stack (DOM depth may be large).
  struct Frame {
    XmlNode* node;
    NodeIndex parent;
    int32_t position;
    int32_t depth;
  };
  std::vector<Frame> stack;
  stack.push_back({doc->root(), kInvalidNode, 0, 0});
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const NodeIndex index = static_cast<NodeIndex>(tree.dom_.size());
    tree.dom_.push_back(f.node);
    tree.parent_.push_back(f.parent);
    tree.position_.push_back(f.position);
    tree.depth_.push_back(f.depth);
    tree.label_.push_back(f.node->is_element() ? intern_label(*f.node)
                                               : LabelTable::kTextLabel);
    // Push children in reverse so they pop in document order.
    for (size_t k = f.node->child_count(); k > 0; --k) {
      stack.push_back({f.node->child(k - 1), index,
                       static_cast<int32_t>(k - 1), f.depth + 1});
    }
  }

  // CSR children. Preorder guarantees parent index < child index.
  const size_t count = tree.dom_.size();
  tree.child_offset_.assign(count + 1, 0);
  for (size_t i = 1; i < count; ++i) {
    ++tree.child_offset_[static_cast<size_t>(tree.parent_[i]) + 1];
  }
  for (size_t i = 1; i <= count; ++i) {
    tree.child_offset_[i] += tree.child_offset_[i - 1];
  }
  tree.child_list_.assign(count > 0 ? count - 1 : 0, kInvalidNode);
  {
    std::vector<int32_t> cursor(tree.child_offset_.begin(),
                                tree.child_offset_.end() - 1);
    for (size_t i = 1; i < count; ++i) {
      const size_t p = static_cast<size_t>(tree.parent_[i]);
      tree.child_list_[static_cast<size_t>(cursor[p]++)] =
          static_cast<NodeIndex>(i);
    }
  }

  // Postorder: children (in order) before parents.
  tree.postorder_.reserve(count);
  {
    // Iterative postorder: (node, next child to visit).
    std::vector<std::pair<NodeIndex, int32_t>> po_stack;
    po_stack.emplace_back(0, 0);
    while (!po_stack.empty()) {
      auto& [node, next_child] = po_stack.back();
      if (next_child < tree.child_count(node)) {
        const NodeIndex c = tree.child(node, next_child);
        ++next_child;
        po_stack.emplace_back(c, 0);
      } else {
        tree.postorder_.push_back(node);
        po_stack.pop_back();
      }
    }
  }

  tree.signature_.assign(count, 0);
  tree.weight_.assign(count, 0.0);
  tree.match_.assign(count, kInvalidNode);
  tree.id_locked_.assign(count, 0);
  return tree;
}

void DiffTree::ResetMatching() {
  std::fill(match_.begin(), match_.end(), kInvalidNode);
  std::fill(id_locked_.begin(), id_locked_.end(), 0);
}

size_t DiffTree::CountLabelsUsed() const {
  std::vector<char> used(labels_->size(), 0);
  size_t count = 0;
  for (int32_t label : label_) {
    if (label == LabelTable::kTextLabel) continue;
    char& seen = used[static_cast<size_t>(label)];
    count += seen == 0 ? 1 : 0;
    seen = 1;
  }
  return count;
}

void DiffTree::RebindLabels(LabelTable* labels) {
  std::vector<int32_t> remap(labels_->size(), kInvalidNode);
  for (int32_t& label : label_) {
    if (label == LabelTable::kTextLabel) continue;
    int32_t& id = remap[static_cast<size_t>(label)];
    if (id == kInvalidNode) id = labels->Intern(labels_->Name(label));
    label = id;
  }
  labels_ = labels;
}

}  // namespace xydiff
