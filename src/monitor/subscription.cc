#include "monitor/subscription.h"

#include <optional>

namespace xydiff {

namespace {

/// Nearest element at or above `node` (text updates are reported against
/// their containing element).
const XmlNode* OwningElement(const XmlNode* node) {
  while (node != nullptr && !node->is_element()) node = node->parent();
  return node;
}

/// First text node of `node`'s subtree in document order, or nullptr.
const XmlNode* FirstText(const XmlNode& node) {
  if (node.is_text()) return &node;
  for (size_t k = 0; k < node.child_count(); ++k) {
    if (const XmlNode* text = FirstText(*node.child(k))) return text;
  }
  return nullptr;
}

/// Short description of an element including its first text descendant,
/// so content filters have something to match ("inserted <Product>
/// 'zy456'").
std::string DescribeElement(const XmlNode& node) {
  std::string out = "<" + std::string(node.label()) + ">";
  if (const XmlNode* hint = FirstText(node)) {
    out += " '";
    out += hint->text().substr(0, 48);
    out += "'";
  }
  return out;
}

}  // namespace

const char* ChangeKindName(ChangeKind kind) {
  switch (kind) {
    case ChangeKind::kInsert: return "insert";
    case ChangeKind::kDelete: return "delete";
    case ChangeKind::kUpdate: return "update";
    case ChangeKind::kMove: return "move";
    case ChangeKind::kAttribute: return "attribute";
  }
  return "unknown";
}

Status Alerter::Subscribe(std::string id, std::string_view path_expression,
                          std::optional<ChangeKind> kind,
                          std::string detail_contains) {
  for (const Subscription& sub : subscriptions_) {
    if (sub.id == id) {
      return Status::InvalidArgument("duplicate subscription id: " + id);
    }
  }
  Result<XmlPath> path = XmlPath::Parse(path_expression);
  if (!path.ok()) return path.status();
  subscriptions_.push_back(Subscription{std::move(id), std::move(*path), kind,
                                        std::move(detail_contains)});
  return Status::OK();
}

bool Alerter::Unsubscribe(std::string_view id) {
  for (auto it = subscriptions_.begin(); it != subscriptions_.end(); ++it) {
    if (it->id == id) {
      subscriptions_.erase(it);
      return true;
    }
  }
  return false;
}

std::vector<Alert> Alerter::Evaluate(const Delta& delta,
                                     const XmlDocument& old_version,
                                     const XmlDocument& new_version) const {
  if (subscriptions_.empty() || delta.empty()) return {};
  return Evaluate(delta,
                  DeltaNodeIndex::Build(delta, old_version, new_version));
}

std::vector<Alert> Alerter::Evaluate(const Delta& delta,
                                     const DeltaNodeIndex& nodes) const {
  std::vector<Alert> alerts;
  if (subscriptions_.empty() || delta.empty()) return alerts;

  const auto wants = [this](ChangeKind kind) {
    for (const Subscription& sub : subscriptions_) {
      if (!sub.kind.has_value() || *sub.kind == kind) return true;
    }
    return false;
  };
  // Fires every subscription whose kind, path and content filter accept
  // a change at `node`, in subscription order. The detail string is
  // built only once some subscription's kind and path match, and shared.
  const auto fire = [&](ChangeKind kind, const XmlNode& node,
                        const auto& describe) {
    std::optional<std::string> detail;
    for (const Subscription& sub : subscriptions_) {
      if (sub.kind.has_value() && *sub.kind != kind) continue;
      if (!sub.path.Matches(node)) continue;
      if (!detail.has_value()) detail = describe();
      if (!sub.detail_contains.empty() &&
          detail->find(sub.detail_contains) == std::string::npos) {
        continue;
      }
      alerts.push_back(Alert{sub.id, kind, node.xid(), *detail});
    }
  };

  if (wants(ChangeKind::kInsert)) {
    for (const InsertOp& op : delta.inserts()) {
      const XmlNode* root = nodes.new_node(op.xid);
      if (root == nullptr) continue;
      root->Visit([&](const XmlNode* n) {
        if (!n->is_element()) return;
        fire(ChangeKind::kInsert, *n,
             [n] { return "inserted " + DescribeElement(*n); });
      });
    }
  }
  if (wants(ChangeKind::kDelete)) {
    for (const DeleteOp& op : delta.deletes()) {
      const XmlNode* root = nodes.old_node(op.xid);
      if (root == nullptr) continue;
      root->Visit([&](const XmlNode* n) {
        if (!n->is_element()) return;
        fire(ChangeKind::kDelete, *n,
             [n] { return "deleted " + DescribeElement(*n); });
      });
    }
  }
  for (const UpdateOp& op : delta.updates()) {
    const XmlNode* element = OwningElement(nodes.new_node(op.xid));
    if (element == nullptr) continue;
    fire(ChangeKind::kUpdate, *element, [&] {
      return "text of <" + std::string(element->label()) + "> changed from '" +
             op.old_value + "' to '" + op.new_value + "'";
    });
  }
  for (const MoveOp& op : delta.moves()) {
    const XmlNode* element = OwningElement(nodes.new_node(op.xid));
    if (element == nullptr) continue;
    fire(ChangeKind::kMove, *element, [element] {
      return "moved <" + std::string(element->label()) + ">";
    });
  }
  for (const AttributeOp& op : delta.attribute_ops()) {
    const XmlNode* element = nodes.new_node(op.element_xid);
    if (element == nullptr || !element->is_element()) continue;
    fire(ChangeKind::kAttribute, *element, [&] {
      return "attribute '" + op.name + "' of <" +
             std::string(element->label()) + "> changed";
    });
  }
  return alerts;
}

}  // namespace xydiff
