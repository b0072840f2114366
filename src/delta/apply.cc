#include "delta/apply.h"

#include <algorithm>
#include <unordered_map>

#include "xid/xid_map.h"
#include "xml/xid_map_tree.h"

namespace xydiff {

namespace {

/// One pending attachment: an insert snapshot or a detached moved subtree.
struct Attachment {
  Xid parent_xid = kNoXid;
  uint32_t pos = 0;  // 1-based target position.
  XmlNodePtr subtree;
  uint64_t seq = 0;  // Stable tiebreak for diagnostics.
};

using XidIndex = std::unordered_map<Xid, XmlNode*>;

/// One delta application against a document whose XID index the caller
/// owns and keeps current across applications (DeltaPathApplicator).
///
/// With `inverse` the forward delta is read with its roles swapped —
/// inserts are deleted and deletes inserted (same snapshots, same order),
/// update and attribute values run new -> old, attribute inserts become
/// deletes and vice versa, moves go back from `to` to `from`, and the
/// allocator ends at `old_next_xid` — which is exactly what
/// InvertDelta(delta) would record, without copying it.
class Applier {
 public:
  Applier(const Delta& delta, bool inverse, XmlDocument* doc,
          const ApplyOptions& options, XidIndex* index, size_t* nodes_indexed)
      : delta_(delta),
        inverse_(inverse),
        doc_(doc),
        options_(options),
        index_(*index),
        nodes_indexed_(*nodes_indexed) {}

  Status Run() {
    if (doc_->root() == nullptr) {
      return Status::InvalidArgument("cannot apply a delta to an empty document");
    }
    // Virtual super-root (XID 0) so root replacement needs no special case.
    // It is created in the tree's own memory domain: a super-root in any
    // other domain would make AppendChild adoption-clone the entire tree,
    // which costs a copy and leaves every pointer in index_ dangling.
    doc_domain_ = doc_->root()->domain();
    super_root_ = doc_domain_ != nullptr
                      ? XmlNode::ElementIn(doc_domain_, "#document")
                      : XmlNode::Element("#document");
    super_root_->AppendChild(doc_->take_root());

    Status status = RunPhases();
    if (!status.ok()) {
      // Best-effort restore: the tree may be partially modified (that is
      // documented), but the document must not be left empty.
      if (super_root_->child_count() > 0) {
        doc_->set_root(super_root_->RemoveChild(0));
      }
      return status;
    }

    if (super_root_->child_count() != 1) {
      const size_t roots = super_root_->child_count();
      if (roots > 0) doc_->set_root(super_root_->RemoveChild(0));
      return Status::Corruption("delta left the document with " +
                                std::to_string(roots) + " roots");
    }
    doc_->set_root(super_root_->RemoveChild(0));
    const Xid next_xid =
        inverse_ ? delta_.old_next_xid() : delta_.new_next_xid();
    doc_->ReserveXidsThrough(next_xid > 0 ? next_xid - 1 : 0);
    return Status::OK();
  }

 private:
  Status RunPhases() {
    XYDIFF_RETURN_IF_ERROR(ApplyUpdates());
    XYDIFF_RETURN_IF_ERROR(ApplyAttributeOps());
    XYDIFF_RETURN_IF_ERROR(DetachMoves());
    XYDIFF_RETURN_IF_ERROR(inverse_ ? ApplyDeletes(delta_.inserts())
                                    : ApplyDeletes(delta_.deletes()));
    return inverse_ ? Attach(delta_.deletes()) : Attach(delta_.inserts());
  }

 private:
  Result<XmlNode*> Lookup(Xid xid, const char* what) {
    if (xid == kNoXid) return static_cast<XmlNode*>(super_root_.get());
    auto it = index_.find(xid);
    if (it == index_.end()) {
      return Status::NotFound(std::string(what) + ": no node with XID " +
                              std::to_string(xid));
    }
    return it->second;
  }

  Status ApplyUpdates() {
    for (const UpdateOp& op : delta_.updates()) {
      Result<XmlNode*> node = Lookup(op.xid, "update");
      if (!node.ok()) return node.status();
      if (!(*node)->is_text()) {
        return Status::Conflict("update target XID " + std::to_string(op.xid) +
                                " is not a text node");
      }
      const std::string_view current = (*node)->text();
      const std::string& from = inverse_ ? op.new_value : op.old_value;
      const std::string& to = inverse_ ? op.old_value : op.new_value;
      if (!op.is_compressed()) {
        if (options_.verify && current != from) {
          return Status::Conflict("update of XID " + std::to_string(op.xid) +
                                  ": old value mismatch");
        }
        (*node)->set_text(to);
        continue;
      }
      // Compressed form: splice the new middle between the shared prefix
      // and suffix taken from the current text (their lengths do not
      // depend on the direction).
      const size_t kept = static_cast<size_t>(op.prefix) + op.suffix;
      if (current.size() != kept + from.size() ||
          (options_.verify &&
           current.compare(op.prefix, from.size(), from) != 0)) {
        return Status::Conflict("compressed update of XID " +
                                std::to_string(op.xid) +
                                ": old value mismatch");
      }
      std::string next;
      next.reserve(kept + to.size());
      next.append(current, 0, op.prefix);
      next.append(to);
      next.append(current, current.size() - op.suffix, op.suffix);
      (*node)->set_text(std::move(next));
    }
    return Status::OK();
  }

  Status ApplyAttributeOps() {
    for (const AttributeOp& op : delta_.attribute_ops()) {
      Result<XmlNode*> node = Lookup(op.element_xid, "attribute op");
      if (!node.ok()) return node.status();
      XmlNode* element = *node;
      if (!element->is_element()) {
        return Status::Conflict("attribute op target XID " +
                                std::to_string(op.element_xid) +
                                " is not an element");
      }
      const std::string_view* current = element->FindAttribute(op.name);
      const std::string& from = inverse_ ? op.new_value : op.old_value;
      const std::string& to = inverse_ ? op.old_value : op.new_value;
      AttributeOpKind kind = op.kind;
      if (inverse_ && kind == AttributeOpKind::kInsert) {
        kind = AttributeOpKind::kDelete;
      } else if (inverse_ && kind == AttributeOpKind::kDelete) {
        kind = AttributeOpKind::kInsert;
      }
      switch (kind) {
        case AttributeOpKind::kInsert:
          if (options_.verify && current != nullptr) {
            return Status::Conflict("attribute insert: '" + op.name +
                                    "' already present on XID " +
                                    std::to_string(op.element_xid));
          }
          element->SetAttribute(op.name, to);
          break;
        case AttributeOpKind::kDelete:
          if (options_.verify && (current == nullptr || *current != from)) {
            return Status::Conflict("attribute delete: '" + op.name +
                                    "' state mismatch on XID " +
                                    std::to_string(op.element_xid));
          }
          element->RemoveAttribute(op.name);
          break;
        case AttributeOpKind::kUpdate:
          if (options_.verify && (current == nullptr || *current != from)) {
            return Status::Conflict("attribute update: '" + op.name +
                                    "' old value mismatch on XID " +
                                    std::to_string(op.element_xid));
          }
          element->SetAttribute(op.name, to);
          break;
      }
    }
    return Status::OK();
  }

  /// Detaches a node from wherever it currently lives (main tree or
  /// inside an already-detached subtree).
  static XmlNodePtr Detach(XmlNode* node) {
    XmlNode* parent = node->parent();
    return parent->RemoveChild(node->IndexInParent());
  }

  Status DetachMoves() {
    for (const MoveOp& op : delta_.moves()) {
      Result<XmlNode*> node = Lookup(op.xid, "move");
      if (!node.ok()) return node.status();
      if ((*node)->parent() == nullptr) {
        return Status::Conflict("move source XID " + std::to_string(op.xid) +
                                " detached twice");
      }
      attachments_.push_back(
          Attachment{inverse_ ? op.from_parent : op.to_parent,
                     inverse_ ? op.from_pos : op.to_pos, Detach(*node),
                     seq_++});
    }
    return Status::OK();
  }

  /// Detaches the subtrees of `ops` (DeleteOps, or a forward delta's
  /// InsertOps when applying its inverse).
  template <typename SubtreeOp>
  Status ApplyDeletes(const std::vector<SubtreeOp>& ops) {
    for (const SubtreeOp& op : ops) {
      Result<XmlNode*> node = Lookup(op.xid, "delete");
      if (!node.ok()) return node.status();
      if ((*node)->parent() == nullptr) {
        return Status::Conflict("delete target XID " + std::to_string(op.xid) +
                                " already detached");
      }
      XmlNodePtr removed = Detach(*node);
      if (options_.verify && op.subtree != nullptr) {
        if (!removed->DeepEquals(*op.subtree) ||
            XidMapFromSubtree(*removed) != XidMapFromSubtree(*op.subtree)) {
          return Status::Conflict("delete of XID " + std::to_string(op.xid) +
                                  ": subtree does not match snapshot");
        }
      }
      removed->Visit([&](const XmlNode* n) { index_.erase(n->xid()); });
    }
    return Status::OK();
  }

  /// Attaches the snapshots of `ops` (InsertOps, or a forward delta's
  /// DeleteOps when applying its inverse), then every detached move.
  template <typename SubtreeOp>
  Status Attach(const std::vector<SubtreeOp>& ops) {
    for (const SubtreeOp& op : ops) {
      if (op.subtree == nullptr) {
        return Status::InvalidArgument("insert op without subtree snapshot");
      }
      // Clone straight into the document's domain: InsertChild must not
      // adoption-clone later, or the pointers registered in index_ below
      // would dangle.
      XmlNodePtr subtree = op.subtree->Clone(doc_domain_);
      // Register the new nodes so that nested attachments can target them.
      Status conflict = Status::OK();
      subtree->Visit([&](XmlNode* n) {
        auto [it, inserted] = index_.emplace(n->xid(), n);
        (void)it;  // Only the insertion outcome matters here.
        if (inserted) ++nodes_indexed_;
        if (!inserted && conflict.ok() && options_.verify) {
          conflict = Status::Conflict("insert introduces duplicate XID " +
                                      std::to_string(n->xid()));
        }
      });
      XYDIFF_RETURN_IF_ERROR(conflict);
      attachments_.push_back(
          Attachment{op.parent_xid, op.pos, std::move(subtree), seq_++});
    }

    // Ascending target position within each parent reproduces the target
    // child order (non-moved siblings keep their relative order).
    std::sort(attachments_.begin(), attachments_.end(),
              [](const Attachment& a, const Attachment& b) {
                if (a.parent_xid != b.parent_xid) {
                  return a.parent_xid < b.parent_xid;
                }
                if (a.pos != b.pos) return a.pos < b.pos;
                return a.seq < b.seq;
              });
    for (auto& attachment : attachments_) {
      Result<XmlNode*> parent = Lookup(attachment.parent_xid, "attach");
      if (!parent.ok()) return parent.status();
      if (!(*parent)->is_element()) {
        return Status::Conflict("attach parent XID " +
                                std::to_string(attachment.parent_xid) +
                                " is not an element");
      }
      if (attachment.pos == 0 ||
          static_cast<size_t>(attachment.pos) >
              (*parent)->child_count() + 1) {
        if (options_.verify && !options_.clamp_positions) {
          return Status::Conflict(
              "attach position " + std::to_string(attachment.pos) +
              " out of range under XID " +
              std::to_string(attachment.parent_xid));
        }
      }
      const size_t index =
          attachment.pos == 0
              ? 0
              : std::min<size_t>(attachment.pos - 1, (*parent)->child_count());
      (*parent)->InsertChild(index, std::move(attachment.subtree));
    }
    return Status::OK();
  }

  const Delta& delta_;
  const bool inverse_;
  XmlDocument* doc_;
  ApplyOptions options_;
  XmlNodePtr super_root_;
  Arena* doc_domain_ = nullptr;
  XidIndex& index_;
  size_t& nodes_indexed_;
  std::vector<Attachment> attachments_;
  uint64_t seq_ = 0;
};

/// A single application is a one-hop path.
Status ApplyOneHop(const Delta& delta, bool inverse, XmlDocument* doc,
                   const ApplyOptions& options) {
  DeltaPathApplicator path(std::move(*doc), options);
  Status status = path.Push(delta, inverse);
  *doc = std::move(path).Finish();
  return status;
}

}  // namespace

Status ApplyDelta(const Delta& delta, XmlDocument* doc,
                  const ApplyOptions& options) {
  return ApplyOneHop(delta, /*inverse=*/false, doc, options);
}

Status ApplyDeltaInverse(const Delta& delta, XmlDocument* doc,
                         const ApplyOptions& options) {
  return ApplyOneHop(delta, /*inverse=*/true, doc, options);
}

DeltaPathApplicator::DeltaPathApplicator(XmlDocument base,
                                         const ApplyOptions& options)
    : doc_(std::move(base)),
      options_(options),
      index_(doc_.BuildXidIndex()),
      nodes_indexed_(index_.size()) {}

Status DeltaPathApplicator::Push(const Delta& delta, bool inverse) {
  if (!status_.ok()) return status_;
  ++applications_;
  status_ =
      Applier(delta, inverse, &doc_, options_, &index_, &nodes_indexed_).Run();
  return status_;
}

}  // namespace xydiff
