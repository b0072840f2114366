#include "delta/delta_xml.h"

#include "util/string_util.h"
#include "xid/xid_map.h"
#include "xml/xid_map_tree.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xydiff {

namespace {

constexpr std::string_view kDeltaLabel = "xy:delta";
constexpr std::string_view kDeleteLabel = "xy:delete";
constexpr std::string_view kInsertLabel = "xy:insert";
constexpr std::string_view kMoveLabel = "xy:move";
constexpr std::string_view kUpdateLabel = "xy:update";
constexpr std::string_view kOldLabel = "xy:old";
constexpr std::string_view kNewLabel = "xy:new";
constexpr std::string_view kAttrInsertLabel = "xy:attr-insert";
constexpr std::string_view kAttrDeleteLabel = "xy:attr-delete";
constexpr std::string_view kAttrUpdateLabel = "xy:attr-update";

void SetXidAttr(XmlNode* node, std::string_view name, Xid xid) {
  node->SetAttribute(name, std::to_string(xid));
}

Result<Xid> GetXidAttr(const XmlNode& node, std::string_view name) {
  const std::string_view* value = node.FindAttribute(name);
  if (value == nullptr) {
    return Status::ParseError("delta op <" + std::string(node.label()) +
                              "> missing attribute '" + std::string(name) +
                              "'");
  }
  uint64_t xid = 0;
  if (!ParseUint64(*value, &xid)) {
    return Status::ParseError("delta op <" + std::string(node.label()) +
                              ">: bad '" + std::string(name) + "' value '" +
                              std::string(*value) + "'");
  }
  return xid;
}

Result<uint32_t> GetPosAttr(const XmlNode& node, std::string_view name) {
  Result<Xid> value = GetXidAttr(node, name);
  if (!value.ok()) return value.status();
  if (*value > UINT32_MAX) {
    return Status::ParseError("delta op <" + std::string(node.label()) +
                              ">: '" + std::string(name) + "' out of range");
  }
  return static_cast<uint32_t>(*value);
}

/// Emits a delete/insert op element with its snapshot and XID-map.
XmlNodePtr SnapshotOpToXml(std::string_view label, Xid xid, Xid parent_xid,
                           uint32_t pos, const XmlNode* subtree) {
  auto op = XmlNode::Element(label);
  SetXidAttr(op.get(), "xid", xid);
  SetXidAttr(op.get(), "parentXid", parent_xid);
  op->SetAttribute("pos", std::to_string(pos));
  if (subtree != nullptr) {
    op->SetAttribute("xidMap", XidMapFromSubtree(*subtree).ToString());
    op->AppendChild(subtree->Clone());
  }
  return op;
}

/// Text payload of a wrapper like <xy:old>: the concatenated text of its
/// children ("" when empty).
std::string TextPayload(const XmlNode& wrapper) {
  std::string out;
  for (size_t i = 0; i < wrapper.child_count(); ++i) {
    if (wrapper.child(i)->is_text()) out += wrapper.child(i)->text();
  }
  return out;
}

/// Finds the single snapshot child of a delete/insert op element,
/// tolerating surrounding whitespace-only text from pretty printing.
Result<const XmlNode*> SnapshotChild(const XmlNode& op) {
  const XmlNode* snapshot = nullptr;
  for (size_t i = 0; i < op.child_count(); ++i) {
    const XmlNode* c = op.child(i);
    if (c->is_text() && op.child_count() > 1 &&
        IsAllXmlWhitespace(c->text())) {
      continue;
    }
    if (snapshot != nullptr) {
      return Status::ParseError("delta op <" + std::string(op.label()) +
                                "> has more than one snapshot child");
    }
    snapshot = c;
  }
  if (snapshot == nullptr) {
    return Status::ParseError("delta op <" + std::string(op.label()) +
                              "> is missing its snapshot");
  }
  return snapshot;
}

Result<XmlNodePtr> ParseSnapshot(const XmlNode& op) {
  Result<const XmlNode*> child = SnapshotChild(op);
  if (!child.ok()) return child.status();
  XmlNodePtr subtree = (*child)->Clone();
  const std::string_view* map_text = op.FindAttribute("xidMap");
  if (map_text != nullptr) {
    Result<XidMap> map = XidMap::Parse(*map_text);
    if (!map.ok()) return map.status();
    XYDIFF_RETURN_IF_ERROR(ApplyXidMapToSubtree(*map, subtree.get()));
  }
  return subtree;
}

Result<AttributeOp> ParseAttrOp(const XmlNode& node, AttributeOpKind kind) {
  AttributeOp op;
  op.kind = kind;
  Result<Xid> xid = GetXidAttr(node, "xid");
  if (!xid.ok()) return xid.status();
  op.element_xid = *xid;
  const std::string_view* name = node.FindAttribute("name");
  if (name == nullptr) {
    return Status::ParseError("attribute op missing 'name'");
  }
  op.name = *name;
  auto read = [&](std::string_view attr, std::string* out) {
    const std::string_view* v = node.FindAttribute(attr);
    if (v != nullptr) *out = *v;
  };
  switch (kind) {
    case AttributeOpKind::kInsert:
      read("value", &op.new_value);
      break;
    case AttributeOpKind::kDelete:
      read("value", &op.old_value);
      break;
    case AttributeOpKind::kUpdate:
      read("old", &op.old_value);
      read("new", &op.new_value);
      break;
  }
  return op;
}

// Byte counting for SerializedDeltaSize: the sizes of the elements
// DeltaToXml builds, as the compact serializer writes them.

size_t DecimalDigits(uint64_t value) {
  size_t digits = 1;
  for (; value >= 10; value /= 10) ++digits;
  return digits;
}

/// ` name="value"` with the value already measured.
size_t AttrSize(std::string_view name, size_t value_size) {
  return name.size() + value_size + 4;
}

size_t AttrSize(std::string_view name, std::string_view value) {
  return AttrSize(name, EscapedAttributeSize(value));
}

size_t NumberAttrSize(std::string_view name, uint64_t value) {
  return AttrSize(name, DecimalDigits(value));
}

/// `<label attrs/>` when childless, else `<label attrs>content</label>`.
size_t ElementSize(std::string_view label, size_t attrs, bool has_children,
                   size_t content) {
  if (!has_children) return label.size() + attrs + 3;
  return 2 * label.size() + attrs + content + 5;
}

/// Length of XidMap::ToString() for the subtree's postorder XIDs:
/// "(" runs joined by ";" ")", a run being "a" or "a-b".
class XidMapTextSize {
 public:
  explicit XidMapTextSize(const XmlNode& subtree) { Visit(subtree); }

  size_t size() const {
    return 2 + bytes_ + RunSize() + (runs_ > 0 ? runs_ - 1 : 0);
  }

 private:
  void Visit(const XmlNode& node) {
    for (size_t i = 0; i < node.child_count(); ++i) Visit(*node.child(i));
    const Xid xid = node.xid();
    if (runs_ > 0 && xid == last_ + 1) {
      last_ = xid;
      return;
    }
    bytes_ += RunSize();  // Closes the previous run.
    ++runs_;
    first_ = last_ = xid;
  }

  size_t RunSize() const {
    if (runs_ == 0) return 0;
    return DecimalDigits(first_) +
           (last_ == first_ ? 0 : 1 + DecimalDigits(last_));
  }

  size_t runs_ = 0;
  size_t bytes_ = 0;  // Every run before the open one.
  Xid first_ = kNoXid;
  Xid last_ = kNoXid;
};

size_t SnapshotOpSize(std::string_view label, Xid xid, Xid parent_xid,
                      uint32_t pos, const XmlNode* subtree) {
  size_t attrs = NumberAttrSize("xid", xid) +
                 NumberAttrSize("parentXid", parent_xid) +
                 NumberAttrSize("pos", pos);
  if (subtree == nullptr) return ElementSize(label, attrs, false, 0);
  attrs += AttrSize("xidMap", XidMapTextSize(*subtree).size());
  return ElementSize(label, attrs, true, SerializedNodeSize(*subtree));
}

size_t UpdateValueSize(std::string_view label, std::string_view value) {
  return ElementSize(label, 0, !value.empty(), EscapedTextSize(value));
}

}  // namespace

XmlDocument DeltaToXml(const Delta& delta) {
  auto root = XmlNode::Element(kDeltaLabel);
  SetXidAttr(root.get(), "oldNextXid", delta.old_next_xid());
  SetXidAttr(root.get(), "newNextXid", delta.new_next_xid());

  for (const DeleteOp& op : delta.deletes()) {
    root->AppendChild(SnapshotOpToXml(kDeleteLabel, op.xid, op.parent_xid,
                                      op.pos, op.subtree.get()));
  }
  for (const InsertOp& op : delta.inserts()) {
    root->AppendChild(SnapshotOpToXml(kInsertLabel, op.xid, op.parent_xid,
                                      op.pos, op.subtree.get()));
  }
  for (const MoveOp& op : delta.moves()) {
    auto move = XmlNode::Element(kMoveLabel);
    SetXidAttr(move.get(), "xid", op.xid);
    SetXidAttr(move.get(), "fromParent", op.from_parent);
    move->SetAttribute("fromPos", std::to_string(op.from_pos));
    SetXidAttr(move.get(), "toParent", op.to_parent);
    move->SetAttribute("toPos", std::to_string(op.to_pos));
    root->AppendChild(std::move(move));
  }
  for (const UpdateOp& op : delta.updates()) {
    auto update = XmlNode::Element(kUpdateLabel);
    SetXidAttr(update.get(), "xid", op.xid);
    if (op.prefix != 0) {
      update->SetAttribute("prefix", std::to_string(op.prefix));
    }
    if (op.suffix != 0) {
      update->SetAttribute("suffix", std::to_string(op.suffix));
    }
    auto old_node = XmlNode::Element(kOldLabel);
    if (!op.old_value.empty()) {
      old_node->AppendChild(XmlNode::Text(op.old_value));
    }
    auto new_node = XmlNode::Element(kNewLabel);
    if (!op.new_value.empty()) {
      new_node->AppendChild(XmlNode::Text(op.new_value));
    }
    update->AppendChild(std::move(old_node));
    update->AppendChild(std::move(new_node));
    root->AppendChild(std::move(update));
  }
  for (const AttributeOp& op : delta.attribute_ops()) {
    std::string_view label;
    switch (op.kind) {
      case AttributeOpKind::kInsert: label = kAttrInsertLabel; break;
      case AttributeOpKind::kDelete: label = kAttrDeleteLabel; break;
      case AttributeOpKind::kUpdate: label = kAttrUpdateLabel; break;
    }
    auto attr = XmlNode::Element(label);
    SetXidAttr(attr.get(), "xid", op.element_xid);
    attr->SetAttribute("name", op.name);
    switch (op.kind) {
      case AttributeOpKind::kInsert:
        attr->SetAttribute("value", op.new_value);
        break;
      case AttributeOpKind::kDelete:
        attr->SetAttribute("value", op.old_value);
        break;
      case AttributeOpKind::kUpdate:
        attr->SetAttribute("old", op.old_value);
        attr->SetAttribute("new", op.new_value);
        break;
    }
    root->AppendChild(std::move(attr));
  }
  return XmlDocument(std::move(root));
}

std::string SerializeDelta(const Delta& delta, bool pretty) {
  const XmlDocument doc = DeltaToXml(delta);
  if (!pretty) return SerializeDocument(doc);
  // Pretty form: one compact operation per line. Snapshots must stay
  // byte-exact (indentation inside them would change the character data),
  // so only the op list is laid out, never op contents.
  const XmlNode& root = *doc.root();
  std::string out = "<";
  out += root.label();
  for (const auto& attr : root.attributes()) {
    out += ' ';
    out += attr.name;
    out += "=\"";
    out += EscapeAttribute(attr.value);
    out += '"';
  }
  if (root.child_count() == 0) {
    out += "/>\n";
    return out;
  }
  out += ">\n";
  for (size_t i = 0; i < root.child_count(); ++i) {
    out += "  ";
    out += SerializeNode(*root.child(i));
    out += '\n';
  }
  out += "</";
  out += root.label();
  out += ">\n";
  return out;
}

size_t SerializedDeltaSize(const Delta& delta) {
  size_t content = 0;
  for (const DeleteOp& op : delta.deletes()) {
    content += SnapshotOpSize(kDeleteLabel, op.xid, op.parent_xid, op.pos,
                              op.subtree.get());
  }
  for (const InsertOp& op : delta.inserts()) {
    content += SnapshotOpSize(kInsertLabel, op.xid, op.parent_xid, op.pos,
                              op.subtree.get());
  }
  for (const MoveOp& op : delta.moves()) {
    content += ElementSize(kMoveLabel,
                           NumberAttrSize("xid", op.xid) +
                               NumberAttrSize("fromParent", op.from_parent) +
                               NumberAttrSize("fromPos", op.from_pos) +
                               NumberAttrSize("toParent", op.to_parent) +
                               NumberAttrSize("toPos", op.to_pos),
                           false, 0);
  }
  for (const UpdateOp& op : delta.updates()) {
    size_t attrs = NumberAttrSize("xid", op.xid);
    if (op.prefix != 0) attrs += NumberAttrSize("prefix", op.prefix);
    if (op.suffix != 0) attrs += NumberAttrSize("suffix", op.suffix);
    content += ElementSize(kUpdateLabel, attrs, true,
                           UpdateValueSize(kOldLabel, op.old_value) +
                               UpdateValueSize(kNewLabel, op.new_value));
  }
  for (const AttributeOp& op : delta.attribute_ops()) {
    size_t attrs =
        NumberAttrSize("xid", op.element_xid) + AttrSize("name", op.name);
    std::string_view label;
    switch (op.kind) {
      case AttributeOpKind::kInsert:
        label = kAttrInsertLabel;
        attrs += AttrSize("value", op.new_value);
        break;
      case AttributeOpKind::kDelete:
        label = kAttrDeleteLabel;
        attrs += AttrSize("value", op.old_value);
        break;
      case AttributeOpKind::kUpdate:
        label = kAttrUpdateLabel;
        attrs += AttrSize("old", op.old_value) + AttrSize("new", op.new_value);
        break;
    }
    content += ElementSize(label, attrs, false, 0);
  }
  const size_t root_attrs = NumberAttrSize("oldNextXid", delta.old_next_xid()) +
                            NumberAttrSize("newNextXid", delta.new_next_xid());
  return ElementSize(kDeltaLabel, root_attrs, delta.operation_count() > 0,
                     content);
}

Result<Delta> DeltaFromXml(const XmlDocument& doc) {
  const XmlNode* root = doc.root();
  if (root == nullptr || root->label() != kDeltaLabel) {
    return Status::ParseError("not a delta document (expected <xy:delta>)");
  }
  Delta delta;
  {
    Result<Xid> old_next = GetXidAttr(*root, "oldNextXid");
    if (!old_next.ok()) return old_next.status();
    delta.set_old_next_xid(*old_next);
    Result<Xid> new_next = GetXidAttr(*root, "newNextXid");
    if (!new_next.ok()) return new_next.status();
    delta.set_new_next_xid(*new_next);
  }

  for (size_t i = 0; i < root->child_count(); ++i) {
    const XmlNode& op = *root->child(i);
    if (op.is_text()) {
      if (IsAllXmlWhitespace(op.text())) continue;
      return Status::ParseError("unexpected text inside <xy:delta>");
    }
    const std::string_view label = op.label();
    if (label == kDeleteLabel || label == kInsertLabel) {
      Result<Xid> xid = GetXidAttr(op, "xid");
      if (!xid.ok()) return xid.status();
      Result<Xid> parent = GetXidAttr(op, "parentXid");
      if (!parent.ok()) return parent.status();
      Result<uint32_t> pos = GetPosAttr(op, "pos");
      if (!pos.ok()) return pos.status();
      Result<XmlNodePtr> subtree = ParseSnapshot(op);
      if (!subtree.ok()) return subtree.status();
      if (label == kDeleteLabel) {
        delta.deletes().emplace_back(*xid, *parent, *pos,
                                     std::move(subtree.value()));
      } else {
        delta.inserts().emplace_back(*xid, *parent, *pos,
                                     std::move(subtree.value()));
      }
    } else if (label == kMoveLabel) {
      MoveOp move;
      Result<Xid> xid = GetXidAttr(op, "xid");
      if (!xid.ok()) return xid.status();
      move.xid = *xid;
      Result<Xid> from_parent = GetXidAttr(op, "fromParent");
      if (!from_parent.ok()) return from_parent.status();
      move.from_parent = *from_parent;
      Result<uint32_t> from_pos = GetPosAttr(op, "fromPos");
      if (!from_pos.ok()) return from_pos.status();
      move.from_pos = *from_pos;
      Result<Xid> to_parent = GetXidAttr(op, "toParent");
      if (!to_parent.ok()) return to_parent.status();
      move.to_parent = *to_parent;
      Result<uint32_t> to_pos = GetPosAttr(op, "toPos");
      if (!to_pos.ok()) return to_pos.status();
      move.to_pos = *to_pos;
      delta.moves().push_back(move);
    } else if (label == kUpdateLabel) {
      UpdateOp update;
      Result<Xid> xid = GetXidAttr(op, "xid");
      if (!xid.ok()) return xid.status();
      update.xid = *xid;
      if (op.FindAttribute("prefix") != nullptr) {
        Result<uint32_t> prefix = GetPosAttr(op, "prefix");
        if (!prefix.ok()) return prefix.status();
        update.prefix = *prefix;
      }
      if (op.FindAttribute("suffix") != nullptr) {
        Result<uint32_t> suffix = GetPosAttr(op, "suffix");
        if (!suffix.ok()) return suffix.status();
        update.suffix = *suffix;
      }
      bool saw_old = false;
      bool saw_new = false;
      for (size_t k = 0; k < op.child_count(); ++k) {
        const XmlNode& c = *op.child(k);
        if (c.is_text()) continue;
        if (c.label() == kOldLabel) {
          update.old_value = TextPayload(c);
          saw_old = true;
        } else if (c.label() == kNewLabel) {
          update.new_value = TextPayload(c);
          saw_new = true;
        }
      }
      if (!saw_old || !saw_new) {
        return Status::ParseError("<xy:update> missing <xy:old>/<xy:new>");
      }
      delta.updates().push_back(std::move(update));
    } else if (label == kAttrInsertLabel) {
      Result<AttributeOp> attr = ParseAttrOp(op, AttributeOpKind::kInsert);
      if (!attr.ok()) return attr.status();
      delta.attribute_ops().push_back(std::move(*attr));
    } else if (label == kAttrDeleteLabel) {
      Result<AttributeOp> attr = ParseAttrOp(op, AttributeOpKind::kDelete);
      if (!attr.ok()) return attr.status();
      delta.attribute_ops().push_back(std::move(*attr));
    } else if (label == kAttrUpdateLabel) {
      Result<AttributeOp> attr = ParseAttrOp(op, AttributeOpKind::kUpdate);
      if (!attr.ok()) return attr.status();
      delta.attribute_ops().push_back(std::move(*attr));
    } else {
      return Status::ParseError("unknown delta operation <" +
                                std::string(label) + ">");
    }
  }
  return delta;
}

Result<Delta> ParseDelta(std::string_view text) {
  ParseOptions options;
  options.keep_whitespace_text = true;
  Result<XmlDocument> doc = ParseXml(text, options);
  if (!doc.ok()) return doc.status();
  return DeltaFromXml(*doc);
}

}  // namespace xydiff
