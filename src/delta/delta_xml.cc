#include "delta/delta_xml.h"

#include <charconv>

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

/// Writes the delta's XML form straight from its operations into a sink
/// (xml/serializer.h): SerializeDelta's string, SerializedDeltaSize's
/// counter. Snapshots go through the serializer's own WriteNode.
template <typename Sink>
class DeltaWriter {
 public:
  explicit DeltaWriter(Sink* sink) : sink_(sink) {}

  /// The pretty form puts each operation on its own line, indented two
  /// spaces; operations themselves stay compact, since whitespace inside
  /// a snapshot would change its character data.
  void Write(const Delta& delta, bool pretty) {
    const std::string_view indent = pretty ? "  " : "";
    const std::string_view newline = pretty ? "\n" : "";
    Put('<', kDeltaLabel);
    Attr("oldNextXid", delta.old_next_xid());
    Attr("newNextXid", delta.new_next_xid());
    if (delta.operation_count() == 0) return Put("/>", newline);
    Put('>', newline);
    auto write_all = [&](const auto& ops) {
      for (const auto& op : ops) {
        Put(indent);
        Op(op);
        Put(newline);
      }
    };
    write_all(delta.deletes());
    write_all(delta.inserts());
    write_all(delta.moves());
    write_all(delta.updates());
    write_all(delta.attribute_ops());
    Put("</", kDeltaLabel, '>', newline);
  }

 private:
  /// One postorder run of XIDs, a..b; `count` runs so far.
  struct Run {
    size_t count = 0;
    Xid first = kNoXid;
    Xid last = kNoXid;
  };

  template <typename... Pieces>
  void Put(const Pieces&... pieces) {
    (sink_->Append(pieces), ...);
  }

  void Number(uint64_t value) {
    char digits[20];
    const char* end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
    Put(std::string_view(digits, end - digits));
  }

  void Attr(std::string_view name, uint64_t value) {
    Put(' ', name, "=\"");
    Number(value);
    Put('"');
  }

  void Attr(std::string_view name, std::string_view value) {
    Put(' ', name, "=\"");
    WriteEscaped(value, /*attribute=*/true, sink_);
    Put('"');
  }

  /// A delete or insert: position, XID-map, snapshot.
  template <typename SnapshotOp>
  void Snapshot(std::string_view label, const SnapshotOp& op) {
    Put('<', label);
    Attr("xid", op.xid);
    Attr("parentXid", op.parent_xid);
    Attr("pos", op.pos);
    if (op.subtree == nullptr) return Put("/>");
    Put(" xidMap=\"(");
    Run run;
    Runs(*op.subtree, &run);
    CloseRun(run);
    Put(")\">");
    WriteNode(*op.subtree, sink_);
    Put("</", label, '>');
  }

  /// XidMap::ToString() of the subtree's postorder XIDs, runs "a" or
  /// "a-b" joined by ";", in one walk and without building the map.
  void Runs(const XmlNode& node, Run* run) {
    for (size_t i = 0; i < node.child_count(); ++i) Runs(*node.child(i), run);
    if (run->count > 0 && node.xid() == run->last + 1) {
      run->last = node.xid();
      return;
    }
    CloseRun(*run);
    *run = Run{run->count + 1, node.xid(), node.xid()};
  }

  void CloseRun(const Run& run) {
    if (run.count == 0) return;
    if (run.count > 1) Put(';');
    Number(run.first);
    if (run.last == run.first) return;
    Put('-');
    Number(run.last);
  }

  void Op(const DeleteOp& op) { Snapshot(kDeleteLabel, op); }
  void Op(const InsertOp& op) { Snapshot(kInsertLabel, op); }

  void Op(const MoveOp& op) {
    Put('<', kMoveLabel);
    Attr("xid", op.xid);
    Attr("fromParent", op.from_parent);
    Attr("fromPos", op.from_pos);
    Attr("toParent", op.to_parent);
    Attr("toPos", op.to_pos);
    Put("/>");
  }

  void Op(const UpdateOp& op) {
    Put('<', kUpdateLabel);
    Attr("xid", op.xid);
    if (op.prefix != 0) Attr("prefix", op.prefix);
    if (op.suffix != 0) Attr("suffix", op.suffix);
    Put('>');
    Value(kOldLabel, op.old_value);
    Value(kNewLabel, op.new_value);
    Put("</", kUpdateLabel, '>');
  }

  /// `<label>value</label>`, or `<label/>` for an empty value.
  void Value(std::string_view label, std::string_view value) {
    if (value.empty()) return Put('<', label, "/>");
    Put('<', label, '>');
    WriteEscaped(value, /*attribute=*/false, sink_);
    Put("</", label, '>');
  }

  void Op(const AttributeOp& op) {
    const bool insert = op.kind == AttributeOpKind::kInsert;
    const bool update = op.kind == AttributeOpKind::kUpdate;
    Put('<', insert   ? kAttrInsertLabel
             : update ? kAttrUpdateLabel
                      : kAttrDeleteLabel);
    Attr("xid", op.element_xid);
    Attr("name", op.name);
    if (!insert) Attr(update ? "old" : "value", op.old_value);
    if (insert || update) Attr(update ? "new" : "value", op.new_value);
    Put("/>");
  }

  Sink* sink_;
};

}  // namespace

std::string SerializeDelta(const Delta& delta, bool pretty) {
  std::string out;
  StringSink sink(&out);
  DeltaWriter(&sink).Write(delta, pretty);
  return out;
}

size_t SerializedDeltaSize(const Delta& delta) {
  CountingSink count;
  DeltaWriter(&count).Write(delta, /*pretty=*/false);
  return count.size();
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
