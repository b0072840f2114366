#include "delta/codec.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace xydiff {

namespace {

constexpr char kMagic[4] = {'X', 'Y', 'D', 'B'};
constexpr uint8_t kFormatVersion = 1;

// Snapshot nesting accepted by the decoder; matches the XML parser's
// default max_depth, so any snapshot the system can parse round-trips.
constexpr size_t kMaxSnapshotDepth = 10000;

constexpr uint8_t kNodeElement = 0;
constexpr uint8_t kNodeText = 1;

/// True when `bytes` starts with the binary-delta magic.
bool LooksLikeBinaryDelta(std::string_view bytes) {
  return bytes.size() >= sizeof(kMagic) &&
         bytes.compare(0, sizeof(kMagic),
                       std::string_view(kMagic, sizeof(kMagic))) == 0;
}

void AppendVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

void AppendString(std::string* out, std::string_view s) {
  AppendVarint(out, s.size());
  out->append(s.data(), s.size());
}

/// Per-delta string interner for element labels and attribute names.
/// Ids are assigned in first-use order, which is also emission order, so
/// encode and decode agree without storing ids explicitly.
class DictBuilder {
 public:
  uint64_t Intern(std::string_view s) {
    auto [it, inserted] = ids_.try_emplace(s, strings_.size());
    if (inserted) strings_.push_back(s);
    return it->second;
  }

  const std::vector<std::string_view>& strings() const { return strings_; }

 private:
  std::unordered_map<std::string_view, uint64_t> ids_;
  std::vector<std::string_view> strings_;
};

void EncodeSnapshot(const XmlNode& node, DictBuilder* dict,
                    std::string* out) {
  if (node.is_element()) {
    out->push_back(static_cast<char>(kNodeElement));
    AppendVarint(out, dict->Intern(node.label()));
    AppendVarint(out, node.xid());
    AppendVarint(out, node.attributes().size());
    for (const XmlAttribute& attr : node.attributes()) {
      AppendVarint(out, dict->Intern(attr.name));
      AppendString(out, attr.value);
    }
    AppendVarint(out, node.child_count());
    for (size_t i = 0; i < node.child_count(); ++i) {
      EncodeSnapshot(*node.child(i), dict, out);
    }
  } else {
    out->push_back(static_cast<char>(kNodeText));
    AppendVarint(out, node.xid());
    AppendString(out, node.text());
  }
}

template <typename Op>
void EncodeSnapshotOps(const std::vector<Op>& ops, DictBuilder* dict,
                       std::string* out) {
  AppendVarint(out, ops.size());
  for (const Op& op : ops) {
    AppendVarint(out, op.xid);
    AppendVarint(out, op.parent_xid);
    AppendVarint(out, op.pos);
    out->push_back(op.subtree != nullptr ? 1 : 0);
    if (op.subtree != nullptr) EncodeSnapshot(*op.subtree, dict, out);
  }
}

/// Bounds-checked cursor over the input. Every primitive read either
/// succeeds inside the buffer or returns Corruption; nothing ever reads
/// past `data_`.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  Status ReadByte(uint8_t* out) {
    if (remaining() < 1) return Truncated("byte");
    *out = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }

  /// Canonical LEB128: at most 10 bytes, no 64-bit overflow, and no
  /// padded encodings (a final zero group with more than one byte would
  /// make the wire form ambiguous — reject it as hostile input).
  Status ReadVarint(uint64_t* out) {
    uint64_t value = 0;
    int shift = 0;
    for (int i = 0; i < 10; ++i) {
      if (remaining() < 1) return Truncated("varint");
      const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      const uint64_t group = byte & 0x7f;
      if (shift == 63 && group > 1) {
        return Status::Corruption("binary delta: varint overflows 64 bits");
      }
      value |= group << shift;
      if ((byte & 0x80) == 0) {
        if (i > 0 && group == 0) {
          return Status::Corruption("binary delta: overlong varint");
        }
        *out = value;
        return Status::OK();
      }
      shift += 7;
    }
    return Status::Corruption("binary delta: varint longer than 10 bytes");
  }

  Status ReadString(std::string_view* out) {
    uint64_t size = 0;
    XYDIFF_RETURN_IF_ERROR(ReadVarint(&size));
    if (size > remaining()) return Truncated("string");
    *out = data_.substr(pos_, size);
    pos_ += size;
    return Status::OK();
  }

  /// An element count claimed by the input: each element costs at least
  /// one byte on the wire, so a count beyond the remaining bytes is
  /// corrupt — checked BEFORE any loop allocates.
  Status ReadCount(uint64_t* out) {
    XYDIFF_RETURN_IF_ERROR(ReadVarint(out));
    if (*out > remaining()) {
      return Status::Corruption("binary delta: count exceeds input size");
    }
    return Status::OK();
  }

  Status ReadU32(uint32_t* out, const char* what) {
    uint64_t value = 0;
    XYDIFF_RETURN_IF_ERROR(ReadVarint(&value));
    if (value > UINT32_MAX) {
      return Status::Corruption("binary delta: " + std::string(what) +
                                " out of range");
    }
    *out = static_cast<uint32_t>(value);
    return Status::OK();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::Corruption("binary delta truncated reading " +
                              std::string(what));
  }

  std::string_view data_;
  size_t pos_ = 0;
};

Status ReadDictId(Reader* reader, const std::vector<std::string_view>& dict,
                  std::string_view* out) {
  uint64_t id = 0;
  XYDIFF_RETURN_IF_ERROR(reader->ReadVarint(&id));
  if (id >= dict.size()) {
    return Status::Corruption("binary delta: dictionary id out of range");
  }
  *out = dict[id];
  return Status::OK();
}

// Iterative on purpose: decode depth is attacker-controlled (a few
// bytes of header per level), so recursion would let a small hostile
// buffer exhaust the stack long before the depth cap fired. The
// explicit stack holds one entry per open element instead.
Result<XmlNodePtr> DecodeSnapshot(Reader* reader,
                                  const std::vector<std::string_view>& dict,
                                  Arena* arena) {
  struct OpenElement {
    XmlNode* node;       // Element whose children are still arriving.
    uint64_t remaining;  // Children left to decode for it.
  };
  XmlNodePtr root;
  std::vector<OpenElement> open;
  for (;;) {
    uint8_t kind = 0;
    XYDIFF_RETURN_IF_ERROR(reader->ReadByte(&kind));
    XmlNodePtr node;
    uint64_t child_count = 0;
    if (kind == kNodeText) {
      uint64_t xid = 0;
      XYDIFF_RETURN_IF_ERROR(reader->ReadVarint(&xid));
      std::string_view text;
      XYDIFF_RETURN_IF_ERROR(reader->ReadString(&text));
      node = XmlNode::TextIn(arena, text);
      node->set_xid(xid);
    } else if (kind == kNodeElement) {
      std::string_view label;
      XYDIFF_RETURN_IF_ERROR(ReadDictId(reader, dict, &label));
      uint64_t xid = 0;
      XYDIFF_RETURN_IF_ERROR(reader->ReadVarint(&xid));
      node = XmlNode::ElementIn(arena, label);
      node->set_xid(xid);
      uint64_t attr_count = 0;
      XYDIFF_RETURN_IF_ERROR(reader->ReadCount(&attr_count));
      for (uint64_t i = 0; i < attr_count; ++i) {
        std::string_view name;
        XYDIFF_RETURN_IF_ERROR(ReadDictId(reader, dict, &name));
        std::string_view value;
        XYDIFF_RETURN_IF_ERROR(reader->ReadString(&value));
        node->SetAttribute(name, value);
      }
      XYDIFF_RETURN_IF_ERROR(reader->ReadCount(&child_count));
    } else {
      return Status::Corruption("binary delta: unknown snapshot node kind");
    }
    XmlNode* raw = node.get();
    if (open.empty()) {
      root = std::move(node);
    } else {
      --open.back().remaining;
      open.back().node->AppendChild(std::move(node));
    }
    if (child_count > 0) {
      if (open.size() >= kMaxSnapshotDepth) {
        return Status::Corruption("binary delta: snapshot nests too deeply");
      }
      open.push_back({raw, child_count});
      continue;
    }
    // A completed node may close any number of enclosing elements.
    while (!open.empty() && open.back().remaining == 0) open.pop_back();
    if (open.empty()) return root;
  }
}

template <typename Op>
Status DecodeSnapshotOps(Reader* reader,
                         const std::vector<std::string_view>& dict,
                         Arena* arena, DeadlineChecker* checkpoint,
                         std::vector<Op>* ops) {
  uint64_t count = 0;
  XYDIFF_RETURN_IF_ERROR(reader->ReadCount(&count));
  for (uint64_t i = 0; i < count; ++i) {
    XYDIFF_RETURN_IF_ERROR(checkpoint->Check());
    Op op;
    XYDIFF_RETURN_IF_ERROR(reader->ReadVarint(&op.xid));
    XYDIFF_RETURN_IF_ERROR(reader->ReadVarint(&op.parent_xid));
    XYDIFF_RETURN_IF_ERROR(reader->ReadU32(&op.pos, "pos"));
    uint8_t has_subtree = 0;
    XYDIFF_RETURN_IF_ERROR(reader->ReadByte(&has_subtree));
    if (has_subtree > 1) {
      return Status::Corruption("binary delta: bad snapshot flag");
    }
    if (has_subtree == 1) {
      Result<XmlNodePtr> subtree = DecodeSnapshot(reader, dict, arena);
      if (!subtree.ok()) return subtree.status();
      op.subtree = std::move(subtree.value());
    }
    ops->push_back(std::move(op));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeDeltaBinary(const Delta& delta) {
  // The dictionary must precede the ops on the wire but is discovered
  // while encoding them, so the op sections build in a separate buffer.
  DictBuilder dict;
  std::string body;
  EncodeSnapshotOps(delta.deletes(), &dict, &body);
  EncodeSnapshotOps(delta.inserts(), &dict, &body);
  AppendVarint(&body, delta.moves().size());
  for (const MoveOp& op : delta.moves()) {
    AppendVarint(&body, op.xid);
    AppendVarint(&body, op.from_parent);
    AppendVarint(&body, op.from_pos);
    AppendVarint(&body, op.to_parent);
    AppendVarint(&body, op.to_pos);
  }
  AppendVarint(&body, delta.updates().size());
  for (const UpdateOp& op : delta.updates()) {
    AppendVarint(&body, op.xid);
    AppendVarint(&body, op.prefix);
    AppendVarint(&body, op.suffix);
    AppendString(&body, op.old_value);
    AppendString(&body, op.new_value);
  }
  AppendVarint(&body, delta.attribute_ops().size());
  for (const AttributeOp& op : delta.attribute_ops()) {
    body.push_back(static_cast<char>(op.kind));
    AppendVarint(&body, op.element_xid);
    AppendVarint(&body, dict.Intern(op.name));
    // Mirror the XML form: each kind stores exactly the values
    // <xy:attr-*> carries, so decode+serialize stays byte-identical.
    switch (op.kind) {
      case AttributeOpKind::kInsert:
        AppendString(&body, op.new_value);
        break;
      case AttributeOpKind::kDelete:
        AppendString(&body, op.old_value);
        break;
      case AttributeOpKind::kUpdate:
        AppendString(&body, op.old_value);
        AppendString(&body, op.new_value);
        break;
    }
  }

  std::string out(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kFormatVersion));
  AppendVarint(&out, delta.old_next_xid());
  AppendVarint(&out, delta.new_next_xid());
  AppendVarint(&out, dict.strings().size());
  for (std::string_view s : dict.strings()) AppendString(&out, s);
  out += body;
  return out;
}


Result<Delta> DecodeDeltaBinary(std::string_view bytes,
                                const Context* context) {
  // Snapshot subtrees make decode cost proportional to input size, not
  // op count, so the checker also runs inside the per-op loops.
  DeadlineChecker checkpoint(context);
  if (!LooksLikeBinaryDelta(bytes)) {
    return Status::Corruption("not a binary delta (bad magic)");
  }
  Reader reader(bytes.substr(sizeof(kMagic)));
  uint8_t version = 0;
  XYDIFF_RETURN_IF_ERROR(reader.ReadByte(&version));
  if (version != kFormatVersion) {
    return Status::Corruption("unsupported binary delta format version " +
                              std::to_string(version));
  }

  Delta delta;
  uint64_t old_next = 0, new_next = 0;
  XYDIFF_RETURN_IF_ERROR(reader.ReadVarint(&old_next));
  XYDIFF_RETURN_IF_ERROR(reader.ReadVarint(&new_next));
  delta.set_old_next_xid(old_next);
  delta.set_new_next_xid(new_next);

  uint64_t dict_count = 0;
  XYDIFF_RETURN_IF_ERROR(reader.ReadCount(&dict_count));
  std::vector<std::string_view> dict;
  dict.reserve(dict_count);
  for (uint64_t i = 0; i < dict_count; ++i) {
    std::string_view s;
    XYDIFF_RETURN_IF_ERROR(reader.ReadString(&s));
    dict.push_back(s);
  }

  Arena* arena = delta.snapshot_arena();
  XYDIFF_RETURN_IF_ERROR(
      DecodeSnapshotOps(&reader, dict, arena, &checkpoint, &delta.deletes()));
  XYDIFF_RETURN_IF_ERROR(
      DecodeSnapshotOps(&reader, dict, arena, &checkpoint, &delta.inserts()));

  uint64_t move_count = 0;
  XYDIFF_RETURN_IF_ERROR(reader.ReadCount(&move_count));
  for (uint64_t i = 0; i < move_count; ++i) {
    XYDIFF_RETURN_IF_ERROR(checkpoint.Check());
    MoveOp op;
    XYDIFF_RETURN_IF_ERROR(reader.ReadVarint(&op.xid));
    XYDIFF_RETURN_IF_ERROR(reader.ReadVarint(&op.from_parent));
    XYDIFF_RETURN_IF_ERROR(reader.ReadU32(&op.from_pos, "fromPos"));
    XYDIFF_RETURN_IF_ERROR(reader.ReadVarint(&op.to_parent));
    XYDIFF_RETURN_IF_ERROR(reader.ReadU32(&op.to_pos, "toPos"));
    delta.moves().push_back(op);
  }

  uint64_t update_count = 0;
  XYDIFF_RETURN_IF_ERROR(reader.ReadCount(&update_count));
  for (uint64_t i = 0; i < update_count; ++i) {
    XYDIFF_RETURN_IF_ERROR(checkpoint.Check());
    UpdateOp op;
    XYDIFF_RETURN_IF_ERROR(reader.ReadVarint(&op.xid));
    XYDIFF_RETURN_IF_ERROR(reader.ReadU32(&op.prefix, "prefix"));
    XYDIFF_RETURN_IF_ERROR(reader.ReadU32(&op.suffix, "suffix"));
    std::string_view old_value, new_value;
    XYDIFF_RETURN_IF_ERROR(reader.ReadString(&old_value));
    XYDIFF_RETURN_IF_ERROR(reader.ReadString(&new_value));
    op.old_value = std::string(old_value);
    op.new_value = std::string(new_value);
    delta.updates().push_back(std::move(op));
  }

  uint64_t attr_count = 0;
  XYDIFF_RETURN_IF_ERROR(reader.ReadCount(&attr_count));
  for (uint64_t i = 0; i < attr_count; ++i) {
    AttributeOp op;
    uint8_t kind = 0;
    XYDIFF_RETURN_IF_ERROR(reader.ReadByte(&kind));
    if (kind > static_cast<uint8_t>(AttributeOpKind::kUpdate)) {
      return Status::Corruption("binary delta: bad attribute op kind");
    }
    op.kind = static_cast<AttributeOpKind>(kind);
    XYDIFF_RETURN_IF_ERROR(reader.ReadVarint(&op.element_xid));
    std::string_view name;
    XYDIFF_RETURN_IF_ERROR(ReadDictId(&reader, dict, &name));
    op.name = std::string(name);
    std::string_view old_value, new_value;
    switch (op.kind) {
      case AttributeOpKind::kInsert:
        XYDIFF_RETURN_IF_ERROR(reader.ReadString(&new_value));
        break;
      case AttributeOpKind::kDelete:
        XYDIFF_RETURN_IF_ERROR(reader.ReadString(&old_value));
        break;
      case AttributeOpKind::kUpdate:
        XYDIFF_RETURN_IF_ERROR(reader.ReadString(&old_value));
        XYDIFF_RETURN_IF_ERROR(reader.ReadString(&new_value));
        break;
    }
    op.old_value = std::string(old_value);
    op.new_value = std::string(new_value);
    delta.attribute_ops().push_back(std::move(op));
  }

  if (!reader.AtEnd()) {
    return Status::Corruption("binary delta has trailing bytes");
  }
  return delta;
}

}  // namespace xydiff
