#include "xml/serializer.h"

#include <sstream>

#include "util/string_util.h"

namespace xydiff {

namespace {

void AppendEscapedText(std::string_view text, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '&': out->append("&amp;"); break;
      case '<': out->append("&lt;"); break;
      case '>': out->append("&gt;"); break;
      default: out->push_back(c);
    }
  }
}

void AppendEscapedAttribute(std::string_view text, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '&': out->append("&amp;"); break;
      case '<': out->append("&lt;"); break;
      case '>': out->append("&gt;"); break;
      case '"': out->append("&quot;"); break;
      default: out->push_back(c);
    }
  }
}

/// Bytes AppendEscapedText (or, with `attribute`, AppendEscapedAttribute)
/// appends for `text`.
size_t EscapedSize(std::string_view text, bool attribute) {
  size_t size = text.size();
  for (char c : text) {
    switch (c) {
      case '&': size += 4; break;  // &amp;
      case '<':
      case '>': size += 3; break;  // &lt; &gt;
      case '"': size += attribute ? 5 : 0; break;  // &quot;
      default: break;
    }
  }
  return size;
}

/// True when text child `k` of `node` does not read back as that one
/// node: ParseXml drops empty and whitespace-only text and merges
/// adjacent text.
bool UnreadableText(const XmlNode& node, size_t k) {
  const XmlNode& text = *node.child(k);
  return IsAllXmlWhitespace(text.text()) ||
         (k > 0 && node.child(k - 1)->is_text());
}

void SerializeRec(const XmlNode& node, const SerializeOptions& options,
                  int depth, std::string* out, const XmlNode** unreadable) {
  if (node.is_text()) {
    if (options.pretty) {
      out->append(static_cast<size_t>(depth) * 2, ' ');
    }
    AppendEscapedText(node.text(), out);
    if (options.pretty) out->push_back('\n');
    return;
  }
  if (options.pretty) out->append(static_cast<size_t>(depth) * 2, ' ');
  out->push_back('<');
  out->append(node.label());
  for (const auto& attr : node.attributes()) {
    out->push_back(' ');
    out->append(attr.name);
    out->append("=\"");
    AppendEscapedAttribute(attr.value, out);
    out->push_back('"');
  }
  if (options.emit_xids && node.xid() != kNoXid) {
    out->append(" xy:xid=\"");
    out->append(std::to_string(node.xid()));
    out->push_back('"');
  }
  if (node.child_count() == 0) {
    out->append("/>");
    if (options.pretty) out->push_back('\n');
    return;
  }
  // Pretty mode keeps text-only content inline so that whitespace is not
  // injected into character data.
  bool text_only = true;
  for (size_t i = 0; i < node.child_count(); ++i) {
    if (!node.child(i)->is_text()) {
      text_only = false;
      break;
    }
  }
  const bool multiline = options.pretty && !text_only;
  out->push_back('>');
  if (multiline) out->push_back('\n');
  for (size_t i = 0; i < node.child_count(); ++i) {
    if (unreadable != nullptr && *unreadable == nullptr &&
        node.child(i)->is_text() && UnreadableText(node, i)) {
      *unreadable = node.child(i);
    }
    if (options.pretty && !multiline) {
      AppendEscapedText(node.child(i)->text(), out);
    } else {
      SerializeRec(*node.child(i), options, depth + 1, out, unreadable);
    }
  }
  if (multiline) out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append("</");
  out->append(node.label());
  out->push_back('>');
  if (options.pretty) out->push_back('\n');
}

}  // namespace

std::string EscapeText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendEscapedText(text, &out);
  return out;
}

std::string EscapeAttribute(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendEscapedAttribute(text, &out);
  return out;
}

size_t EscapedTextSize(std::string_view text) {
  return EscapedSize(text, /*attribute=*/false);
}

size_t EscapedAttributeSize(std::string_view text) {
  return EscapedSize(text, /*attribute=*/true);
}

size_t SerializedNodeSize(const XmlNode& node) {
  // Mirrors SerializeRec with default options.
  if (node.is_text()) return EscapedTextSize(node.text());
  size_t size = 1 + node.label().size();  // <label
  for (const auto& attr : node.attributes()) {
    size += attr.name.size() + EscapedAttributeSize(attr.value) + 4;
  }
  if (node.child_count() == 0) return size + 2;  // />
  size += 1 + 2 + node.label().size() + 1;        // > </label>
  for (size_t i = 0; i < node.child_count(); ++i) {
    size += SerializedNodeSize(*node.child(i));
  }
  return size;
}

std::string SerializeNode(const XmlNode& node,
                          const SerializeOptions& options) {
  std::string out;
  out.reserve(node.SubtreeSize() * 24);  // Rough tag + content estimate.
  SerializeRec(node, options, 0, &out, nullptr);
  return out;
}

std::string SerializeDoctype(const XmlDocument& doc) {
  std::string out;
  if (doc.root() == nullptr || !doc.dtd().has_id_attributes()) return out;
  out.append("<!DOCTYPE ");
  out.append(doc.dtd().doctype_name().empty()
                 ? doc.root()->label()
                 : std::string_view(doc.dtd().doctype_name()));
  out.append(" [\n");
  // One declaration per declared label that occurs in the tree, in the
  // order the labels first occur: the registry's own order is unspecified.
  doc.root()->Visit([&](const XmlNode* n) {
    if (!n->is_element()) return;
    const std::string* attr = doc.dtd().IdAttributeFor(n->label());
    if (attr == nullptr) return;
    std::string line = "<!ATTLIST ";
    line.append(n->label());
    line.append(" ").append(*attr).append(" ID #IMPLIED>\n");
    if (out.find(line) == std::string::npos) out.append(line);
  });
  out.append("]>\n");
  return out;
}

std::string SerializeDocument(const XmlDocument& doc,
                              const SerializeOptions& options,
                              const XmlNode** unreadable) {
  if (unreadable != nullptr) *unreadable = nullptr;
  std::string out;
  out.reserve(64 + doc.node_count() * 24);
  if (options.xml_declaration) {
    out.append("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
    out.push_back('\n');
  }
  if (options.doctype) out.append(SerializeDoctype(doc));
  if (doc.root() != nullptr) {
    SerializeRec(*doc.root(), options, 0, &out, unreadable);
  }
  return out;
}

}  // namespace xydiff
