#include "xml/serializer.h"

#include "util/string_util.h"

namespace xydiff {

namespace {

/// True when text child `k` of `node` does not read back as that one
/// node: ParseXml drops empty and whitespace-only text and merges
/// adjacent text.
bool UnreadableText(const XmlNode& node, size_t k) {
  const XmlNode& text = *node.child(k);
  return IsAllXmlWhitespace(text.text()) ||
         (k > 0 && node.child(k - 1)->is_text());
}

template <typename Sink>
void Indent(int depth, Sink* out) {
  for (int i = 0; i < depth; ++i) out->Append("  ");
}

template <typename Sink>
void SerializeRec(const XmlNode& node, const SerializeOptions& options,
                  int depth, Sink* out, const XmlNode** unreadable) {
  if (node.is_text()) {
    if (options.pretty) Indent(depth, out);
    WriteEscaped(node.text(), /*attribute=*/false, out);
    if (options.pretty) out->Append('\n');
    return;
  }
  if (options.pretty) Indent(depth, out);
  out->Append('<');
  out->Append(node.label());
  for (const auto& attr : node.attributes()) {
    out->Append(' ');
    out->Append(attr.name);
    out->Append("=\"");
    WriteEscaped(attr.value, /*attribute=*/true, out);
    out->Append('"');
  }
  if (options.emit_xids && node.xid() != kNoXid) {
    out->Append(" xy:xid=\"");
    out->Append(std::to_string(node.xid()));
    out->Append('"');
  }
  if (node.child_count() == 0) {
    out->Append("/>");
    if (options.pretty) out->Append('\n');
    return;
  }
  // Pretty mode keeps text-only content inline so that whitespace is not
  // injected into character data.
  bool multiline = false;
  if (options.pretty) {
    for (size_t i = 0; i < node.child_count() && !multiline; ++i) {
      multiline = !node.child(i)->is_text();
    }
  }
  out->Append('>');
  if (multiline) out->Append('\n');
  for (size_t i = 0; i < node.child_count(); ++i) {
    if (unreadable != nullptr && *unreadable == nullptr &&
        node.child(i)->is_text() && UnreadableText(node, i)) {
      *unreadable = node.child(i);
    }
    if (options.pretty && !multiline) {
      WriteEscaped(node.child(i)->text(), /*attribute=*/false, out);
    } else {
      SerializeRec(*node.child(i), options, depth + 1, out, unreadable);
    }
  }
  if (multiline) Indent(depth, out);
  out->Append("</");
  out->Append(node.label());
  out->Append('>');
  if (options.pretty) out->Append('\n');
}

}  // namespace

template <typename Sink>
void WriteEscaped(std::string_view text, bool attribute, Sink* sink) {
  size_t plain = 0;  // Start of the run not yet written.
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c != '&' && c != '<' && c != '>' && (c != '"' || !attribute)) {
      continue;
    }
    sink->Append(text.substr(plain, i - plain));
    switch (c) {
      case '&': sink->Append("&amp;"); break;
      case '<': sink->Append("&lt;"); break;
      case '>': sink->Append("&gt;"); break;
      default: sink->Append("&quot;"); break;
    }
    plain = i + 1;
  }
  sink->Append(text.substr(plain));
}

template <typename Sink>
void WriteNode(const XmlNode& node, Sink* sink) {
  SerializeRec(node, SerializeOptions(), 0, sink, nullptr);
}

template void WriteEscaped(std::string_view, bool, StringSink*);
template void WriteEscaped(std::string_view, bool, CountingSink*);
template void WriteNode(const XmlNode&, StringSink*);
template void WriteNode(const XmlNode&, CountingSink*);

std::string EscapeText(std::string_view text) {
  std::string out;
  StringSink sink(&out);
  WriteEscaped(text, /*attribute=*/false, &sink);
  return out;
}

std::string EscapeAttribute(std::string_view text) {
  std::string out;
  StringSink sink(&out);
  WriteEscaped(text, /*attribute=*/true, &sink);
  return out;
}

size_t EscapedTextSize(std::string_view text) {
  CountingSink count;
  WriteEscaped(text, /*attribute=*/false, &count);
  return count.size();
}

size_t EscapedAttributeSize(std::string_view text) {
  CountingSink count;
  WriteEscaped(text, /*attribute=*/true, &count);
  return count.size();
}

size_t SerializedNodeSize(const XmlNode& node) {
  CountingSink count;
  WriteNode(node, &count);
  return count.size();
}

std::string SerializeNode(const XmlNode& node,
                          const SerializeOptions& options) {
  std::string out;
  out.reserve(node.SubtreeSize() * 24);  // Rough tag + content estimate.
  StringSink sink(&out);
  SerializeRec(node, options, 0, &sink, nullptr);
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
    StringSink sink(&out);
    SerializeRec(*doc.root(), options, 0, &sink, unreadable);
  }
  return out;
}

}  // namespace xydiff
