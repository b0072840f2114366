#ifndef XYDIFF_XML_SERIALIZER_H_
#define XYDIFF_XML_SERIALIZER_H_

#include <string>

#include "xml/document.h"
#include "xml/node.h"

namespace xydiff {

/// Serializer configuration.
struct SerializeOptions {
  /// Emit `<?xml version="1.0"?>` first.
  bool xml_declaration = false;
  /// Emit a DOCTYPE with the document's ID-attribute declarations so that
  /// a round trip preserves Phase-1 information.
  bool doctype = false;
  /// Pretty-print: each element on its own line, two-space indentation.
  /// Text nodes are emitted inline (pretty output re-parses to the same
  /// tree only under the default whitespace-dropping ParseOptions).
  bool pretty = false;
  /// Emit every node's XID as a `xy:xid` attribute (debugging aid).
  bool emit_xids = false;
};

/// Serializes a subtree to XML text.
std::string SerializeNode(const XmlNode& node,
                          const SerializeOptions& options = {});

/// Serializes a whole document.
std::string SerializeDocument(const XmlDocument& doc,
                              const SerializeOptions& options = {});

/// Escapes character data: & < > (and nothing else).
std::string EscapeText(std::string_view text);

/// Escapes an attribute value for double-quoted output: & < > ".
std::string EscapeAttribute(std::string_view text);

/// Exactly EscapeText(text).size() and EscapeAttribute(text).size(),
/// counted without building the string.
size_t EscapedTextSize(std::string_view text);
size_t EscapedAttributeSize(std::string_view text);

/// Exactly SerializeNode(node).size() under default (compact) options,
/// counted without building the string.
size_t SerializedNodeSize(const XmlNode& node);

}  // namespace xydiff

#endif  // XYDIFF_XML_SERIALIZER_H_
