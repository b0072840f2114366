#ifndef XYDIFF_XML_SERIALIZER_H_
#define XYDIFF_XML_SERIALIZER_H_

#include <string>
#include <string_view>

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

/// Serializes a whole document. When `unreadable` is non-null it
/// receives the first text node written in a form that ParseXml, under
/// default options, does not read back as that one node — empty,
/// whitespace-only, or next to another text node — or nullptr.
std::string SerializeDocument(const XmlDocument& doc,
                              const SerializeOptions& options = {},
                              const XmlNode** unreadable = nullptr);

/// The DOCTYPE block SerializeDocument emits under `doctype = true`:
/// one ID-attribute declaration per declared label that occurs in the
/// tree, or an empty string when the document declares none.
std::string SerializeDoctype(const XmlDocument& doc);

/// Escapes character data: & < > (and nothing else).
std::string EscapeText(std::string_view text);

/// Escapes an attribute value for double-quoted output: & < > ".
std::string EscapeAttribute(std::string_view text);

/// Where the writers below put their output: StringSink appends the
/// text to a string, CountingSink keeps only its length. Every writer
/// serves both, so a count is the length of the text by construction.
class StringSink {
 public:
  explicit StringSink(std::string* out) : out_(out) {}
  void Append(std::string_view text) { out_->append(text); }
  void Append(char c) { out_->push_back(c); }

 private:
  std::string* out_;
};

class CountingSink {
 public:
  void Append(std::string_view text) { size_ += text.size(); }
  void Append(char) { ++size_; }
  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

/// Writes `text` as EscapeText does or, with `attribute`, as
/// EscapeAttribute does. Instantiated for both sinks.
template <typename Sink>
void WriteEscaped(std::string_view text, bool attribute, Sink* sink);

/// Writes `node` as SerializeNode does under default (compact) options.
/// Instantiated for both sinks.
template <typename Sink>
void WriteNode(const XmlNode& node, Sink* sink);

/// Exactly EscapeText(text).size(), EscapeAttribute(text).size() and
/// SerializeNode(node).size(): the same writers into a CountingSink.
size_t EscapedTextSize(std::string_view text);
size_t EscapedAttributeSize(std::string_view text);
size_t SerializedNodeSize(const XmlNode& node);

}  // namespace xydiff

#endif  // XYDIFF_XML_SERIALIZER_H_
