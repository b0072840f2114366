#ifndef XYDIFF_DELTA_DELTA_XML_H_
#define XYDIFF_DELTA_DELTA_XML_H_

#include <string>
#include <string_view>

#include "delta/delta.h"
#include "util/status.h"
#include "xml/document.h"

namespace xydiff {

/// Deltas are themselves XML documents (§2: "Since the diff output is
/// stored as an XML document, namely a delta, such queries are regular
/// queries over documents"). The format follows the paper's examples:
///
///   <xy:delta oldNextXid="16" newNextXid="21">
///     <xy:delete xid="7" parentXid="8" pos="1" xidMap="(3-7)">
///       <Product><Name>tx123</Name><Price>$499</Price></Product>
///     </xy:delete>
///     <xy:insert xid="20" parentXid="14" pos="1" xidMap="(16-20)">...</xy:insert>
///     <xy:move xid="13" fromParent="14" fromPos="1" toParent="8" toPos="1"/>
///     <xy:update xid="11"><xy:old>$799</xy:old><xy:new>$699</xy:new></xy:update>
///     <xy:attr-update xid="5" name="status" old="a" new="b"/>
///   </xy:delta>
///
/// Subtree snapshots carry their XID-maps (postorder XID lists) so that
/// persistent identification survives storage.
///
/// One writer lays the format out, straight from the operations: it
/// builds no XML tree and clones no snapshot. SerializeDelta runs it
/// into a string, SerializedDeltaSize into a byte counter.

/// Serializes the delta to XML text. The compact form has no whitespace
/// outside the values and round-trips exactly through ParseDelta. The
/// pretty form puts each operation, itself compact, on its own line
/// indented two spaces, and parses to the same delta.
std::string SerializeDelta(const Delta& delta, bool pretty = false);

/// Exactly SerializeDelta(delta).size(): the same writer, counting
/// instead of appending, so it allocates nothing.
size_t SerializedDeltaSize(const Delta& delta);

/// Reconstructs a delta from its XML document form.
Result<Delta> DeltaFromXml(const XmlDocument& doc);

/// Parses a delta from XML text.
Result<Delta> ParseDelta(std::string_view text);

}  // namespace xydiff

#endif  // XYDIFF_DELTA_DELTA_XML_H_
