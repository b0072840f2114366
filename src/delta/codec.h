#ifndef XYDIFF_DELTA_CODEC_H_
#define XYDIFF_DELTA_CODEC_H_

#include <string>
#include <string_view>

#include "delta/delta.h"
#include "util/context.h"
#include "util/status.h"

namespace xydiff {

/// Compact binary serialization of deltas — the storage codec behind the
/// version store's delta chain (§7 discusses the space/time trade-off of
/// compressed delta storage; the XML form of delta_xml.h remains the
/// interchange format).
///
/// Layout (all integers are canonical LEB128 varints):
///
///   magic "XYDB" + format version byte
///   oldNextXid, newNextXid
///   dictionary: count, then per string (length, bytes) — element labels
///     and attribute names are interned per delta and referenced by id,
///     so a delta touching 40 <item> elements stores "item" once
///   deletes, inserts: count, then per op xid, parentXid, pos,
///     has-snapshot byte, snapshot subtree (pre-order: kind byte, then
///     for elements label id, xid, attribute count, (name id, value)*,
///     child count, children; for text leaves xid, bytes)
///   moves: count, then per op xid, fromParent, fromPos, toParent, toPos
///   updates: count, then per op xid, prefix, suffix, old bytes, new
///     bytes — the §7 compressed form (shared prefix/suffix lengths with
///     only the differing middles) carries over unchanged
///   attribute ops: count, then per op kind byte, element xid, name id,
///     and the values the XML form stores for that kind
///
/// The codec is lossless against the XML serialization: for every delta,
/// SerializeDelta(*DecodeDeltaBinary(EncodeDeltaBinary(d))) ==
/// SerializeDelta(d), byte for byte.
std::string EncodeDeltaBinary(const Delta& delta);

/// Strict decode of EncodeDeltaBinary output. Every read is bounds
/// checked and every varint must be canonical, so hostile or truncated
/// input yields Status kCorruption — never undefined behaviour. Snapshot
/// subtrees are built in the returned delta's snapshot arena.
///
/// `context` (optional, not owned) is checked cooperatively between op
/// groups and every stride of ops, so a huge (or hostile) delta under a
/// deadline returns kDeadlineExceeded/kCancelled instead of stalling a
/// Checkout; the partially decoded delta is discarded with the Result.
Result<Delta> DecodeDeltaBinary(std::string_view bytes,
                                const Context* context = nullptr);

}  // namespace xydiff

#endif  // XYDIFF_DELTA_CODEC_H_
