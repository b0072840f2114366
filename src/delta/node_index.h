#ifndef XYDIFF_DELTA_NODE_INDEX_H_
#define XYDIFF_DELTA_NODE_INDEX_H_

#include <utility>
#include <vector>

#include "delta/delta.h"
#include "util/annotations.h"
#include "xml/document.h"

namespace xydiff {

/// Resolves the nodes a delta's operations name, once, for every
/// delta consumer.
///
/// The warehouse ingest path feeds one (delta, old version, new
/// version) triple to three consumers — incremental full-text index,
/// alerter, change statistics — and each used to build its own full
/// XID→node hash map over both documents: up to six O(n) walks with a
/// hash insert per node, for deltas that usually touch a handful of
/// nodes. This index holds exactly the nodes the delta's operations
/// reference, in a small vector sorted by XID. The ingest path gets it
/// from the diff itself: BULD Phase 5 already holds every operation's
/// node and records it (VersionRepository::Commit hands the index out),
/// so no document is walked. Build serves callers that have only a
/// delta and its two versions: it collects the referenced XIDs, then
/// fills them with ONE walk per document; a delta without operations on
/// a side skips that side's walk entirely.
///
/// The index is a snapshot over borrowed documents: it must not outlive
/// them, and mutating either tree invalidates it.
class DeltaNodeIndex {
 public:
  DeltaNodeIndex() = default;

  /// Builds the index for `delta` between the two versions it connects.
  /// Old-side XIDs: delete roots and update targets. New-side XIDs:
  /// insert roots, update targets, move targets, attribute owners.
  static DeltaNodeIndex Build(const Delta& delta,
                              const XmlDocument& old_version,
                              const XmlDocument& new_version);

  /// Builders that already hold the delta's nodes — BULD Phase 5
  /// (delta/delta_builder.h) — record them directly, with no document
  /// walk: AddOld/AddNew per node the delta names on that side, then
  /// Seal once. The result equals Build for the same delta.
  void AddOld(const XmlNode* node) { old_nodes_.emplace_back(node->xid(), node); }
  void AddNew(const XmlNode* node) { new_nodes_.emplace_back(node->xid(), node); }
  void Seal();

  bool operator==(const DeltaNodeIndex&) const = default;

  /// The old-version node with `xid`, or nullptr if the delta never
  /// referenced it on that side (or the document does not contain it).
  const XmlNode* old_node(Xid xid) const
      XY_ARENA_BOUND("old document") { return Find(old_nodes_, xid); }
  /// Likewise for the new version.
  const XmlNode* new_node(Xid xid) const
      XY_ARENA_BOUND("new document") { return Find(new_nodes_, xid); }

 private:
  using Entries = std::vector<std::pair<Xid, const XmlNode*>>;

  static const XmlNode* Find(const Entries& entries, Xid xid)
      XY_ARENA_BOUND("indexed document");

  Entries old_nodes_;  // Sorted by XID.
  Entries new_nodes_;  // Sorted by XID.
};

}  // namespace xydiff

#endif  // XYDIFF_DELTA_NODE_INDEX_H_
