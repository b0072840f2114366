#ifndef XYDIFF_DELTA_APPLY_H_
#define XYDIFF_DELTA_APPLY_H_

#include <unordered_map>

#include "delta/delta.h"
#include "util/status.h"
#include "xml/document.h"

namespace xydiff {

/// Application configuration.
struct ApplyOptions {
  /// Verify that deleted subtrees match their snapshots, that updates see
  /// the recorded old value, and that attribute operations see the
  /// recorded old state. Catches deltas applied to the wrong version.
  bool verify = true;

  /// Accept attach positions beyond the current child count by clamping
  /// to the end instead of failing. Used by the three-way merge, where a
  /// concurrent delta may have shrunk a child list the positions were
  /// computed against.
  bool clamp_positions = false;
};

/// Applies `delta` to `*doc`, transforming it from the delta's source
/// version into its target version (§4).
///
/// A delta is a *set* of operations; application imposes the canonical
/// order that makes the set semantics well-defined:
///   1. text updates and attribute operations (addressed by XID);
///   2. detach every moved subtree (by XID, wherever it currently lives —
///      including inside other detached subtrees);
///   3. detach every deleted subtree and check it against its snapshot
///      (moved-away descendants are already gone, matching the snapshot);
///   4. attach inserted snapshots and moved subtrees at their recorded
///      (parent XID, target position), in ascending position order per
///      parent — non-moved siblings keep their relative order, so
///      ascending attachment reproduces the target child sequence exactly.
/// The document root is handled through a virtual super-root (XID 0,
/// position 1), so even a full root replacement is just ops.
///
/// On success the document's XID allocator advances to the delta's
/// new-version state. On failure the document may be partially modified;
/// apply to a clone when that matters.
Status ApplyDelta(const Delta& delta, XmlDocument* doc,
                  const ApplyOptions& options = {});

/// Applies the inverse of `delta` (target version -> source version).
/// Equivalent to `ApplyDelta(InvertDelta(delta), doc)` without
/// materializing the inverse: the forward delta's operations are read
/// with their roles swapped (inserts deleted, deletes re-inserted from
/// the same snapshots, values restored new -> old, moves sent back to
/// their sources, the allocator left at `old_next_xid`).
Status ApplyDeltaInverse(const Delta& delta, XmlDocument* doc,
                         const ApplyOptions& options = {});

/// Piecewise application of a path of consecutive deltas, after the
/// piecewise applicator of monotone's xdelta: one working document is
/// threaded through the whole path instead of materializing every
/// intermediate version as its own tree. Used by the version store's
/// reconstruction (version/repository.h), whose checkpoint + skip-delta
/// plan is exactly such a path, by its recovery-time chain replay, by
/// ComposeDeltas, and (as a one-hop path) by ApplyDelta itself.
///
/// The XID -> node index that every application needs is state of the
/// path, not of one hop: it is built once from the base document, and
/// each Push maintains it — deletes erase the removed subtree's XIDs,
/// inserted snapshots register theirs. A path therefore costs one index
/// build plus the sizes of its deltas, not one document walk per hop.
/// The index holds raw node pointers, which stay valid across hops
/// because moves and attachments never clone (snapshots are cloned into
/// the document's domain before they are registered).
///
/// A failed Push may leave the document half-modified and the index
/// stale, so the first error is sticky: every later Push returns it
/// without touching the document or the index.
///
/// Per-step verification is off by default: the store proves chain
/// integrity when it loads (CRC-64 per file plus a chain replay on any
/// degradation), and re-checking every snapshot at every hop would cost
/// more than the application itself. Pass verifying ApplyOptions where a
/// step may legitimately fail and the failure must be caught.
class DeltaPathApplicator {
 public:
  /// Starts from `base` — the version at the beginning of the path — and
  /// indexes its nodes.
  explicit DeltaPathApplicator(XmlDocument base,
                               const ApplyOptions& options = {.verify = false});

  DeltaPathApplicator(const DeltaPathApplicator&) = delete;
  DeltaPathApplicator& operator=(const DeltaPathApplicator&) = delete;

  /// Applies one more delta of the path (inverted when `inverse`). An
  /// inverse hop reads `delta` in place, like ApplyDeltaInverse, so it
  /// copies nothing of the delta beyond the snapshots it attaches. After
  /// a failure, returns that first error and does nothing.
  Status Push(const Delta& delta, bool inverse = false);

  /// Number of delta applications attempted so far.
  size_t applications() const { return applications_; }

  /// Nodes registered in the XID index so far: the base document's nodes
  /// plus every node of every inserted snapshot. A deterministic measure
  /// of the path's indexing work.
  size_t nodes_indexed() const { return nodes_indexed_; }

  /// Hands back the document at the end of the path (partially modified
  /// when a Push failed).
  XmlDocument Finish() && { return std::move(doc_); }

 private:
  XmlDocument doc_;
  ApplyOptions options_;
  std::unordered_map<Xid, XmlNode*> index_;
  Status status_;
  size_t applications_ = 0;
  size_t nodes_indexed_ = 0;
};

}  // namespace xydiff

#endif  // XYDIFF_DELTA_APPLY_H_
