#ifndef XYDIFF_CORE_BULD_H_
#define XYDIFF_CORE_BULD_H_

#include <memory>

#include "delta/delta.h"
#include "delta/diff_tree.h"
#include "delta/node_index.h"
#include "delta/options.h"
#include "util/status.h"
#include "xml/document.h"

namespace xydiff {

/// The BULD diff (§5): computes a delta transforming `*old_doc` into
/// `*new_doc`.
///
/// Matching is propagated Bottom-Up and (most of the time only) Lazily
/// Down: identical subtrees are matched heaviest-first via signatures,
/// matches climb to ancestors with equal labels (bounded by subtree
/// weight), and a peephole pass fills structural gaps. Expected cost is
/// O(n log n) in the total input size (§5.3).
///
/// Side effects:
/// * If `old_doc` carries no XIDs at all, initial postfix XIDs are
///   assigned to it (first-version semantics). Partially assigned XIDs
///   are an error.
/// * `new_doc` receives its persistent identification: matched nodes
///   inherit their partner's XID, new nodes get fresh XIDs, and the
///   allocator advances accordingly.
///
/// The returned delta is "correct" in the paper's sense — applying it to
/// the old version yields exactly the new version (see apply.h) — and
/// close to minimal, trading a little quality for speed.
Result<Delta> XyDiff(XmlDocument* old_doc, XmlDocument* new_doc,
                     const DiffOptions& options = {},
                     DiffStats* stats = nullptr);

/// Phase 2's output for one document (§5.2): its DiffTree with labels,
/// signatures and weights, and the label table the tree's label ids
/// refer to. The tree points into `labels`, so the pair never moves; its
/// owner holds it by pointer.
struct SignedTree {
  SignedTree() = default;
  SignedTree(const SignedTree&) = delete;
  SignedTree& operator=(const SignedTree&) = delete;

  LabelTable labels;
  DiffTree tree;  ///< Empty until a diff fills it.
  /// The DiffOptions::text_log_weight the weights were computed under —
  /// the one option that changes DiffTree::Build or
  /// ComputeSignaturesAndWeights.
  bool text_log_weight = true;
};

/// XyDiff for a caller that diffs a chain of versions of one document
/// (VersionRepository::Commit).
///
/// When `*carry` holds the signed tree of `*old_doc` — left there by the
/// diff that produced `*old_doc`, unchanged since, and computed under
/// this `options.text_log_weight` — Phase 2 keeps it, with only its match
/// links and ID locks reset, and builds and signs the new document
/// alone; `*old_doc` then must carry XIDs, as every version a diff
/// produced does. On success `*carry` holds the signed tree of
/// `*new_doc`: the caller drops it as soon as `*new_doc` changes other
/// than by being moved. On error `*carry` is reset.
///
/// `nodes` (optional) receives the nodes the delta's operations name,
/// resolved by Phase 5 (delta/node_index.h); its old side points into
/// `*old_doc`, its new side into `*new_doc`.
Result<Delta> XyDiffChained(XmlDocument* old_doc, XmlDocument* new_doc,
                            const DiffOptions& options,
                            std::unique_ptr<SignedTree>* carry,
                            DiffStats* stats = nullptr,
                            DeltaNodeIndex* nodes = nullptr);

/// Convenience overload for callers that start from XML text: parses both
/// documents, assigns initial XIDs to the old one, diffs, and returns the
/// delta.
Result<Delta> XyDiffText(std::string_view old_xml, std::string_view new_xml,
                         const DiffOptions& options = {},
                         DiffStats* stats = nullptr);

}  // namespace xydiff

#endif  // XYDIFF_CORE_BULD_H_
