#include "core/buld.h"

#include <chrono>
#include <cmath>

#include "core/candidates.h"
#include "delta/delta_builder.h"
#include "delta/diff_tree.h"
#include "core/match_ids.h"
#include "core/node_queue.h"
#include "core/propagate.h"
#include "delta/signature.h"
#include "xml/parser.h"

namespace xydiff {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Bounded ancestor depth d = 1 + factor · ln(n) · W / W0 (§5.2 "Tuning",
/// §5.3). Grows with the relative weight of the subtree being matched:
/// a heavy subtree may force matches far up the hierarchy, a light one
/// barely beyond its parent.
int AncestorDepth(double weight, double total_weight, double n,
                  const DiffOptions& options) {
  const double d = 1.0 + options.ancestor_depth_factor * std::log(n + 1.0) *
                             (weight / std::max(total_weight, 1.0));
  return static_cast<int>(std::min(d, 64.0));
}

class Buld {
 public:
  /// `state` holds the signed tree of `old_doc` when the caller carried
  /// one, else an empty tree; either way the new document's tree is
  /// built against its label table, and a successful Run leaves the new
  /// document's signed tree in it.
  Buld(XmlDocument* old_doc, XmlDocument* new_doc, const DiffOptions& options,
       SignedTree* state)
      : old_doc_(old_doc), new_doc_(new_doc), options_(options),
        state_(state) {}

  Result<Delta> Run(DiffStats* stats, DeltaNodeIndex* nodes) {
    // --- Phase 2 (build flat trees, signatures, weights) ---------------
    const auto t_start = Clock::now();
    size_t trees_built = 1;
    if (state_->tree.size() > 0) {
      t1_ = std::move(state_->tree);
      t1_.ResetMatching();
    } else {
      t1_ = DiffTree::Build(old_doc_, &state_->labels);
      ComputeSignaturesAndWeights(&t1_, options_);
      ++trees_built;
    }
    t2_ = DiffTree::Build(new_doc_, &state_->labels);
    ComputeSignaturesAndWeights(&t2_, options_);
    const auto t_phase2 = Clock::now();

    // --- Phase 1 (ID attributes) ----------------------------------------
    size_t id_matched = 0;
    if (options_.use_id_attributes) {
      id_matched = MatchByIdAttributes(&t1_, &t2_, old_doc_->dtd(),
                                       new_doc_->dtd());
      if (id_matched > 0) {
        PropagateMatchings(&t1_, &t2_, options_);
      }
    }
    const auto t_phase1 = Clock::now();

    // --- Phase 3 (heaviest-first matching) --------------------------------
    // Cooperative check-point: this is the diff's dominant loop, so a
    // deadline or cancellation is observed here within a stride of pops
    // (DESIGN.md §3.17). Abandoning mid-match is safe — the trees are
    // scratch state and the caller discards the documents on error.
    DeadlineChecker checkpoint(options_.context);
    CandidateIndex index(&t1_);
    index_ = &index;
    const auto t_index = Clock::now();
    NodeQueue queue(&t2_);
    queue.Push(0);
    while (!queue.empty()) {
      XYDIFF_RETURN_IF_ERROR(checkpoint.Check());
      const NodeIndex v2 = queue.Pop();
      ++counters_.queue_pops;
      if (t2_.matched(v2) || t2_.id_locked(v2)) {
        PushChildren(v2, &queue);
        continue;
      }
      const NodeIndex v1 = FindBestCandidate(v2);
      if (v1 == kInvalidNode) {
        if (t2_.is_element(v2)) PushChildren(v2, &queue);
        continue;
      }
      ++counters_.subtree_matches;
      MatchSubtrees(v1, v2, &queue);
      MatchAncestors(v1, v2);
    }
    // The roots always correspond when nothing contradicts it (two
    // versions of one document share a root element); without this
    // anchor, top-down propagation could never start on documents whose
    // content changed everywhere.
    if (!t1_.matched(0) && !t2_.matched(0) && !t1_.id_locked(0) &&
        !t2_.id_locked(0) && t1_.label(0) == t2_.label(0)) {
      t1_.set_match(0, 0);
      t2_.set_match(0, 0);
    }
    const auto t_phase3 = Clock::now();

    // --- Phase 4 (peephole optimization) -----------------------------------
    XYDIFF_RETURN_IF_ERROR(checkpoint.CheckNow());
    counters_.propagation_matches = PropagateMatchings(&t1_, &t2_, options_);
    const auto t_phase4 = Clock::now();

    // --- Phase 5 (delta construction) ---------------------------------------
    // Last check before construction: Phase 5 assigns XIDs to the new
    // document, so bailing after it would leave visible partial state.
    XYDIFF_RETURN_IF_ERROR(checkpoint.CheckNow());
    Delta delta = BuildDeltaFromMatching(&t1_, &t2_, old_doc_, new_doc_,
                                         options_, DeltaBuildConfig{}, nodes);
    const auto t_phase5 = Clock::now();

    if (stats != nullptr) {
      stats->phase2_seconds = Seconds(t_start, t_phase2);
      stats->phase1_seconds = Seconds(t_phase2, t_phase1);
      stats->phase3_seconds = Seconds(t_phase1, t_phase3);
      stats->candidate_index_seconds = Seconds(t_phase1, t_index);
      stats->phase4_seconds = Seconds(t_phase3, t_phase4);
      stats->phase5_seconds = Seconds(t_phase4, t_phase5);
      stats->nodes_old = static_cast<size_t>(t1_.size());
      stats->nodes_new = static_cast<size_t>(t2_.size());
      stats->id_matched_nodes = id_matched;
      size_t matched = 0;
      for (NodeIndex i = 0; i < t2_.size(); ++i) {
        if (t2_.matched(i)) ++matched;
      }
      stats->matched_nodes = matched;
      stats->queue_pops = counters_.queue_pops;
      stats->candidates_scanned = counters_.candidates_scanned;
      stats->subtree_matches = counters_.subtree_matches;
      stats->ancestor_matches = counters_.ancestor_matches;
      stats->propagation_matches = counters_.propagation_matches;
      stats->trees_built = trees_built;
    }
    state_->tree = std::move(t2_);
    state_->text_log_weight = options_.text_log_weight;
    return delta;
  }

 private:
  void PushChildren(NodeIndex v2, NodeQueue* queue) {
    for (int32_t k = 0; k < t2_.child_count(v2); ++k) {
      queue->Push(t2_.child(v2, k));
    }
  }

  /// Phase 3 candidate selection (§5.2): prefer a candidate whose
  /// ancestor at some level <= d corresponds to the reference node's
  /// matched ancestor at the same level; failing that, accept a unique
  /// candidate outright.
  NodeIndex FindBestCandidate(NodeIndex v2) {
    const Signature sig = t2_.signature(v2);
    const CandidateIndex::Run* candidates = index_->Find(sig);
    if (candidates == nullptr) return kInvalidNode;

    const double n =
        static_cast<double>(t1_.size()) + static_cast<double>(t2_.size());
    const int depth =
        AncestorDepth(t2_.weight(v2), t2_.total_weight(), n, options_);

    NodeIndex a2 = v2;
    for (int level = 1; level <= depth; ++level) {
      a2 = t2_.parent(a2);
      if (a2 == kInvalidNode) break;
      if (!t2_.matched(a2)) continue;
      const NodeIndex target = t2_.match(a2);
      if (level == 1) {
        // O(1) via the secondary (signature, parent) index (§5.3),
        // preferring the candidate at the same sibling position (§5.1).
        const NodeIndex c = index_->FindUnmatchedWithParent(
            sig, target, t2_.position_in_parent(v2));
        if (c != kInvalidNode) return c;
      } else {
        size_t scanned = 0;
        for (NodeIndex c : *candidates) {
          if (++scanned > options_.max_candidates_scanned) break;
          ++counters_.candidates_scanned;
          if (t1_.matched(c) || t1_.id_locked(c)) continue;
          if (AncestorAt(t1_, c, level) == target) return c;
        }
      }
    }

    if (options_.accept_unique_candidate) {
      NodeIndex unique = kInvalidNode;
      size_t scanned = 0;
      for (NodeIndex c : *candidates) {
        if (++scanned > options_.max_candidates_scanned + 1) {
          return kInvalidNode;  // Too ambiguous; give up on this node.
        }
        ++counters_.candidates_scanned;
        if (t1_.matched(c) || t1_.id_locked(c)) continue;
        if (unique != kInvalidNode) return kInvalidNode;  // Ambiguous.
        unique = c;
      }
      return unique;
    }
    return kInvalidNode;
  }

  static NodeIndex AncestorAt(const DiffTree& t, NodeIndex i, int level) {
    for (int k = 0; k < level && i != kInvalidNode; ++k) i = t.parent(i);
    return i;
  }

  /// Matches the two identical subtrees node by node. Pairs blocked by an
  /// earlier conflicting match (possible: a descendant of v1 may already
  /// be matched to a heavier subtree elsewhere) are skipped, and the
  /// corresponding new-document nodes re-enter the queue.
  void MatchSubtrees(NodeIndex v1, NodeIndex v2, NodeQueue* queue) {
    if (t1_.matched(v1) || t2_.matched(v2) || t1_.id_locked(v1) ||
        t2_.id_locked(v2)) {
      if (!t2_.matched(v2)) queue->Push(v2);
    } else {
      t1_.set_match(v1, v2);
      t2_.set_match(v2, v1);
    }
    const int32_t n1 = t1_.child_count(v1);
    const int32_t n2 = t2_.child_count(v2);
    if (n1 != n2) return;  // Possible only on a signature collision.
    for (int32_t k = 0; k < n1; ++k) {
      MatchSubtrees(t1_.child(v1, k), t2_.child(v2, k), queue);
    }
  }

  /// Climbs from a freshly matched pair, matching ancestors as long as
  /// they are free and share a label; the climb length is weight-bounded.
  void MatchAncestors(NodeIndex v1, NodeIndex v2) {
    const double n =
        static_cast<double>(t1_.size()) + static_cast<double>(t2_.size());
    const int max_up =
        AncestorDepth(t2_.weight(v2), t2_.total_weight(), n, options_);
    NodeIndex a1 = t1_.parent(v1);
    NodeIndex a2 = t2_.parent(v2);
    for (int step = 0; step < max_up; ++step) {
      if (a1 == kInvalidNode || a2 == kInvalidNode) return;
      if (t1_.matched(a1) || t2_.matched(a2) || t1_.id_locked(a1) ||
          t2_.id_locked(a2)) {
        return;
      }
      if (t1_.label(a1) != t2_.label(a2)) return;
      t1_.set_match(a1, a2);
      t2_.set_match(a2, a1);
      ++counters_.ancestor_matches;
      a1 = t1_.parent(a1);
      a2 = t2_.parent(a2);
    }
  }

  /// Phase-3/4 instrumentation mirrored into DiffStats.
  struct Counters {
    size_t queue_pops = 0;
    size_t candidates_scanned = 0;
    size_t subtree_matches = 0;
    size_t ancestor_matches = 0;
    size_t propagation_matches = 0;
  };

  XmlDocument* old_doc_;
  XmlDocument* new_doc_;
  DiffOptions options_;
  SignedTree* state_;
  DiffTree t1_;
  DiffTree t2_;
  const CandidateIndex* index_ = nullptr;
  Counters counters_;
};

/// The checks every diff makes before Phase 2. Without a carried tree,
/// an old document with no XIDs at all gets initial ones; a carried tree
/// was signed after Phase 5 gave the document every XID.
Status PrepareDiff(XmlDocument* old_doc, XmlDocument* new_doc,
                   const DiffOptions& options, bool carried) {
  if (old_doc->root() == nullptr || new_doc->root() == nullptr) {
    return Status::InvalidArgument("both documents must have a root element");
  }
  if (options.context != nullptr) {
    XYDIFF_RETURN_IF_ERROR(options.context->Check());
  }
  if (!carried && !old_doc->AllXidsAssigned()) {
    // First-version semantics when the document carries no XIDs at all.
    bool any = false;
    old_doc->root()->Visit([&](const XmlNode* n) {
      if (n->xid() != kNoXid) any = true;
    });
    if (any) {
      return Status::InvalidArgument(
          "old document has partially assigned XIDs");
    }
    old_doc->AssignInitialXids();
  }
  return Status::OK();
}

}  // namespace

Result<Delta> XyDiff(XmlDocument* old_doc, XmlDocument* new_doc,
                     const DiffOptions& options, DiffStats* stats) {
  XYDIFF_RETURN_IF_ERROR(PrepareDiff(old_doc, new_doc, options,
                                     /*carried=*/false));
  SignedTree state;
  return Buld(old_doc, new_doc, options, &state).Run(stats, nullptr);
}

Result<Delta> XyDiffChained(XmlDocument* old_doc, XmlDocument* new_doc,
                            const DiffOptions& options,
                            std::unique_ptr<SignedTree>* carry,
                            DiffStats* stats, DeltaNodeIndex* nodes) {
  std::unique_ptr<SignedTree> state = std::move(*carry);
  const bool carried = state != nullptr && state->tree.size() > 0 &&
                       state->text_log_weight == options.text_log_weight &&
                       state->tree.dom(0) == old_doc->root();
  if (!carried) state = std::make_unique<SignedTree>();
  XYDIFF_RETURN_IF_ERROR(PrepareDiff(old_doc, new_doc, options, carried));
  Result<Delta> delta =
      Buld(old_doc, new_doc, options, state.get()).Run(stats, nodes);
  if (!delta.ok()) return delta;
  // The table keeps every label any version of the chain ever used; once
  // it holds more than twice what the kept tree uses, move the tree onto
  // a fresh one, so documents whose labels churn do not grow it forever.
  if (state->labels.size() > 2 * state->tree.CountLabelsUsed()) {
    auto rebound = std::make_unique<SignedTree>();
    rebound->tree = std::move(state->tree);
    rebound->tree.RebindLabels(&rebound->labels);
    rebound->text_log_weight = state->text_log_weight;
    state = std::move(rebound);
  }
  *carry = std::move(state);
  return delta;
}

Result<Delta> XyDiffText(std::string_view old_xml, std::string_view new_xml,
                         const DiffOptions& options, DiffStats* stats) {
  Result<XmlDocument> old_doc = ParseXml(old_xml);
  if (!old_doc.ok()) return old_doc.status();
  Result<XmlDocument> new_doc = ParseXml(new_xml);
  if (!new_doc.ok()) return new_doc.status();
  old_doc->AssignInitialXids();
  return XyDiff(&old_doc.value(), &new_doc.value(), options, stats);
}

}  // namespace xydiff
