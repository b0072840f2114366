#ifndef XYDIFF_DELTA_OPTIONS_H_
#define XYDIFF_DELTA_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "util/context.h"

namespace xydiff {

/// Tuning knobs of the BULD algorithm (§5.2 "Tuning"). The defaults follow
/// the paper; the ablation benchmarks sweep them.
struct DiffOptions {
  /// Phase 1: use DTD-declared ID attributes to pre-match nodes and lock
  /// ID-carrying nodes against other matchings.
  bool use_id_attributes = true;

  /// Weight of a text node is 1 + ln(length) when true (paper's choice),
  /// plain 1 otherwise (ablation).
  bool text_log_weight = true;

  /// Multiplies the ancestor look-up / propagation depth
  /// d = 1 + factor * ln(n) * W / W0. 1.0 is the paper's rule.
  double ancestor_depth_factor = 1.0;

  /// Number of bottom-up + top-down peephole passes in Phase 4. The paper
  /// runs one; more passes trade time for a few extra matches.
  int propagation_passes = 1;

  /// Eager-down variant: in the top-down pass, additionally pair the
  /// remaining unmatched children of matched parents by equal subtree
  /// signature, in document order. The paper *rejected* eager downward
  /// propagation for its worst-case cost ("Attempting this comparison on
  /// the spot would result in a quadratic computation", §5.1) but this
  /// bounded signature-keyed form keeps each pass linear; exposed as an
  /// ablation of the lazy-down design decision.
  bool eager_sibling_matching = false;

  /// Intra-parent move minimization: 0 selects the exact O(s log s)
  /// weighted largest-order-preserving-subsequence; a positive value
  /// selects the paper's windowed heuristic with that block length
  /// (the paper uses 50).
  size_t lops_window = 0;

  /// When false, matched nodes under different parents are emitted as a
  /// delete + insert pair instead of a move (ablation: "intentionally
  /// missing move operations", §7).
  bool detect_moves = true;

  /// When false, Phase 3 accepts a candidate only with ancestor agreement,
  /// even if it is the unique subtree with that signature (ablation).
  bool accept_unique_candidate = true;

  /// Store text updates as (shared prefix length, differing middle,
  /// shared suffix length) instead of full old/new values — smaller
  /// deltas for long texts with local edits, at the cost of the
  /// completed-delta property that an update is readable in isolation
  /// (§7: "a different trade-off in quality over performance").
  bool compress_updates = false;

  /// Cap on candidates examined per signature before giving up on a node
  /// (keeps worst-case linear; the secondary parent index still finds a
  /// parent-agreeing candidate in O(1) beyond the cap).
  size_t max_candidates_scanned = 16;

  /// Optional deadline/cancellation token, checked cooperatively in the
  /// long loops (Phase 3 matching, baseline LCS). Not owned; must
  /// outlive the diff call. nullptr means no limits.
  const Context* context = nullptr;
};

/// Timings and counters reported by the diff, used by the Figure 4
/// benchmark and by tests.
struct DiffStats {
  double phase1_seconds = 0;   ///< ID-attribute matching.
  double phase2_seconds = 0;   ///< Signatures, weights, queue setup.
  double phase3_seconds = 0;   ///< BULD matching loop.
  /// Part of phase3_seconds: building the candidate indexes (§5.3).
  double candidate_index_seconds = 0;
  double phase4_seconds = 0;   ///< Peephole propagation.
  double phase5_seconds = 0;   ///< Delta construction.

  size_t nodes_old = 0;
  size_t nodes_new = 0;
  size_t matched_nodes = 0;    ///< Matched pairs.
  size_t id_matched_nodes = 0; ///< Pairs matched in Phase 1.

  // Phase 3 instrumentation.
  size_t queue_pops = 0;            ///< Subtrees taken off the heap.
  size_t candidates_scanned = 0;    ///< Candidate nodes examined.
  size_t subtree_matches = 0;       ///< Accepted identical-subtree matches.
  size_t ancestor_matches = 0;      ///< Pairs matched by the upward climb.
  size_t propagation_matches = 0;   ///< Pairs matched by Phase 4 passes.

  /// DiffTrees built and signed in Phase 2: 2, or 1 when the old
  /// document's signed tree was carried over from the diff that produced
  /// it (core/buld.h XyDiffChained).
  size_t trees_built = 0;

  double total_seconds() const {
    return phase1_seconds + phase2_seconds + phase3_seconds +
           phase4_seconds + phase5_seconds;
  }
};

}  // namespace xydiff

#endif  // XYDIFF_DELTA_OPTIONS_H_
