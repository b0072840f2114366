#ifndef XYDIFF_FUZZ_ORACLES_H_
#define XYDIFF_FUZZ_ORACLES_H_

#include <cstddef>
#include <string>
#include <vector>

#include "fuzz/grammar.h"
#include "xml/document.h"

namespace xydiff {

/// The fuzzer's oracle library. Every trial is judged by independent
/// implementations and algebraic invariants rather than golden outputs
/// (after Li & Rigger's XPath differential-testing recipe): for the same
/// inputs, BULD and the five baselines must agree, and the delta algebra
/// must close — apply, invert, compose and the binary codec are all
/// cross-checked against each other.
///
/// Every oracle always runs except the distance oracles, whose cost is
/// quadratic or worse in the tree size.
struct OracleOptions {
  bool check_distance = true;      ///< Zhang-Shasha/Selkow metric axioms
                                   ///< (small trees only; quadratic+).
  size_t distance_node_limit = 96; ///< Skip distance oracles above this.
};

/// One failed invariant.
struct OracleFailure {
  std::string oracle;  ///< Which invariant ("differential", "invert", ...).
  std::string detail;
};

struct OracleReport {
  size_t checks = 0;  ///< Invariants actually evaluated.
  std::vector<OracleFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string ToString() const;
};

/// Judges one generated trial with every applicable oracle:
///  * rejected raw inputs: the rejection must be a clean ParseError (the
///    hardened parser's contract) — reaching here at all already proves
///    no crash/hang;
///  * version-bearing trials: the pair oracles over v1 -> v2; the
///    compose oracle over the v1 -> v2 -> v3 chain; the checkout oracle
///    (Checkout of every version reproduces what was committed, XIDs
///    included); and the configuration-differential oracle: the chain
///    stored through VersionRepository::Commit, Warehouse::Ingest
///    and DiffBatch at 1 and 4 threads must agree on every version's
///    XIDs and bytes, on each step's operation count and delta size, on
///    Search after each step, and on the change statistics.
///    With a `scratch_directory` (private to this trial), the 4-thread
///    warehouse must also agree after Warehouse::Save there and Load
///    (versions and Search; statistics are not saved).
OracleReport CheckTrialOracles(const FuzzTrial& trial,
                               const OracleOptions& options = {},
                               const std::string& scratch_directory = {});

/// The pair-level core, shared with `differential_test`: runs the
/// differential, distance, roundtrip, invert and codec oracles over one
/// (base, changed) pair. Compose and checkout need a third version and
/// only run through CheckTrialOracles.
OracleReport CheckPairOracles(const XmlDocument& base,
                              const XmlDocument& changed,
                              const OracleOptions& options = {});

}  // namespace xydiff

#endif  // XYDIFF_FUZZ_ORACLES_H_
