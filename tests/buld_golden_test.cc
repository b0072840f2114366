// Golden-delta test: pins the exact deltas BULD computes over a fixed,
// seeded corpus, and the summed Phase 3/4 counters that explain them.
//
// The differential and property tests check that every delta is
// *correct* (apply(diff(A,B),A) = B); none of them notices a matching
// that is correct but different. This test does: any change to the
// matching order, the candidate lookup, or the delta construction moves
// the digest. Refactors and performance work on the diff must leave it
// untouched.
//
// Re-pinning: only a change that is meant to change deltas may update
// the expected values below, and it must say so (with the old and new
// values) in CHANGES.md. The failure message prints the values computed
// by the current build.

#include <cinttypes>
#include <cstdio>
#include <string>

#include "core/buld.h"
#include "delta/delta_xml.h"
#include "gtest/gtest.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "simulator/web_corpus.h"
#include "util/hash.h"
#include "util/random.h"

namespace xydiff {
namespace {

struct GoldenSums {
  uint64_t digest = 0;
  size_t diffs = 0;
  size_t queue_pops = 0;
  size_t candidates_scanned = 0;
  size_t subtree_matches = 0;
  size_t ancestor_matches = 0;
  size_t propagation_matches = 0;
};

/// Diffs every (size, ID attributes, change profile) combination of the
/// corpus and folds each serialized delta into one CRC-64.
GoldenSums RunCorpus() {
  const size_t kSizes[] = {500, 2048, 8 * 1024, 32 * 1024, 128 * 1024,
                           512 * 1024};
  const ChangeSimOptions kProfiles[] = {ChangeSimOptions{},
                                        WeeklyWebChangeProfile()};
  GoldenSums sums;
  uint64_t seed = 0x601DE17A;
  for (size_t bytes : kSizes) {
    for (bool ids : {false, true}) {
      for (const ChangeSimOptions& profile : kProfiles) {
        Rng rng(++seed);
        DocGenOptions gen;
        gen.target_bytes = bytes;
        gen.with_id_attributes = ids;
        gen.duplicate_sibling_probability = 0.2;
        XmlDocument old_doc = GenerateDocument(&rng, gen);
        old_doc.AssignInitialXids();
        Result<SimulatedChange> change =
            SimulateChanges(old_doc, profile, &rng);
        EXPECT_TRUE(change.ok()) << change.status().ToString();
        if (!change.ok()) continue;
        XmlDocument new_doc = std::move(change->new_version);
        DiffStats stats;
        Result<Delta> delta =
            XyDiff(&old_doc, &new_doc, DiffOptions{}, &stats);
        EXPECT_TRUE(delta.ok()) << delta.status().ToString();
        if (!delta.ok()) continue;
        sums.digest = Crc64(SerializeDelta(*delta), sums.digest);
        ++sums.diffs;
        sums.queue_pops += stats.queue_pops;
        sums.candidates_scanned += stats.candidates_scanned;
        sums.subtree_matches += stats.subtree_matches;
        sums.ancestor_matches += stats.ancestor_matches;
        sums.propagation_matches += stats.propagation_matches;
      }
    }
  }
  return sums;
}

TEST(BuldGoldenTest, DeltasAndCountersMatchThePinnedCorpus) {
  const GoldenSums sums = RunCorpus();
  char computed[64];
  std::snprintf(computed, sizeof(computed), "0x%016" PRIx64, sums.digest);
  SCOPED_TRACE(std::string("computed digest ") + computed +
               ", queue_pops " + std::to_string(sums.queue_pops) +
               ", candidates_scanned " +
               std::to_string(sums.candidates_scanned) +
               ", subtree_matches " + std::to_string(sums.subtree_matches) +
               ", ancestor_matches " + std::to_string(sums.ancestor_matches) +
               ", propagation_matches " +
               std::to_string(sums.propagation_matches));
  EXPECT_EQ(sums.diffs, 24u);
  EXPECT_EQ(sums.digest, UINT64_C(0xb5cabc4c9a5ee27d));
  EXPECT_EQ(sums.queue_pops, 88845u);
  EXPECT_EQ(sums.candidates_scanned, 99472u);
  EXPECT_EQ(sums.subtree_matches, 4831u);
  EXPECT_EQ(sums.ancestor_matches, 1743u);
  EXPECT_EQ(sums.propagation_matches, 2013u);
}

}  // namespace
}  // namespace xydiff
