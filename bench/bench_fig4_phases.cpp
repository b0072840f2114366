// Figure 4 — "Time cost for the different phases".
//
// The paper plots, log-log, the time spent in phases 1+2 (parse, hash,
// ID registration), phase 3 (BULD matching), phase 4 (optimization
// propagation) and phase 5 (delta construction) against the total size of
// both XML documents, for documents from ~1 KB to ~10 MB changed by the
// simulator at 10% per-node probability for every operation. The claimed
// shape: every phase grows ~linearly, and phases 3+4 — the algorithmic
// core — are the cheapest; data-structure manipulation dominates.
//
// Here phase 1+2 additionally includes XML parsing time, as in the paper
// ("in phase 1 and 2, we parse the file and hash its content").

#include <cstdio>

#include "bench/bench_util.h"
#include "core/buld.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "util/random.h"
#include "xml/parser.h"
#include "xml/serializer.h"

int main() {
  using namespace xydiff;
  using bench::Timer;

  bench::Banner("Figure 4: time cost of the diff phases vs document size",
                "ICDE 2002 paper, Figure 4 (log-log, near-linear phases)");

  std::printf("%-12s %-10s %12s %12s %12s %12s %12s %12s\n", "total_bytes",
              "nodes", "phase1+2_us", "phase3_us", "index_us", "phase4_us",
              "phase5_us", "total_us");
  bench::Rule();

  Rng rng(42);
  ChangeSimOptions churn;  // Paper setting: 10% per node per operation.

  for (size_t target = 1 << 10; target <= (4u << 20); target *= 4) {
    DocGenOptions gen;
    gen.target_bytes = target;
    XmlDocument base = GenerateDocument(&rng, gen);
    base.AssignInitialXids();
    Result<SimulatedChange> change = SimulateChanges(base, churn, &rng);
    if (!change.ok()) {
      std::fprintf(stderr, "%s\n", change.status().ToString().c_str());
      return 1;
    }
    const std::string old_xml = SerializeDocument(base);
    const std::string new_xml = SerializeDocument(change->new_version);
    const size_t total_bytes = old_xml.size() + new_xml.size();

    // Parse + diff, repeated a few times for stable numbers on the
    // smaller inputs.
    const int reps = total_bytes < (1 << 18) ? 5 : 1;
    double parse_s = 0;
    DiffStats stats{};
    for (int rep = 0; rep < reps; ++rep) {
      Timer parse_timer;
      Result<XmlDocument> old_doc = ParseXml(old_xml);
      Result<XmlDocument> new_doc = ParseXml(new_xml);
      parse_s += parse_timer.Seconds();
      if (!old_doc.ok() || !new_doc.ok()) {
        std::fprintf(stderr, "parse error\n");
        return 1;
      }
      old_doc->AssignInitialXids();
      DiffStats s{};
      Result<Delta> delta =
          XyDiff(&old_doc.value(), &new_doc.value(), DiffOptions{}, &s);
      if (!delta.ok()) {
        std::fprintf(stderr, "%s\n", delta.status().ToString().c_str());
        return 1;
      }
      stats = s;
    }
    parse_s /= reps;

    const double p12 =
        (parse_s + stats.phase1_seconds + stats.phase2_seconds) * 1e6;
    const double p3 = stats.phase3_seconds * 1e6;
    const double index = stats.candidate_index_seconds * 1e6;
    const double p4 = stats.phase4_seconds * 1e6;
    const double p5 = stats.phase5_seconds * 1e6;
    std::printf("%-12zu %-10zu %12.0f %12.0f %12.0f %12.0f %12.0f %12.0f\n",
                total_bytes, stats.nodes_old + stats.nodes_new, p12, p3, index,
                p4, p5, p12 + p3 + p4 + p5);
  }

  std::printf(
      "\nExpected shape (paper): all phases near-linear in input size;\n"
      "phases 3+4 (matching) cheapest; parsing/hashing and delta\n"
      "construction (DOM manipulation) dominate.\n");
  return 0;
}
