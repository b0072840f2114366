// Versioning storage experiment — §6.2's storage observation.
//
// "Other experiments we conducted [19] showed that the delta size is
// usually less than the size of one version. In some cases, in particular
// for larger documents (e.g. more than 100 kilobytes), the delta size is
// less than 10 percent of the size of the document."
//
// We commit a chain of weekly versions into the change-centric repository
// and report, per document size: the average delta size relative to one
// version, the total storage of (newest version + delta chain) relative
// to storing every version in full, the stored binary delta bytes
// (delta/codec.h) against the XML serialization of the same deltas, and
// the checkout latency as a function of distance from the newest version.

#include <cstdio>

#include "bench/bench_util.h"
#include "delta/delta_xml.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "simulator/web_corpus.h"
#include "util/random.h"
#include "version/repository.h"
#include "xml/serializer.h"

int main() {
  using namespace xydiff;
  using bench::Timer;

  bench::Banner("Change-centric storage: delta chains vs full versions",
                "ICDE 2002 paper, Section 6.2 storage observation (via [19])");

  Rng rng(777);
  const int kVersions = 10;
  // A stable document's week: the paper's storage observation concerns
  // ordinary web documents, most of which change only slightly between
  // crawls. (Deltas are *completed* — they carry both directions — so a
  // delta costs roughly twice the changed content.)
  ChangeSimOptions weekly;
  weekly.delete_probability = 0.002;
  weekly.update_probability = 0.01;
  weekly.insert_probability = 0.003;
  weekly.move_probability = 0.001;

  std::printf("%-12s %12s %12s %14s %14s %10s\n", "doc_bytes", "avg_delta_b",
              "delta/ver%", "chain_total_b", "full_total_b", "bin/xml");
  bench::Rule();

  for (size_t target : {16u << 10, 128u << 10, 1u << 20}) {
    DocGenOptions gen;
    gen.target_bytes = target;
    VersionRepository repo(GenerateDocument(&rng, gen));
    size_t full_total = SerializeDocument(repo.current()).size();
    size_t version_bytes_sum = full_total;

    for (int v = 1; v < kVersions; ++v) {
      Result<SimulatedChange> change =
          SimulateChanges(repo.current(), weekly, &rng);
      if (!change.ok()) return 1;
      if (!repo.Commit(std::move(change->new_version)).ok()) return 1;
      const size_t version_bytes = SerializeDocument(repo.current()).size();
      full_total += version_bytes;
      version_bytes_sum += version_bytes;
    }

    const size_t delta_total = repo.stored_delta_bytes();
    size_t xml_total = 0;
    for (const Delta& d : repo.deltas()) xml_total += SerializeDelta(d).size();
    const double avg_delta =
        static_cast<double>(delta_total) / (kVersions - 1);
    const double avg_version =
        static_cast<double>(version_bytes_sum) / kVersions;
    const size_t chain_total =
        SerializeDocument(repo.current()).size() + delta_total;
    std::printf("%-12zu %12.0f %12.1f %14zu %14zu %10.3f\n", target,
                avg_delta, 100.0 * avg_delta / avg_version, chain_total,
                full_total,
                static_cast<double>(delta_total) /
                    static_cast<double>(xml_total));
  }

  // Checkout latency by distance from the newest version.
  std::printf("\ncheckout latency by distance (1 MB document, %d versions)\n",
              kVersions);
  std::printf("%-10s %12s\n", "version", "checkout_ms");
  bench::Rule();
  {
    DocGenOptions gen;
    gen.target_bytes = 1 << 20;
    VersionRepository repo(GenerateDocument(&rng, gen));
    for (int v = 1; v < kVersions; ++v) {
      Result<SimulatedChange> change =
          SimulateChanges(repo.current(), weekly, &rng);
      if (!change.ok()) return 1;
      if (!repo.Commit(std::move(change->new_version)).ok()) return 1;
    }
    for (int v : {10, 8, 5, 1}) {
      Timer timer;
      Result<XmlDocument> doc = repo.Checkout(v);
      const double ms = timer.Seconds() * 1e3;
      if (!doc.ok()) return 1;
      std::printf("%-10d %12.2f\n", v, ms);
    }
  }

  std::printf(
      "\nExpected shape (paper/[19]): weekly deltas are a small fraction of\n"
      "one version (<10%% for large documents), so the delta chain stores a\n"
      "full history for little more than the newest version; the binary\n"
      "codec stores each delta in a fraction of its XML bytes; checkout\n"
      "cost grows with distance from the newest version.\n");
  return 0;
}
