// Pipeline regression smoke gate — run as a ctest, not a benchmark.
//
// The DiffBatch pipeline exists to ADD value over a straight
// diff loop (persistence, alerts, change statistics), so it
// must never again cost 3x the throughput (the regression this gate was
// born from: 179 docs/s pipelined vs 540 straight-line). Both paths run
// in this one process, interleaved trial by trial on the same corpus,
// so frequency drift and cache state cancel out; the gate fails
// (exit 1) if the 1-thread pipeline delivers less than 0.9x the
// straight-line docs/s.
//
// Each path is timed kTrials times and the gate compares the BEST run
// of each: a single 0.2s sample on a loaded single-core host jitters
// past the threshold (observed 0.87x–1.07x across back-to-back runs of
// the one-sample version of this gate), while the minimum is stable and
// a real 3x regression cannot hide in it.
//
// The corpus is kept small (100 documents) so the gate stays under a
// few seconds in CI; the ratio, not the absolute rate, is the contract.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/buld.h"
#include "delta/delta_xml.h"
#include "simulator/change_simulator.h"
#include "simulator/web_corpus.h"
#include "util/random.h"
#include "version/warehouse.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace {

using namespace xydiff;

struct Pair {
  std::string old_xml, new_xml;
};

constexpr double kMinRatio = 0.9;
constexpr int kTrials = 3;

// Straight-line: parse both versions, diff, serialize — the loop the
// pipeline replaces. Returns elapsed seconds, or < 0 on error.
double RunStraightLine(const std::vector<Pair>& pairs, size_t* bytes_out) {
  size_t bytes = 0;
  bench::Timer timer;
  for (const Pair& p : pairs) {
    Result<XmlDocument> v1 = ParseXml(p.old_xml);
    Result<XmlDocument> v2 = ParseXml(p.new_xml);
    if (!v1.ok() || !v2.ok()) return -1.0;
    v1->AssignInitialXids();
    Result<Delta> delta = XyDiff(&*v1, &*v2, {});
    if (!delta.ok()) return -1.0;
    bytes += SerializeDelta(*delta).size();
  }
  *bytes_out = bytes;
  return timer.Seconds();
}

// Pipelined: a fresh warehouse per trial — week 1 seeds it (untimed),
// week 2 is the timed 1-thread DiffBatch pipeline. A fresh warehouse keeps
// every trial diffing version 1 -> version 2, the same work as the
// straight-line loop. Returns elapsed seconds, or < 0 on error.
double RunPipelined(const std::vector<Pair>& pairs, size_t* bytes_out) {
  Warehouse warehouse;
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 1;
  std::vector<Warehouse::DiffJob> week1, week2;
  week1.reserve(pairs.size());
  week2.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    week1.push_back({"url" + std::to_string(i), pairs[i].old_xml});
    week2.push_back({"url" + std::to_string(i), pairs[i].new_xml});
  }
  for (auto& r : warehouse.DiffBatch(std::move(week1), pipeline)) {
    if (!r.ok()) {
      std::fprintf(stderr, "week1 pipeline failed: %s\n",
                   r.status().ToString().c_str());
      return -1.0;
    }
  }
  size_t bytes = 0;
  bench::Timer timer;
  for (auto& r : warehouse.DiffBatch(std::move(week2), pipeline)) {
    if (!r.ok()) {
      std::fprintf(stderr, "week2 pipeline failed: %s\n",
                   r.status().ToString().c_str());
      return -1.0;
    }
    bytes += r->delta_bytes;
  }
  *bytes_out = bytes;
  return timer.Seconds();
}

}  // namespace

int main() {
  Rng rng(604800);
  WebCorpusOptions corpus_options;
  corpus_options.document_count = 100;
  std::vector<XmlDocument> corpus = GenerateWebCorpus(&rng, corpus_options);
  const ChangeSimOptions weekly = WeeklyWebChangeProfile();
  std::vector<Pair> pairs;
  pairs.reserve(corpus.size());
  for (XmlDocument& doc : corpus) {
    doc.AssignInitialXids();
    Result<SimulatedChange> change = SimulateChanges(doc, weekly, &rng);
    if (!change.ok()) {
      std::fprintf(stderr, "corpus construction failed\n");
      return 1;
    }
    pairs.push_back({SerializeDocument(doc),
                     SerializeDocument(change->new_version)});
  }

  double straight_best = -1.0, pipelined_best = -1.0;
  size_t straight_bytes = 0, pipelined_bytes = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    size_t sb = 0, pb = 0;
    const double ss = RunStraightLine(pairs, &sb);
    if (ss < 0) return 1;
    const double ps = RunPipelined(pairs, &pb);
    if (ps < 0) return 1;
    if (pb != sb) {
      // Both paths diff the same 100 version pairs; serialized delta
      // volume must agree or the "same work" premise of the gate is
      // gone.
      std::fprintf(stderr,
                   "FAIL: delta volume diverged (%zu straight vs %zu "
                   "pipelined) in trial %d\n",
                   sb, pb, trial + 1);
      return 1;
    }
    straight_bytes = sb;
    pipelined_bytes = pb;
    if (straight_best < 0 || ss < straight_best) straight_best = ss;
    if (pipelined_best < 0 || ps < pipelined_best) pipelined_best = ps;
  }

  const double docs = static_cast<double>(pairs.size());
  const double straight_rate = docs / straight_best;
  const double pipelined_rate = docs / pipelined_best;
  const double ratio = pipelined_rate / straight_rate;
  std::printf("straight-line : %7.0f docs/s (best of %d: %.3fs, %zu delta "
              "bytes)\n",
              straight_rate, kTrials, straight_best, straight_bytes);
  std::printf("pipelined (1t): %7.0f docs/s (best of %d: %.3fs, %zu delta "
              "bytes)\n",
              pipelined_rate, kTrials, pipelined_best, pipelined_bytes);
  std::printf("ratio         : %.2fx (gate: >= %.2fx)\n", ratio, kMinRatio);

  if (ratio < kMinRatio) {
    std::fprintf(stderr,
                 "FAIL: staged pipeline fell below %.2fx of straight-line "
                 "throughput\n",
                 kMinRatio);
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
