// Warehouse throughput — the motivating requirement of §1/§2.
//
// "In the Xyleme project, we were lead to compute the diff between the
// millions of documents loaded each day and previous versions of these
// documents ... The diff has to run at the speed of the indexer (not to
// slow down the whole system). It also has to use little memory."
//
// This bench drives the full ingest path — parse old + new, diff, write
// the delta — over a web-like corpus and reports documents/second and
// MB/second for one core, plus the projected documents/day. (A crawler
// loading "millions of pages per day" needs ~12 docs/s sustained per
// million.)

#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "core/buld.h"
#include "delta/delta_xml.h"
#include "simulator/change_simulator.h"
#include "simulator/web_corpus.h"
#include "util/random.h"
#include "version/warehouse.h"
#include "xml/parser.h"
#include "xml/serializer.h"

int main() {
  using namespace xydiff;
  using bench::Timer;

  bench::Banner("Warehouse ingest throughput (single core)",
                "ICDE 2002 paper, Sections 1-2 throughput requirement");

  Rng rng(604800);  // Seconds per week.
  WebCorpusOptions corpus_options;
  corpus_options.document_count = 300;
  std::vector<XmlDocument> corpus = GenerateWebCorpus(&rng, corpus_options);
  const ChangeSimOptions weekly = WeeklyWebChangeProfile();

  // Materialize the version pairs as text, as the crawler would hand
  // them over.
  struct Pair {
    std::string old_xml;
    std::string new_xml;
  };
  std::vector<Pair> pairs;
  pairs.reserve(corpus.size());
  size_t total_bytes = 0;
  for (XmlDocument& doc : corpus) {
    doc.AssignInitialXids();
    Result<SimulatedChange> change = SimulateChanges(doc, weekly, &rng);
    if (!change.ok()) return 1;
    Pair pair{SerializeDocument(doc),
              SerializeDocument(change->new_version)};
    total_bytes += pair.old_xml.size() + pair.new_xml.size();
    pairs.push_back(std::move(pair));
  }

  // The measured loop: parse both versions, diff, serialize the delta.
  // Best-of-3: the box's clock frequency drifts ±10%, and a single
  // timing would make the pipelined-vs-straight-line ratio below
  // depend on *when* each side ran rather than on the code.
  double seconds = 0;
  size_t delta_bytes = 0;
  size_t operations = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Timer timer;
    size_t rep_delta_bytes = 0;
    size_t rep_operations = 0;
    for (const Pair& pair : pairs) {
      Result<XmlDocument> old_doc = ParseXml(pair.old_xml);
      Result<XmlDocument> new_doc = ParseXml(pair.new_xml);
      if (!old_doc.ok() || !new_doc.ok()) return 1;
      old_doc->AssignInitialXids();
      Result<Delta> delta = XyDiff(&old_doc.value(), &new_doc.value());
      if (!delta.ok()) return 1;
      rep_delta_bytes += SerializeDelta(*delta).size();
      rep_operations += delta->operation_count();
    }
    const double rep_seconds = timer.Seconds();
    if (rep == 0 || rep_seconds < seconds) seconds = rep_seconds;
    delta_bytes = rep_delta_bytes;
    operations = rep_operations;
  }

  const double docs_per_second = static_cast<double>(pairs.size()) / seconds;
  const double mb_per_second = static_cast<double>(total_bytes) / seconds / 1e6;
  const size_t peak_rss = bench::PeakRssBytes();
  std::printf("documents      : %zu version pairs, %s of XML\n", pairs.size(),
              bench::Bytes(static_cast<double>(total_bytes)).c_str());
  std::printf("wall time      : %.2f s\n", seconds);
  std::printf("throughput     : %.0f docs/s, %s/s\n", docs_per_second,
              bench::Bytes(static_cast<double>(total_bytes) / seconds).c_str());
  std::printf("projected      : %.1f million docs/day on one core\n",
              docs_per_second * 86400.0 / 1e6);
  std::printf("delta output   : %s, %zu operations\n",
              bench::Bytes(static_cast<double>(delta_bytes)).c_str(),
              operations);
  std::printf("peak RSS       : %s\n",
              bench::Bytes(static_cast<double>(peak_rss)).c_str());

  {
    // Machine-readable result, next to the binary. `baseline` is the
    // last recorded pre-arena measurement on the reference box (see
    // BENCH_throughput.json at the repo root), kept here so a regression
    // shows up in the same file that reports the new number.
    bench::JsonReport baseline;
    baseline.AddNumber("docs_per_second", 327.0);
    baseline.AddNumber("mb_per_second", 29.71);
    baseline.AddNumber("peak_rss_bytes", 718900.0 * 1024.0);
    bench::JsonReport report;
    report.AddString("bench", "throughput");
    report.AddNumber("documents", static_cast<double>(pairs.size()));
    report.AddNumber("xml_bytes", static_cast<double>(total_bytes));
    report.AddNumber("wall_seconds", seconds);
    report.AddNumber("docs_per_second", docs_per_second);
    report.AddNumber("mb_per_second", mb_per_second);
    report.AddNumber("peak_rss_bytes", static_cast<double>(peak_rss));
    report.AddNumber("delta_bytes", static_cast<double>(delta_bytes));
    report.AddNumber("operations", static_cast<double>(operations));
    report.AddObject("baseline", baseline);
    if (!report.WriteFile("BENCH_throughput.json")) {
      std::fprintf(stderr, "warning: could not write BENCH_throughput.json\n");
    } else {
      std::printf("json report    : BENCH_throughput.json\n");
    }
  }
  // --- Part 2: the warehouse's parallel ingest (per-document work is
  // embarrassingly parallel; Figure 1's pipeline shards by document).
  // Nothing searches, so no full-text index is built or maintained. ----
  std::printf("\n--- warehouse batch ingest (diff pipeline + alerter +"
              " stats) ---\n");
  std::printf("hardware concurrency: %u core(s) — thread scaling is only\n"
              "observable with more than one\n",
              std::thread::hardware_concurrency());
  std::printf("%-8s %12s %12s\n", "threads", "wall_s", "docs/s");
  bench::Rule();
  for (int threads : {1, 2, 4, 8}) {
    Warehouse warehouse;
    if (!warehouse.Subscribe("all-products", "//item").ok()) return 1;
    // Week 1 (not timed): parse + first-version store.
    std::vector<std::pair<std::string, XmlDocument>> week1;
    std::vector<std::pair<std::string, XmlDocument>> week2;
    for (size_t i = 0; i < pairs.size(); ++i) {
      Result<XmlDocument> v1 = ParseXml(pairs[i].old_xml);
      Result<XmlDocument> v2 = ParseXml(pairs[i].new_xml);
      if (!v1.ok() || !v2.ok()) return 1;
      week1.emplace_back("url" + std::to_string(i), std::move(*v1));
      week2.emplace_back("url" + std::to_string(i), std::move(*v2));
    }
    for (auto& r : warehouse.IngestBatch(std::move(week1), threads)) {
      if (!r.ok()) return 1;
    }
    Timer batch_timer;
    for (auto& r : warehouse.IngestBatch(std::move(week2), threads)) {
      if (!r.ok()) return 1;
    }
    const double batch_s = batch_timer.Seconds();
    std::printf("%-8d %12.2f %12.0f\n", threads, batch_s,
                static_cast<double>(pairs.size()) / batch_s);
  }

  // --- Part 3: the DiffBatch pipeline (each slot parsed, diffed and
  // stored start to finish on one ParallelFor worker) with a thread
  // sweep recorded machine-readably in BENCH_parallel.json. -------------
  std::printf("\n--- DiffBatch pipeline (parse -> diff -> store), thread"
              " sweep ---\n");
  std::printf("%-8s %12s %12s %10s\n", "threads", "wall_s", "docs/s",
              "speedup");
  bench::Rule();

  bench::JsonReport parallel_report;
  parallel_report.AddString("bench", "parallel_pipeline");
  parallel_report.AddNumber("documents", static_cast<double>(pairs.size()));
  parallel_report.AddNumber("xml_bytes", static_cast<double>(total_bytes));
  double single_thread_docs_per_s = 0;
  for (int threads : {1, 2, 4, 8}) {
    // Best-of-3, fresh warehouse per rep (a version pair can only be
    // ingested once). No subscription, so each slot's monitor work is
    // its node index and statistics; Part 2 adds the alerter. This
    // sweep measures the pipeline itself.
    double batch_s = 0;
    PipelineStats stats;
    for (int rep = 0; rep < 3; ++rep) {
      Warehouse warehouse;
      Warehouse::PipelineOptions pipeline;
      pipeline.threads = threads;

      std::vector<Warehouse::DiffJob> week1;
      std::vector<Warehouse::DiffJob> week2;
      week1.reserve(pairs.size());
      week2.reserve(pairs.size());
      for (size_t i = 0; i < pairs.size(); ++i) {
        week1.push_back({"url" + std::to_string(i), pairs[i].old_xml});
        week2.push_back({"url" + std::to_string(i), pairs[i].new_xml});
      }
      for (auto& r : warehouse.DiffBatch(std::move(week1), pipeline)) {
        if (!r.ok()) return 1;
      }
      PipelineStats rep_stats;
      Timer batch_timer;
      for (auto& r :
           warehouse.DiffBatch(std::move(week2), pipeline, &rep_stats)) {
        if (!r.ok()) return 1;
      }
      const double rep_s = batch_timer.Seconds();
      if (rep == 0 || rep_s < batch_s) {
        batch_s = rep_s;
        stats = rep_stats;
      }
    }
    const double docs_per_s = static_cast<double>(pairs.size()) / batch_s;
    if (threads == 1) single_thread_docs_per_s = docs_per_s;
    const double speedup = single_thread_docs_per_s > 0
                               ? docs_per_s / single_thread_docs_per_s
                               : 1.0;
    std::printf("%-8d %12.2f %12.0f %9.2fx\n", threads, batch_s,
                docs_per_s, speedup);

    bench::JsonReport point;
    point.AddNumber("wall_seconds", batch_s);
    point.AddNumber("docs_per_second", docs_per_s);
    point.AddNumber("speedup_vs_1_thread", speedup);
    point.AddNumber("peak_in_flight", static_cast<double>(stats.peak_in_flight));
    for (const StageStats& stage : stats.stages) {
      point.AddNumber(stage.name + "_items",
                      static_cast<double>(stage.items));
    }
    parallel_report.AddObject("threads_" + std::to_string(threads), point);
  }
  // The PR 6 acceptance ratio: the DiffBatch pipeline at 1 thread vs the
  // part-1 straight-line loop, same corpus, same process. bench_smoke
  // gates this in ctest at >= 0.9; here it is recorded for trend lines.
  parallel_report.AddNumber("straight_line_docs_per_second", docs_per_second);
  parallel_report.AddNumber("pipelined_1_thread_docs_per_second",
                            single_thread_docs_per_s);
  parallel_report.AddNumber("pipelined_over_straight_line",
                            single_thread_docs_per_s / docs_per_second);
  std::printf("pipelined 1-thread vs straight-line: %.2fx\n",
              single_thread_docs_per_s / docs_per_second);
  if (!parallel_report.WriteFile("BENCH_parallel.json")) {
    std::fprintf(stderr, "warning: could not write BENCH_parallel.json\n");
  } else {
    std::printf("json report    : BENCH_parallel.json\n");
  }

  std::printf(
      "\nExpected shape (paper): ingest keeps pace with a crawler loading\n"
      "millions of pages per day; diff is not the pipeline bottleneck, and\n"
      "per-document work scales near-linearly across cores (observable only\n"
      "when hardware_concurrency > 1).\n");
  return 0;
}
