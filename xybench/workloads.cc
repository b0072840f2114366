#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <utility>

#include "core/candidates.h"
#include "delta/diff_tree.h"
#include "delta/signature.h"
#include "xydiff.h"

namespace xybench {
namespace {

using xydiff::ChangeSimOptions;
using xydiff::Delta;
using xydiff::DiffStats;
using xydiff::Rng;
using xydiff::Warehouse;
using xydiff::XmlDocument;

constexpr int kSetupRepetitions = 3;

// --- Inputs ------------------------------------------------------------------

double InverseNormalCdf(double q) {
  double lo = -10, hi = 10;
  for (int i = 0; i < 80; ++i) {
    const double mid = (lo + hi) / 2;
    if (0.5 * std::erfc(-mid / std::sqrt(2.0)) < q) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return (lo + hi) / 2;
}

/// The web corpus's log-normal size law (simulator/web_corpus.h: median
/// 8 KB, sigma 1.8, clamped), sampled at evenly spaced quantiles instead
/// of at random: every seed gets the same size mix, so throughput does not
/// swing with how many tail documents a seed happens to draw. The seed
/// still picks each document's content, shape and position.
std::vector<size_t> LogNormalSizes(size_t count, size_t max_bytes) {
  const xydiff::WebCorpusOptions web;
  std::vector<size_t> sizes;
  for (size_t i = 0; i < count; ++i) {
    const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(count);
    const double bytes =
        std::exp(std::log(static_cast<double>(web.median_bytes)) +
                 web.log_sigma * InverseNormalCdf(q));
    sizes.push_back(static_cast<size_t>(
        std::clamp(bytes, static_cast<double>(web.min_bytes),
                   static_cast<double>(std::min(max_bytes, web.max_bytes)))));
  }
  return sizes;
}

template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->NextIndex(i)]);
  }
}

/// Catalog documents of the given sizes, in seeded order, with XIDs.
std::vector<XmlDocument> GenerateCorpus(Rng* rng, std::vector<size_t> sizes) {
  Shuffle(&sizes, rng);
  std::vector<XmlDocument> corpus;
  for (size_t size : sizes) {
    xydiff::DocGenOptions options;
    options.target_bytes = size;
    corpus.push_back(xydiff::GenerateDocument(rng, options));
    corpus.back().AssignInitialXids();
  }
  return corpus;
}

std::vector<std::string> SerializeAll(const std::vector<XmlDocument>& docs) {
  std::vector<std::string> out;
  out.reserve(docs.size());
  for (const XmlDocument& doc : docs) out.push_back(SerializeDocument(doc));
  return out;
}

std::string Url(size_t i) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "doc-%04zu", i);
  return buffer;
}

std::vector<std::string> Urls(size_t count) {
  std::vector<std::string> urls;
  for (size_t i = 0; i < count; ++i) urls.push_back(Url(i));
  return urls;
}

/// One simulated week applied to every document: the new texts and the
/// sizes of the simulator's perfect delta.
struct Week {
  std::vector<std::string> xml;
  std::vector<size_t> perfect_bytes;
};

bool Evolve(std::vector<XmlDocument>* docs, const ChangeSimOptions& profile,
            Rng* rng, Week* week, RunResult* result) {
  for (XmlDocument& doc : *docs) {
    xydiff::Result<xydiff::SimulatedChange> change =
        xydiff::SimulateChanges(doc, profile, rng);
    if (!change.ok()) {
      result->Fail("simulator: " + change.status().ToString());
      return false;
    }
    week->perfect_bytes.push_back(
        xydiff::SerializeDelta(change->perfect_delta).size());
    doc = std::move(change->new_version);
    week->xml.push_back(SerializeDocument(doc));
  }
  return true;
}

/// Negative control: when enabled, the first checked output is damaged
/// before it is compared, and the check must report it.
class Corrupter {
 public:
  explicit Corrupter(bool enabled) : armed_(enabled) {}
  void Apply(std::string* output) {
    if (!armed_) return;
    armed_ = false;
    output->push_back('!');
  }

 private:
  bool armed_;
};

/// Median of the set-up repetitions; the extremes go to the info line.
double SetupMedian(const std::vector<double>& seconds, RunResult* result) {
  result->info["setup_min_s"] = *std::min_element(seconds.begin(), seconds.end());
  result->info["setup_max_s"] = *std::max_element(seconds.begin(), seconds.end());
  return Median(seconds);
}

// --- Warehouse plumbing ------------------------------------------------------

Warehouse::PipelineOptions Pipeline(int threads, const std::string& store,
                                    xydiff::Env* env) {
  Warehouse::PipelineOptions pipeline;
  pipeline.threads = threads;
  pipeline.save_directory = store;
  pipeline.env = env;
  return pipeline;
}

/// The two subscriptions the crawl registers, so alerts run inline.
template <typename Target>
bool Subscribe(Target* target) {
  return target->Subscribe("new-nodes", "//*", xydiff::ChangeKind::kInsert)
             .ok() &&
         target->Subscribe("updates", "//*", xydiff::ChangeKind::kUpdate).ok();
}

/// First sight of every URL through DiffBatch, then one Save so the store
/// holds version 1 (DiffBatch persists only slots that carry a delta).
bool LoadFirstVersions(Warehouse* warehouse,
                       const std::vector<std::string>& urls,
                       const std::vector<std::string>& xml, int threads,
                       const std::string& store, xydiff::Env* env,
                       RunResult* result) {
  std::vector<Warehouse::DiffJob> jobs;
  for (size_t i = 0; i < urls.size(); ++i) jobs.push_back({urls[i], xml[i]});
  for (auto& report : warehouse->DiffBatch(std::move(jobs),
                                           Pipeline(threads, "", env))) {
    if (!report.ok()) {
      result->Fail("first version: " + report.status().ToString());
      return false;
    }
  }
  const xydiff::Status saved = warehouse->Save(store, env);
  if (!saved.ok()) {
    result->Fail("save: " + saved.ToString());
    return false;
  }
  return true;
}

/// Checks one hand-off's reports; returns the summed delta bytes.
size_t CheckReports(
    const std::vector<xydiff::Result<Warehouse::IngestReport>>& reports,
    RunResult* result) {
  size_t delta_bytes = 0;
  for (const auto& report : reports) {
    if (!report.ok()) {
      result->Fail("slot: " + report.status().ToString());
    } else if (report->store_degraded || report->first_version) {
      result->Fail("slot not committed durably: " + report->url);
    } else {
      delta_bytes += report->delta_bytes;
    }
  }
  return delta_bytes;
}

/// `peak_rss_mb` is read after a fixed amount of work, not at the end of
/// the window: the warehouse keeps every delta in memory, so a faster
/// build would otherwise show a higher peak for having done more rounds.
void SetEndToEnd(RunResult* result, double setup_s, const Window& window,
                 double peak_rss_mb, double store_bytes_per_input_byte,
                 double delta_size_ratio) {
  const Window::Summary summary = window.Summarize();
  result->Set("setup_s", setup_s, "s");
  result->Set("ops_per_s", summary.ops_per_s, "1/s");
  result->Set("latency_ms_p50", summary.p50_ms, "ms");
  result->Set("latency_ms_p90", summary.p90_ms, "ms");
  result->Set("ok_frac",
              result->attempted == 0
                  ? 0
                  : 1.0 - static_cast<double>(result->failed) /
                              static_cast<double>(result->attempted),
              "ratio");
  result->Set("peak_rss_mb", peak_rss_mb, "MB");
  result->Set("store_bytes_per_input_byte", store_bytes_per_input_byte,
              "ratio");
  result->Set("delta_size_ratio", delta_size_ratio, "ratio");
  result->info["latency_samples"] = static_cast<double>(summary.samples);
  result->info["blocks"] = static_cast<double>(summary.blocks);
  result->info["slowest_block_ops_per_s"] = summary.slowest_block_ops_per_s;
  result->info["fastest_block_ops_per_s"] = summary.fastest_block_ops_per_s;
  result->info["busy_seconds"] = window.busy_seconds();
}

// --- Traced run --------------------------------------------------------------

/// What the traced run replays: round 0 holds every document's first
/// version, each later round one new version per document, handed off
/// in `batch`-sized DiffBatch calls.
struct IngestPlan {
  std::vector<std::string> urls;
  std::vector<std::vector<const std::string*>> rounds;  // [round][doc]
  size_t batch = 32;
};

struct DiffBatchPass {
  double seconds = 0;  // Summed DiffBatch wall time, rounds >= 1.
  size_t docs = 0;
  size_t peak_in_flight = 0;
  size_t peak_queue = 0;
  double stall_seconds = 0;
};

std::vector<Warehouse::DiffJob> RoundJobs(const IngestPlan& plan, size_t round,
                                          size_t begin, size_t end) {
  std::vector<Warehouse::DiffJob> jobs;
  for (size_t d = begin; d < end; ++d) {
    jobs.push_back({plan.urls[d], *plan.rounds[round][d]});
  }
  return jobs;
}

/// The product path, untraced: DiffBatch with `threads` workers.
bool RunDiffBatchPass(const IngestPlan& plan, int threads, DiffBatchPass* pass,
                      RunResult* result) {
  const std::string store = "store";
  MemoryEnv env;
  Warehouse warehouse;
  if (!Subscribe(&warehouse)) return false;
  std::vector<std::string> first;
  for (const std::string* xml : plan.rounds[0]) first.push_back(*xml);
  if (!LoadFirstVersions(&warehouse, plan.urls, first, threads, store, &env,
                         result)) {
    return false;
  }
  for (size_t round = 1; round < plan.rounds.size(); ++round) {
    for (size_t begin = 0; begin < plan.urls.size(); begin += plan.batch) {
      const size_t end = std::min(plan.urls.size(), begin + plan.batch);
      std::vector<Warehouse::DiffJob> jobs = RoundJobs(plan, round, begin, end);
      xydiff::PipelineStats stats;
      const auto start = Clock::now();
      auto reports = warehouse.DiffBatch(std::move(jobs),
                                         Pipeline(threads, store, &env), &stats);
      pass->seconds += SecondsSince(start);
      CheckReports(reports, result);
      pass->docs += end - begin;
      pass->peak_in_flight = std::max(pass->peak_in_flight, stats.peak_in_flight);
      for (const xydiff::StageStats& stage : stats.stages) {
        pass->stall_seconds += stage.stall_seconds;
        // The parse stage's "queue" is the admission backlog, not a
        // hand-off queue; only the two inter-stage queues count here.
        if (stage.name != "parse") {
          pass->peak_queue = std::max(pass->peak_queue, stage.peak_queue_depth);
        }
      }
    }
  }
  return true;
}

/// Spans that mirror a DiffBatch slot's work; their self times plus
/// version.diffbatch.overhead_us make up the untraced per-doc time.
constexpr const char* kAccountedSpans[] = {
    "xml.parse",          "version.commit",   "core.phase12", "core.phase3",
    "core.phase4",        "core.phase5",      "monitor.node_index",
    "monitor.alert_eval", "delta.xml_serialize", "version.save_batch"};

struct TracedIngest {
  double wall_seconds = 0;  // Rounds >= 1, probes excluded.
  size_t docs = 0;
  DiffStats diff;           // Summed over every commit.
  MemoryEnv::Counts counts;
  size_t alerts = 0;
};

/// The same slots as RunDiffBatchPass at one thread, through the public
/// layer calls DiffBatch makes, each in a span: ParseXml (into a pooled
/// arena, as DiffBatch does) -> VersionRepository::Commit ->
/// DeltaNodeIndex::Build + Alerter::Evaluate -> SerializeDelta ->
/// SaveRepositoryBatch (groups of 8, DiffBatch's default). Two probes run
/// after the replay, outside the accounted spans and its wall time:
/// EncodeDeltaBinary of every committed delta (DiffBatch runs it inside
/// the save) and the Phase 3 candidate index built on the same inputs.
/// The store is left in `env` under `store`.
bool RunTracedIngest(const IngestPlan& plan, const std::string& store,
                     MemoryEnv* env, Tracer* tracer, TracedIngest* out,
                     RunResult* result) {
  constexpr size_t kGroup = 8;
  xydiff::Alerter alerter;
  if (!Subscribe(&alerter)) return false;
  xydiff::ArenaPool arenas;
  const auto parse = [&](const std::string& xml) {
    xydiff::ParseOptions options;
    options.arena = arenas.Acquire(
        std::min(std::max(xml.size(), xydiff::Arena::kDefaultFirstBlock),
                 xydiff::Arena::kMaxBlock));
    return xydiff::ParseXml(xml, options);
  };
  std::vector<std::unique_ptr<xydiff::VersionRepository>> repos;
  for (size_t d = 0; d < plan.urls.size(); ++d) {
    xydiff::Result<XmlDocument> doc = parse(*plan.rounds[0][d]);
    if (!doc.ok()) {
      result->Fail("parse: " + doc.status().ToString());
      return false;
    }
    repos.push_back(
        std::make_unique<xydiff::VersionRepository>(std::move(*doc)));
    const xydiff::Status saved =
        SaveRepository(*repos.back(), store + "/" + plan.urls[d], env);
    if (!saved.ok()) {
      result->Fail("save: " + saved.ToString());
      return false;
    }
  }
  const MemoryEnv::Counts before = env->counts();
  const auto start = Clock::now();
  for (size_t round = 1; round < plan.rounds.size(); ++round) {
    std::vector<xydiff::RepositorySaveSlot> group;
    const auto flush = [&] {
      if (group.empty()) return;
      xydiff::Status saved;
      {
        Tracer::Scope span(tracer, "version.save_batch");
        saved = xydiff::SaveRepositoryBatch(group, store, env);
      }
      if (!saved.ok()) result->Fail("save batch: " + saved.ToString());
      group.clear();
    };
    for (size_t d = 0; d < plan.urls.size(); ++d) {
      tracer->BeginOp();
      xydiff::Result<XmlDocument> doc = [&] {
        Tracer::Scope span(tracer, "xml.parse");
        return parse(*plan.rounds[round][d]);
      }();
      if (!doc.ok()) {
        result->Fail("parse: " + doc.status().ToString());
        continue;
      }
      xydiff::VersionRepository& repo = *repos[d];
      XmlDocument old_version;
      xydiff::Result<int> version = [&] {
        Tracer::Scope span(tracer, "version.commit");
        xydiff::Result<int> v =
            repo.Commit(std::move(*doc), xydiff::DiffOptions(), &old_version);
        const DiffStats& s = repo.last_commit_stats();
        tracer->AddTimedChild(span.index(), "core.phase12",
                              s.phase1_seconds + s.phase2_seconds);
        tracer->AddTimedChild(span.index(), "core.phase3", s.phase3_seconds);
        tracer->AddTimedChild(span.index(), "core.phase4", s.phase4_seconds);
        tracer->AddTimedChild(span.index(), "core.phase5", s.phase5_seconds);
        return v;
      }();
      if (!version.ok()) {
        result->Fail("commit: " + version.status().ToString());
        continue;
      }
      const DiffStats& s = repo.last_commit_stats();
      out->diff.nodes_old += s.nodes_old;
      out->diff.nodes_new += s.nodes_new;
      out->diff.matched_nodes += s.matched_nodes;
      out->diff.queue_pops += s.queue_pops;
      out->diff.candidates_scanned += s.candidates_scanned;
      const Delta& delta = **repo.DeltaFor(*version - 1);
      xydiff::DeltaNodeIndex nodes = [&] {
        Tracer::Scope span(tracer, "monitor.node_index");
        return xydiff::DeltaNodeIndex::Build(delta, old_version, repo.current());
      }();
      {
        Tracer::Scope span(tracer, "monitor.alert_eval");
        out->alerts += alerter.Evaluate(delta, nodes).size();
      }
      {
        Tracer::Scope span(tracer, "delta.xml_serialize");
        if (xydiff::SerializeDelta(delta).empty()) result->Fail("empty delta");
      }
      group.push_back({&repo, plan.urls[d]});
      ++out->docs;
      if (group.size() == kGroup || (d + 1) % plan.batch == 0 ||
          d + 1 == plan.urls.size()) {
        flush();
      }
    }
  }
  out->wall_seconds = SecondsSince(start);
  const MemoryEnv::Counts after = env->counts();
  out->counts.syncs = after.syncs - before.syncs;
  out->counts.bytes_written = after.bytes_written - before.bytes_written;
  out->counts.renames = after.renames - before.renames;

  for (const auto& repo : repos) {
    for (const Delta& delta : repo->deltas()) {
      Tracer::Scope span(tracer, "delta.encode");
      if (xydiff::EncodeDeltaBinary(delta).empty()) {
        result->Fail("empty binary delta");
      }
    }
  }
  for (size_t round = 1; round < plan.rounds.size(); ++round) {
    for (size_t d = 0; d < plan.urls.size(); ++d) {
      xydiff::Result<XmlDocument> a = parse(*plan.rounds[round - 1][d]);
      xydiff::Result<XmlDocument> b = parse(*plan.rounds[round][d]);
      if (!a.ok() || !b.ok()) continue;
      Tracer::Scope span(tracer, "core.candidate_index");
      xydiff::LabelTable labels;
      xydiff::DiffTree old_tree = xydiff::DiffTree::Build(&*a, &labels);
      xydiff::DiffTree new_tree = xydiff::DiffTree::Build(&*b, &labels);
      xydiff::ComputeSignaturesAndWeights(&old_tree, xydiff::DiffOptions());
      xydiff::ComputeSignaturesAndWeights(&new_tree, xydiff::DiffOptions());
      const xydiff::CandidateIndex index(&old_tree);
      // The root of an unchanged document always finds its twin.
      if (old_tree.signature(0) == new_tree.signature(0) &&
          index.Find(new_tree.signature(0)) == nullptr) {
        result->Fail("candidate index lost a subtree");
      }
    }
  }
  return true;
}

/// Read-side probes on a persisted store: LoadRepository per document,
/// FullTextIndex::Build + Lookup, and VersionRepository::Checkout of
/// seeded versions with CheckoutStats.
bool RunTracedReads(const std::vector<std::string>& urls,
                    const std::string& store, xydiff::Env* env,
                    size_t checkouts, size_t searches, Rng* rng,
                    Tracer* tracer, size_t* applications, RunResult* result) {
  std::vector<xydiff::VersionRepository> repos;
  std::vector<xydiff::FullTextIndex> indexes;
  std::vector<std::string> words;
  for (const std::string& url : urls) {
    tracer->BeginOp();
    xydiff::Result<xydiff::VersionRepository> repo = [&] {
      Tracer::Scope span(tracer, "version.load");
      return xydiff::LoadRepository(store + "/" + url, env);
    }();
    if (!repo.ok()) {
      result->Fail("load: " + repo.status().ToString());
      return false;
    }
    {
      Tracer::Scope span(tracer, "monitor.index_build");
      indexes.push_back(xydiff::FullTextIndex::Build(repo->current()));
    }
    repo->current().root()->Visit([&](const xydiff::XmlNode* n) {
      if (n->is_text() && rng->NextIndex(64) == 0) {
        for (std::string& w : xydiff::FullTextIndex::Tokenize(n->text())) {
          words.push_back(std::move(w));
        }
      }
    });
    repos.push_back(std::move(*repo));
  }
  if (words.empty()) words.push_back("catalog");
  for (size_t i = 0; i < searches; ++i) {
    tracer->BeginOp();
    const size_t d = rng->NextIndex(repos.size());
    Tracer::Scope span(tracer, "monitor.search");
    indexes[d].Lookup(words[rng->NextIndex(words.size())]);
  }
  for (size_t i = 0; i < checkouts; ++i) {
    tracer->BeginOp();
    const size_t d = rng->NextIndex(repos.size());
    const int version =
        1 + static_cast<int>(rng->NextIndex(
                static_cast<size_t>(repos[d].version_count())));
    xydiff::CheckoutStats stats;
    xydiff::Result<XmlDocument> doc = [&] {
      Tracer::Scope span(tracer, "version.checkout");
      return repos[d].Checkout(version, &stats);
    }();
    if (!doc.ok()) result->Fail("checkout: " + doc.status().ToString());
    *applications += stats.applications;
  }
  return true;
}

/// A persisted store for the read probes: `urls` under `directory` in
/// `env`. Without one, the probes read the store the traced replay wrote.
struct ReadStore {
  std::vector<std::string> urls;
  std::string directory;
  xydiff::Env* env = nullptr;
};

/// Runs the untraced passes, the traced replay and the read probes, and
/// reports every per-layer metric.
void TraceLayers(const IngestPlan& plan, ReadStore reads,
                 const RunOptions& options, size_t probes, RunResult* result) {
  // The multi-threaded pass goes first and doubles as the warm-up, so the
  // 1-thread pass and the replay compared against it both run warm.
  DiffBatchPass one, many;
  if (!RunDiffBatchPass(plan, kThreads, &many, result) ||
      !RunDiffBatchPass(plan, 1, &one, result)) {
    return;
  }
  Tracer tracer;
  TracedIngest ingest;
  MemoryEnv replay_env;
  if (!RunTracedIngest(plan, "replay", &replay_env, &tracer, &ingest,
                       result)) {
    return;
  }
  if (reads.env == nullptr) reads = {plan.urls, "replay", &replay_env};
  Rng rng(options.seed ^ 0x7EADULL);
  size_t applications = 0;
  if (!RunTracedReads(reads.urls, reads.directory, reads.env, probes,
                      probes / 4 + 1, &rng, &tracer, &applications, result)) {
    return;
  }
  result->attempted += ingest.docs + probes + probes / 4 + 1 + one.docs +
                       many.docs;

  const auto totals = tracer.Summarize();
  const auto get = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? Tracer::Totals{} : it->second;
  };
  const auto self_per_call = [&](const char* name) {
    const Tracer::Totals t = get(name);
    return t.calls == 0 ? 0.0 : t.self_us / static_cast<double>(t.calls);
  };
  const double docs = static_cast<double>(std::max<size_t>(ingest.docs, 1));
  double accounted_us = 0;
  for (const char* name : kAccountedSpans) accounted_us += get(name).self_us;
  const double untraced_us = one.seconds * 1e6 / static_cast<double>(
                                                      std::max<size_t>(one.docs, 1));
  const double traced_us = ingest.wall_seconds * 1e6 / docs;

  result->Set("xml.parse.us", self_per_call("xml.parse"), "us");
  result->Set("xml.parse.share",
              accounted_us > 0 ? get("xml.parse").self_us / accounted_us : 0,
              "ratio");
  result->Set("core.phase12.us", self_per_call("core.phase12"), "us");
  result->Set("core.phase3.us", self_per_call("core.phase3"), "us");
  result->Set("core.phase4.us", self_per_call("core.phase4"), "us");
  result->Set("core.phase5.us", self_per_call("core.phase5"), "us");
  result->Set("core.candidate_index.us", self_per_call("core.candidate_index"),
              "us");
  const double nodes_new =
      static_cast<double>(std::max<size_t>(ingest.diff.nodes_new, 1));
  result->Set("core.matched_frac",
              static_cast<double>(ingest.diff.matched_nodes) / nodes_new,
              "ratio");
  result->Set("core.queue_pops_per_node",
              static_cast<double>(ingest.diff.queue_pops) / nodes_new, "count");
  result->Set("core.candidates_scanned_per_node",
              static_cast<double>(ingest.diff.candidates_scanned) / nodes_new,
              "count");
  result->Set("delta.xml_serialize.us", self_per_call("delta.xml_serialize"),
              "us");
  result->Set("delta.encode.us", self_per_call("delta.encode"), "us");
  result->Set("version.commit.us", self_per_call("version.commit"), "us");
  result->Set("version.save_batch.us_per_doc",
              get("version.save_batch").self_us / docs, "us");
  result->Set("version.syncs_per_doc",
              static_cast<double>(ingest.counts.syncs) / docs, "count");
  result->Set("version.bytes_written_per_doc",
              static_cast<double>(ingest.counts.bytes_written) / docs, "bytes");
  result->Set("version.renames_per_doc",
              static_cast<double>(ingest.counts.renames) / docs, "count");
  const Tracer::Totals checkout = get("version.checkout");
  result->Set("version.checkout.us", self_per_call("version.checkout"), "us");
  result->Set("version.checkout.applications",
              static_cast<double>(applications) /
                  static_cast<double>(std::max<uint64_t>(checkout.calls, 1)),
              "count");
  result->Set("delta.apply.us",
              checkout.self_us /
                  static_cast<double>(std::max<size_t>(applications, 1)),
              "us");
  result->Set("version.load.us_per_doc", self_per_call("version.load"), "us");
  result->Set("monitor.node_index.us", self_per_call("monitor.node_index"),
              "us");
  result->Set("monitor.alert_eval.us", self_per_call("monitor.alert_eval"),
              "us");
  result->Set("monitor.alerts_per_doc",
              static_cast<double>(ingest.alerts) / docs, "count");
  result->Set("monitor.index_build.us", self_per_call("monitor.index_build"),
              "us");
  result->Set("monitor.search.us", self_per_call("monitor.search"), "us");
  result->Set("version.diffbatch.us_per_doc", untraced_us, "us");
  result->Set("version.diffbatch.overhead_us", untraced_us - accounted_us / docs,
              "us");
  const double rate_one = one.seconds > 0 ? one.docs / one.seconds : 0;
  const double rate_many = many.seconds > 0 ? many.docs / many.seconds : 0;
  result->Set("version.diffbatch.parallel_efficiency",
              rate_one > 0 ? rate_many / (rate_one * kThreads) : 0,
              "ratio");
  result->Set("version.diffbatch.peak_in_flight",
              static_cast<double>(many.peak_in_flight), "count");
  result->Set("version.diffbatch.stall_frac",
              many.seconds > 0
                  ? many.stall_seconds / (many.seconds * kThreads)
                  : 0,
              "ratio");
  result->Set("version.diffbatch.peak_queue",
              static_cast<double>(many.peak_queue), "count");
  result->Set("trace.overhead_frac",
              untraced_us > 0 ? traced_us / untraced_us - 1 : 0, "ratio");
  result->info["trace_spans"] = static_cast<double>(tracer.span_count());
  result->info["trace_docs"] = docs;
}

// --- crawl -------------------------------------------------------------------

struct CrawlParams {
  size_t docs;
  size_t max_bytes;
  size_t weeks;  // Evolved versions per document: rounds per generation.
  size_t batch;
};

CrawlParams CrawlSize(bool tiny) {
  return tiny ? CrawlParams{24, 64 << 10, 2, 8}
              : CrawlParams{300, 1 << 20, 8, 32};
}

struct Crawl {
  std::vector<std::string> urls;
  std::vector<std::vector<std::string>> versions;  // [week][doc], 0 = first
  std::vector<std::vector<size_t>> perfect_bytes;  // [week - 1][doc]
  std::unique_ptr<MemoryEnv> env;                  // Holds the store.
  std::unique_ptr<Warehouse> warehouse;
  std::string store = "crawl";
  double setup_s = 0;
};

/// A fresh warehouse and store holding version 0 of every document.
bool StartGeneration(Crawl* crawl, RunResult* result) {
  crawl->warehouse.reset();
  crawl->env = std::make_unique<MemoryEnv>();
  crawl->warehouse = std::make_unique<Warehouse>();
  return Subscribe(crawl->warehouse.get()) &&
         LoadFirstVersions(crawl->warehouse.get(), crawl->urls,
                           crawl->versions[0], kThreads, crawl->store,
                           crawl->env.get(), result);
}

/// Set-up (timed, repeated): corpus generation and the first-version
/// load. Then, once and untimed, the crawler's input schedule: `weeks`
/// successive WeeklyWebChangeProfile weeks of every document.
bool SetUpCrawl(const RunOptions& options, bool load, Crawl* crawl,
                RunResult* result) {
  const CrawlParams p = CrawlSize(options.tiny);
  crawl->urls = Urls(p.docs);
  std::vector<double> setup_seconds;
  std::vector<XmlDocument> docs;
  for (int rep = 0; rep < (load ? kSetupRepetitions : 1); ++rep) {
    const auto start = Clock::now();
    Rng rng(options.seed);
    docs = GenerateCorpus(&rng, LogNormalSizes(p.docs, p.max_bytes));
    crawl->versions = {SerializeAll(docs)};
    if (load && !StartGeneration(crawl, result)) return false;
    setup_seconds.push_back(SecondsSince(start));
  }
  crawl->setup_s = SetupMedian(setup_seconds, result);
  Rng evolve(options.seed * 0x9E3779B97F4A7C15ULL + 1);
  for (size_t k = 0; k < p.weeks; ++k) {
    Week week;
    if (!Evolve(&docs, xydiff::WeeklyWebChangeProfile(), &evolve, &week,
                result)) {
      return false;
    }
    crawl->versions.push_back(std::move(week.xml));
    crawl->perfect_bytes.push_back(std::move(week.perfect_bytes));
  }
  return true;
}

/// Checks the store the last generation left: reopened, every URL's
/// current version is the last XML handed off for it (week
/// `expected - 1`), and on a seeded sample each stored delta turns its
/// version into the successor.
void CheckCrawlStore(const Crawl& crawl, const std::vector<int>& expected,
                     const RunOptions& options, RunResult* result) {
  Corrupter corrupter(options.corrupt);
  std::vector<std::string> skipped;
  auto loaded = Warehouse::Load(crawl.store, xydiff::DiffOptions(), &skipped,
                                crawl.env.get());
  if (!loaded.ok() || !skipped.empty()) {
    result->Fail("store does not reopen: " +
                 (loaded.ok() ? skipped.front() : loaded.status().ToString()));
    return;
  }
  for (size_t d = 0; d < crawl.urls.size(); ++d) {
    const int count = (*loaded)->version_count(crawl.urls[d]);
    auto doc = (*loaded)->Checkout(crawl.urls[d], count);
    std::string text = doc.ok() ? SerializeDocument(*doc) : "";
    corrupter.Apply(&text);
    if (count != expected[d] ||
        text != crawl.versions[static_cast<size_t>(expected[d] - 1)][d]) {
      result->Fail("stored current version differs: " + crawl.urls[d]);
    }
  }
  // The window may end part-way through a generation's first round, so
  // only documents that already hold a delta are sampled.
  std::vector<size_t> with_delta;
  for (size_t d = 0; d < crawl.urls.size(); ++d) {
    if (expected[d] >= 2) with_delta.push_back(d);
  }
  Rng sample(options.seed ^ 0x5A3D1EULL);
  xydiff::SerializeOptions with_xids;
  with_xids.emit_xids = true;
  for (int s = 0; s < (options.tiny ? 4 : 16) && !with_delta.empty(); ++s) {
    const size_t d = with_delta[sample.NextIndex(with_delta.size())];
    auto repo = xydiff::LoadRepository(crawl.store + "/" + crawl.urls[d],
                                       crawl.env.get());
    if (!repo.ok() || repo->version_count() != expected[d]) {
      result->Fail("sample repository unreadable: " + crawl.urls[d]);
      continue;
    }
    const int v = 1 + static_cast<int>(sample.NextIndex(
                          static_cast<size_t>(repo->version_count() - 1)));
    auto base = repo->Checkout(v);
    auto next = repo->Checkout(v + 1);
    auto delta = repo->DeltaFor(v);
    if (!base.ok() || !next.ok() || !delta.ok() ||
        !xydiff::ApplyDelta(**delta, &*base).ok() ||
        SerializeDocument(*base, with_xids) !=
            SerializeDocument(*next, with_xids)) {
      result->Fail("stored delta does not reproduce its successor: " +
                   crawl.urls[d]);
    }
  }
}

void RunCrawl(const RunOptions& options, RunResult* result) {
  const CrawlParams p = CrawlSize(options.tiny);
  Crawl crawl;
  if (options.trace) {
    if (!SetUpCrawl(options, /*load=*/false, &crawl, result)) return;
    IngestPlan plan;
    plan.urls = crawl.urls;
    plan.batch = p.batch;
    // The first three weeks: a fixed replay, whatever --seconds says.
    const size_t rounds = options.tiny ? 2 : 3;
    for (size_t r = 0; r <= rounds; ++r) {
      std::vector<const std::string*> round;
      for (const std::string& xml : crawl.versions[r]) round.push_back(&xml);
      plan.rounds.push_back(std::move(round));
    }
    TraceLayers(plan, {}, options, options.tiny ? 20 : 400, result);
    return;
  }
  if (!SetUpCrawl(options, /*load=*/true, &crawl, result)) return;

  // The window runs whole generations: in round `week` every document is
  // handed its next evolved week, and after `weeks` rounds the warehouse
  // and store are re-created (untimed). Every commit rewrites state that
  // grows with the chain, so without the reset a faster build would run
  // more rounds on longer chains and measure itself slower.
  Rng order_rng(options.seed ^ 0x0DDBA11ULL);
  std::vector<int> expected(p.docs, 1);  // Each URL's version count.
  Window window;
  double input_bytes = 0, delta_bytes = 0, perfect_bytes = 0;
  double written = 0, rss_mb = 0;
  uint64_t written_before = crawl.env->counts().bytes_written;
  const auto wall = Clock::now();
  for (size_t round = 1; window.busy_seconds() < options.seconds &&
                         SecondsSince(wall) < 4 * options.seconds + 10;
       ++round) {
    const size_t week = (round - 1) % p.weeks + 1;
    if (week == 1 && round > 1) {
      written += static_cast<double>(crawl.env->counts().bytes_written -
                                     written_before);
      if (!StartGeneration(&crawl, result)) return;
      written_before = crawl.env->counts().bytes_written;
      expected.assign(p.docs, 1);
    }
    const Warehouse::PipelineOptions pipeline =
        Pipeline(kThreads, crawl.store, crawl.env.get());
    std::vector<size_t> order(p.docs);
    for (size_t i = 0; i < p.docs; ++i) order[i] = i;
    Shuffle(&order, &order_rng);
    for (size_t begin = 0;
         begin < p.docs && window.busy_seconds() < options.seconds;
         begin += p.batch) {
      const size_t end = std::min(p.docs, begin + p.batch);
      std::vector<Warehouse::DiffJob> jobs;
      for (size_t i = begin; i < end; ++i) {
        const size_t d = order[i];
        jobs.push_back({crawl.urls[d], crawl.versions[week][d]});
        input_bytes += static_cast<double>(jobs.back().xml.size());
        perfect_bytes +=
            static_cast<double>(crawl.perfect_bytes[week - 1][d]);
      }
      const auto start = Clock::now();
      auto reports = crawl.warehouse->DiffBatch(std::move(jobs), pipeline);
      const double seconds = SecondsSince(start);
      result->attempted += end - begin;
      const uint64_t failed_before = result->failed;
      delta_bytes += static_cast<double>(CheckReports(reports, result));
      window.Add(seconds,
                 static_cast<double>((end - begin) -
                                     (result->failed - failed_before)),
                 true);
      for (size_t i = begin; i < end; ++i) ++expected[order[i]];
    }
    if (round == p.weeks) rss_mb = PeakRssMb();
  }
  if (rss_mb == 0) rss_mb = PeakRssMb();
  written +=
      static_cast<double>(crawl.env->counts().bytes_written - written_before);
  crawl.warehouse.reset();
  CheckCrawlStore(crawl, expected, options, result);
  SetEndToEnd(result, crawl.setup_s, window, rss_mb,
              input_bytes > 0 ? written / input_bytes : 0,
              perfect_bytes > 0 ? delta_bytes / perfect_bytes : 0);
}

// --- history -----------------------------------------------------------------

struct HistoryParams {
  size_t docs;
  size_t versions;
  size_t max_bytes;
  size_t reads_per_ingest;
  size_t ingest_docs;
  size_t ingests_per_cycle;  // Hand-offs before the store is reopened.
};

/// History's weekly change: text rewrites and a few inserted nodes. No
/// subtree deletions (hence no moves): under WeeklyWebChangeProfile
/// deleted subtrees outweigh single-node inserts and documents shrink to
/// a few hundred bytes long before version 128, and even rare deletions
/// made sizes, and with them read latency, drift differently per seed.
ChangeSimOptions HistoryProfile() {
  ChangeSimOptions profile;
  profile.delete_probability = 0;
  profile.update_probability = 0.05;
  profile.insert_probability = 0.003;
  profile.move_probability = 0;
  return profile;
}

HistoryParams HistorySize(bool tiny) {
  // Documents are capped at 16 KB: history measures reads on long
  // chains, and the web tail would only lengthen set-up.
  return tiny ? HistoryParams{8, 12, 8 << 10, 32, 2, 3}
              : HistoryParams{32, 128, 16 << 10, 64, 4, 32};
}

struct History {
  std::vector<std::string> urls;
  std::vector<XmlDocument> docs;  // Simulator state, for later ingests.
  std::vector<std::vector<std::string>> versions;  // [version-1][doc]
  std::vector<std::vector<uint64_t>> hashes;       // [doc][version-1]
  std::unique_ptr<MemoryEnv> env;                  // Holds the set-up store.
  std::unique_ptr<Warehouse> warehouse;  // Serving, reloaded from a store.
  std::string store = "history";
  double setup_s = 0;
};

uint64_t Hash(std::string_view text) { return xydiff::HashBytes(text); }

/// The version schedule is generated once; set-up (timed, repeated) is
/// corpus generation plus the chain build: every version through
/// DiffBatch, one Save, and a reload from the store as the serving
/// warehouse.
bool SetUpHistory(const RunOptions& options, History* h, RunResult* result) {
  const HistoryParams p = HistorySize(options.tiny);
  h->urls = Urls(p.docs);
  Rng rng(options.seed);
  h->docs = GenerateCorpus(&rng, LogNormalSizes(p.docs, p.max_bytes));
  h->versions = {SerializeAll(h->docs)};
  for (size_t v = 1; v < p.versions; ++v) {
    Week week;
    if (!Evolve(&h->docs, HistoryProfile(), &rng, &week, result)) return false;
    h->versions.push_back(std::move(week.xml));
  }
  h->hashes.assign(p.docs, {});
  for (const auto& version : h->versions) {
    for (size_t d = 0; d < p.docs; ++d) h->hashes[d].push_back(Hash(version[d]));
  }

  std::vector<double> seconds;
  for (int rep = 0; rep < (options.trace ? 1 : kSetupRepetitions); ++rep) {
    h->warehouse.reset();
    h->env = std::make_unique<MemoryEnv>();
    const auto start = Clock::now();
    Rng corpus_rng(options.seed);
    if (SerializeAll(GenerateCorpus(&corpus_rng,
                                    LogNormalSizes(p.docs, p.max_bytes))) !=
        h->versions[0]) {
      result->Fail("corpus generation is not deterministic");
      return false;
    }
    Warehouse writer;
    for (const auto& version : h->versions) {
      std::vector<Warehouse::DiffJob> jobs;
      for (size_t d = 0; d < p.docs; ++d) jobs.push_back({h->urls[d], version[d]});
      for (auto& report : writer.DiffBatch(
               std::move(jobs), Pipeline(kThreads, "", nullptr))) {
        if (!report.ok()) {
          result->Fail("chain build: " + report.status().ToString());
          return false;
        }
      }
    }
    const xydiff::Status saved = writer.Save(h->store, h->env.get());
    auto loaded = saved.ok() ? Warehouse::Load(h->store, xydiff::DiffOptions(),
                                               nullptr, h->env.get())
                             : decltype(Warehouse::Load(h->store))(saved);
    if (!loaded.ok()) {
      result->Fail("history store: " + loaded.status().ToString());
      return false;
    }
    h->warehouse = std::move(*loaded);
    seconds.push_back(SecondsSince(start));
  }
  h->setup_s = SetupMedian(seconds, result);
  return true;
}

/// Independent answer to Search(word) for the benchmark's word list:
/// postings gathered by walking each document's current version.
class SearchReference {
 public:
  explicit SearchReference(std::vector<std::string> words)
      : words_(words.begin(), words.end()) {}

  void Refresh(const std::string& url, const XmlDocument& current) {
    for (auto& [word, postings] : postings_) {
      postings.erase(std::remove_if(postings.begin(), postings.end(),
                                    [&](const auto& p) { return p.first == url; }),
                     postings.end());
    }
    current.root()->Visit([&](const xydiff::XmlNode* n) {
      if (!n->is_text()) return;
      for (const std::string& w : xydiff::FullTextIndex::Tokenize(n->text())) {
        if (words_.count(w) > 0) postings_[w].emplace_back(url, n->xid());
      }
    });
  }

  std::vector<std::pair<std::string, xydiff::Xid>> Expected(
      const std::string& word) const {
    auto it = postings_.find(word);
    if (it == postings_.end()) return {};
    auto sorted = it->second;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    return sorted;
  }

 private:
  std::set<std::string> words_;
  std::map<std::string, std::vector<std::pair<std::string, xydiff::Xid>>>
      postings_;
};

void RunHistory(const RunOptions& options, RunResult* result) {
  const HistoryParams p = HistorySize(options.tiny);
  History h;
  if (!SetUpHistory(options, &h, result)) return;
  if (options.trace) {
    // Ingest layers on the history documents' first two versions; read
    // layers on the long chains set-up persisted.
    IngestPlan plan;
    plan.urls = h.urls;
    plan.batch = p.ingest_docs;
    std::vector<const std::string*> first, second;
    for (size_t d = 0; d < p.docs; ++d) {
      first.push_back(&h.versions[0][d]);
      second.push_back(&h.versions[1][d]);
    }
    plan.rounds = {first, second, first, second};
    TraceLayers(plan, {h.urls, h.store, h.env.get()}, options,
                options.tiny ? 40 : 2000, result);
    return;
  }

  // Search words: a seeded sample of words the documents contain.
  Rng rng(options.seed ^ 0x415CULL);
  std::vector<std::string> words;
  for (size_t d = 0; d < p.docs; ++d) {
    h.docs[d].root()->Visit([&](const xydiff::XmlNode* n) {
      if (n->is_text() && rng.NextIndex(32) == 0) {
        auto tokens = xydiff::FullTextIndex::Tokenize(n->text());
        if (!tokens.empty()) words.push_back(tokens[rng.NextIndex(tokens.size())]);
      }
    });
  }
  Shuffle(&words, &rng);
  words.resize(std::min<size_t>(words.size(), 48));
  if (words.empty()) words.push_back("catalog");
  SearchReference reference(words);

  // The hand-offs of one cycle, generated once. The timed loop runs in
  // cycles: each reopens a fresh copy of the set-up store (untimed) and
  // replays these hand-offs, so the chains grow from 128 versions by the
  // same few per cycle however fast the build is. Without the reset a
  // faster build would read, and re-encode on every ingest, longer chains
  // and measure itself slower.
  struct Ingest {
    std::vector<size_t> docs;
    Week week;
  };
  Rng schedule_rng(options.seed ^ 0x1A6E57ULL);
  std::vector<Ingest> schedule(p.ingests_per_cycle);
  for (Ingest& ingest : schedule) {
    ingest.docs.resize(p.docs);
    for (size_t d = 0; d < p.docs; ++d) ingest.docs[d] = d;
    Shuffle(&ingest.docs, &schedule_rng);
    ingest.docs.resize(p.ingest_docs);
    std::vector<XmlDocument> evolving;
    for (size_t d : ingest.docs) evolving.push_back(std::move(h.docs[d]));
    if (!Evolve(&evolving, HistoryProfile(), &schedule_rng, &ingest.week,
                result)) {
      return;
    }
    for (size_t i = 0; i < ingest.docs.size(); ++i) {
      h.docs[ingest.docs[i]] = std::move(evolving[i]);
    }
  }

  const std::vector<std::vector<uint64_t>> setup_hashes = h.hashes;
  std::unique_ptr<MemoryEnv> env;  // This cycle's copy of the store.
  Warehouse::PipelineOptions pipeline;
  double written = 0;
  const auto start_cycle = [&] {
    if (env != nullptr) {
      written += static_cast<double>(env->counts().bytes_written);
    }
    h.warehouse.reset();
    env = h.env->Clone();
    auto loaded =
        Warehouse::Load(h.store, xydiff::DiffOptions(), nullptr, env.get());
    if (!loaded.ok()) {
      result->Fail("history store: " + loaded.status().ToString());
      return false;
    }
    h.warehouse = std::move(*loaded);
    h.hashes = setup_hashes;
    pipeline = Pipeline(kThreads, h.store, env.get());
    for (size_t d = 0; d < p.docs; ++d) {
      auto current = h.warehouse->Checkout(
          h.urls[d], h.warehouse->version_count(h.urls[d]));
      if (!current.ok()) {
        result->Fail("checkout of current version failed");
        return false;
      }
      reference.Refresh(h.urls[d], *current);
    }
    return true;
  };

  Corrupter corrupter(options.corrupt);
  Window window;
  double input_bytes = 0, delta_bytes = 0, perfect_bytes = 0;
  double rss_mb = 0;
  for (size_t iteration = 0; window.busy_seconds() < options.seconds;
       ++iteration) {
    const size_t step = iteration % p.ingests_per_cycle;
    if (step == 0) {
      // Memory is read once, at the end of the first cycle.
      if (iteration > 0 && rss_mb == 0) rss_mb = PeakRssMb();
      if (!start_cycle()) return;
    }
    // Reads: Checkout(url, random version) and Search(word), 4:1.
    for (size_t i = 0; i < p.reads_per_ingest; ++i) {
      ++result->attempted;
      const size_t d = rng.NextIndex(p.docs);
      if (rng.NextIndex(5) != 0) {
        const int version =
            1 + static_cast<int>(rng.NextIndex(h.hashes[d].size()));
        const auto start = Clock::now();
        auto doc = h.warehouse->Checkout(h.urls[d], version);
        window.Add(SecondsSince(start), 1, true);
        std::string text = doc.ok() ? SerializeDocument(*doc) : "";
        corrupter.Apply(&text);
        if (Hash(text) != h.hashes[d][static_cast<size_t>(version - 1)]) {
          result->Fail("checkout differs from the recorded version");
        }
      } else {
        const std::string& word = words[rng.NextIndex(words.size())];
        const auto start = Clock::now();
        auto hits = h.warehouse->Search(word);
        window.Add(SecondsSince(start), 1, true);
        std::sort(hits.begin(), hits.end());
        if (hits != reference.Expected(word)) {
          result->Fail("search differs from the reference postings");
        }
      }
    }
    // One small hand-off, which leaves the ingested documents' indexes
    // stale for the next Search.
    const Ingest& ingest = schedule[step];
    std::vector<Warehouse::DiffJob> jobs;
    for (size_t i = 0; i < ingest.docs.size(); ++i) {
      const size_t d = ingest.docs[i];
      const std::string& xml = ingest.week.xml[i];
      h.hashes[d].push_back(Hash(xml));
      input_bytes += static_cast<double>(xml.size());
      perfect_bytes += static_cast<double>(ingest.week.perfect_bytes[i]);
      jobs.push_back({h.urls[d], xml});
    }
    const auto start = Clock::now();
    auto reports = h.warehouse->DiffBatch(std::move(jobs), pipeline);
    window.Add(SecondsSince(start), 0, false);
    result->attempted += ingest.docs.size();
    delta_bytes += static_cast<double>(CheckReports(reports, result));
    for (size_t d : ingest.docs) {
      auto current = h.warehouse->Checkout(
          h.urls[d], h.warehouse->version_count(h.urls[d]));
      if (current.ok()) reference.Refresh(h.urls[d], *current);
    }
  }
  if (rss_mb == 0) rss_mb = PeakRssMb();
  written += static_cast<double>(env->counts().bytes_written);
  SetEndToEnd(result, h.setup_s, window, rss_mb,
              input_bytes > 0 ? written / input_bytes : 0,
              perfect_bytes > 0 ? delta_bytes / perfect_bytes : 0);
}

}  // namespace

bool RunWorkload(const RunOptions& options, RunResult* result) {
  if (options.workload == "crawl") {
    RunCrawl(options, result);
  } else if (options.workload == "history") {
    RunHistory(options, result);
  } else {
    return false;
  }
  return true;
}

}  // namespace xybench
