#include "fuzz/oracles.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baseline/ladiff.h"
#include "baseline/list_diff.h"
#include "baseline/myers_diff.h"
#include "baseline/selkow.h"
#include "baseline/zhang_shasha.h"
#include "core/buld.h"
#include "delta/apply.h"
#include "delta/codec.h"
#include "delta/compose.h"
#include "delta/delta_xml.h"
#include "delta/invert.h"
#include "delta/validate.h"
#include "monitor/change_stats.h"
#include "monitor/index.h"
#include "version/repository.h"
#include "version/warehouse.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xydiff {

namespace {

/// Canonical bytes for structural comparison: default serializer options,
/// no XIDs — implementations must agree on structure and content; XID
/// assignment is each one's own business.
std::string Canonical(const XmlDocument& doc) {
  return SerializeDocument(doc);
}

/// Identity bytes: structure + content + persistent identifiers. Used
/// where XIDs are part of the contract (invert, compose, checkout).
std::string CanonicalWithXids(const XmlDocument& doc) {
  SerializeOptions options;
  options.emit_xids = true;
  return SerializeDocument(doc, options);
}

size_t NodeCount(const XmlDocument& doc) {
  size_t n = 0;
  if (doc.root() != nullptr) {
    doc.root()->Visit([&n](const XmlNode*) { ++n; });
  }
  return n;
}

/// Collects failures; one instance per report.
class Judge {
 public:
  void Ran() { ++report_.checks; }
  void Fail(std::string oracle, std::string detail) {
    report_.failures.push_back({std::move(oracle), std::move(detail)});
  }
  OracleReport Take() { return std::move(report_); }

 private:
  OracleReport report_;
};

/// Diff `base` -> `changed` with `diff_fn`, apply to a fresh clone,
/// canonically serialize. False (with message) on any Status failure.
template <typename DiffFn>
bool DiffAndPatch(const XmlDocument& base, const XmlDocument& changed,
                  DiffFn diff_fn, std::string* patched_bytes,
                  std::string* error) {
  XmlDocument old_doc = base.Clone();
  XmlDocument new_doc = changed.Clone();
  Result<Delta> delta = diff_fn(&old_doc, &new_doc);
  if (!delta.ok()) {
    *error = "diff failed: " + delta.status().ToString();
    return false;
  }
  XmlDocument patched = base.Clone();
  if (Status s = ApplyDelta(*delta, &patched); !s.ok()) {
    *error = "apply failed: " + s.ToString();
    return false;
  }
  *patched_bytes = Canonical(patched);
  return true;
}

/// BULD vs LaDiff patched byte-identity, plus the text baselines as
/// zero/non-zero cross-checks.
void DifferentialOracle(const XmlDocument& base, const XmlDocument& changed,
                        Judge* judge) {
  judge->Ran();
  const std::string expected = Canonical(changed);
  const auto buld = [](XmlDocument* a, XmlDocument* b) {
    return XyDiff(a, b, DiffOptions{});
  };
  const auto ladiff = [](XmlDocument* a, XmlDocument* b) {
    return LaDiff(a, b, DiffOptions{});
  };

  std::string buld_bytes, ladiff_bytes, error;
  if (!DiffAndPatch(base, changed, buld, &buld_bytes, &error)) {
    judge->Fail("differential", "BULD: " + error);
    return;
  }
  if (buld_bytes != expected) {
    judge->Fail("differential",
                "BULD patched bytes differ from the new version");
    return;
  }
  if (!DiffAndPatch(base, changed, ladiff, &ladiff_bytes, &error)) {
    judge->Fail("differential", "LaDiff: " + error);
    return;
  }
  if (ladiff_bytes != expected) {
    judge->Fail("differential",
                "LaDiff patched bytes differ from the new version");
    return;
  }

  const std::string old_bytes = Canonical(base);
  LineDiffResult line = MyersLineDiff(old_bytes, expected);
  if (old_bytes == expected &&
      (line.deleted_lines != 0 || line.added_lines != 0)) {
    judge->Fail("differential", "Myers reports changes on identical documents");
    return;
  }
  if (old_bytes != expected && line.hunks.empty()) {
    judge->Fail("differential",
                "Myers reports no changes on differing documents");
    return;
  }
  ListDiffResult list = ListDiff(base, changed);
  if (old_bytes == expected &&
      (list.deleted_tokens != 0 || list.inserted_tokens != 0)) {
    judge->Fail("differential",
                "ListDiff reports changes on identical documents");
  }
}

/// Zhang-Shasha / Selkow metric axioms (exact algorithms, small trees).
void DistanceOracle(const XmlDocument& base, const XmlDocument& changed,
                    Judge* judge) {
  judge->Ran();
  const size_t zs_same = TreeEditDistance(*base.root(), *base.root());
  const size_t selkow_same = SelkowEditDistance(*base.root(), *base.root());
  if (zs_same != 0 || selkow_same != 0) {
    judge->Fail("distance", "non-zero self distance (zs=" +
                                std::to_string(zs_same) + ", selkow=" +
                                std::to_string(selkow_same) + ")");
    return;
  }
  const size_t zs = TreeEditDistance(*base.root(), *changed.root());
  const size_t selkow = SelkowEditDistance(*base.root(), *changed.root());
  const bool equal = Canonical(base) == Canonical(changed);
  if (equal && zs != 0) {
    judge->Fail("distance", "Zhang-Shasha non-zero on equal documents");
    return;
  }
  if (!equal && zs == 0) {
    judge->Fail("distance", "Zhang-Shasha zero on differing documents");
    return;
  }
  // Selkow's restricted operations can never beat the exact distance.
  if (selkow < zs) {
    judge->Fail("distance", "Selkow distance " + std::to_string(selkow) +
                                " below exact distance " + std::to_string(zs));
  }
}

/// parse(serialize(doc)) -> serialize must be a fixpoint.
void RoundtripOracle(const XmlDocument& doc, const char* which, Judge* judge) {
  judge->Ran();
  const std::string bytes = Canonical(doc);
  Result<XmlDocument> reparsed = ParseXml(bytes);
  if (!reparsed.ok()) {
    judge->Fail("roundtrip", std::string(which) + ": serialized document "
                                                  "does not re-parse: " +
                                 reparsed.status().ToString());
    return;
  }
  const std::string again = Canonical(*reparsed);
  if (again != bytes) {
    judge->Fail("roundtrip",
                std::string(which) + ": serialize -> parse -> serialize is "
                                     "not a fixpoint");
  }
}

/// Diffs base -> changed, then checks the completed-delta laws: apply
/// reaches the target, inverse-apply returns to the source (XIDs
/// included), the in-place inverse (ApplyDeltaInverse) lands on the
/// same document, double inversion is structurally identical, and the
/// binary codec round-trips the delta byte-exactly.
void InvertAndCodecOracles(const XmlDocument& base, const XmlDocument& changed,
                           Judge* judge) {
  XmlDocument old_doc = base.Clone();
  XmlDocument new_doc = changed.Clone();
  Result<Delta> delta = XyDiff(&old_doc, &new_doc, DiffOptions{});
  if (!delta.ok()) {
    // The differential oracle already reported diff failures.
    return;
  }

  judge->Ran();
  if (Status s = ValidateDelta(*delta); !s.ok()) {
    judge->Fail("invert", "BULD delta fails validation: " + s.ToString());
    return;
  }
  XmlDocument working = base.Clone();
  if (Status s = ApplyDelta(*delta, &working); !s.ok()) {
    judge->Fail("invert", "forward apply failed: " + s.ToString());
    return;
  }
  // ApplyDeltaInverse reads `d` in place; the materialized inverse is
  // its oracle.
  XmlDocument in_place = working.Clone();
  const Delta inverse = InvertDelta(*delta);
  if (Status s = ApplyDelta(inverse, &working); !s.ok()) {
    judge->Fail("invert", "inverse apply failed: " + s.ToString());
    return;
  }
  if (CanonicalWithXids(working) != CanonicalWithXids(base)) {
    judge->Fail("invert",
                "Invert(d) ∘ d is not the identity (source not restored)");
    return;
  }
  if (Status s = ApplyDeltaInverse(*delta, &in_place); !s.ok()) {
    judge->Fail("invert", "in-place inverse apply failed: " + s.ToString());
    return;
  }
  if (CanonicalWithXids(in_place) != CanonicalWithXids(working) ||
      in_place.next_xid() != working.next_xid()) {
    judge->Fail("invert",
                "in-place inverse differs from the materialized inverse");
    return;
  }
  if (SerializeDelta(InvertDelta(inverse)) != SerializeDelta(*delta)) {
    judge->Fail("invert", "Invert(Invert(d)) differs from d");
    return;
  }

  judge->Ran();
  const std::string xml_form = SerializeDelta(*delta);
  const std::string encoded = EncodeDeltaBinary(*delta);
  Result<Delta> decoded = DecodeDeltaBinary(encoded);
  if (!decoded.ok()) {
    judge->Fail("codec",
                "encoded delta does not decode: " + decoded.status().ToString());
    return;
  }
  if (SerializeDelta(*decoded) != xml_form) {
    judge->Fail("codec", "decode(encode(d)) changes the delta");
    return;
  }
  if (EncodeDeltaBinary(*decoded) != encoded) {
    judge->Fail("codec", "re-encoding the decoded delta changes the bytes");
    return;
  }
  XmlDocument patched = base.Clone();
  if (Status s = ApplyDelta(*decoded, &patched); !s.ok()) {
    judge->Fail("codec", "decoded delta does not apply: " + s.ToString());
    return;
  }
  if (Canonical(patched) != Canonical(changed)) {
    judge->Fail("codec", "decoded delta patches to different bytes");
  }
}

/// ComposeDeltas against pairwise application, associativity over the
/// three-version chain, and cancellation against the inverse.
void ComposeOracle(const XmlDocument& v1, const XmlDocument& v2,
                   const XmlDocument& v3, Judge* judge) {
  judge->Ran();
  // Thread one document chain through both diffs so XIDs stay
  // consistent: b carries the XIDs d1 assigned when d2 is computed.
  XmlDocument a = v1.Clone();
  XmlDocument b = v2.Clone();
  Result<Delta> d1 = XyDiff(&a, &b, DiffOptions{});
  if (!d1.ok()) return;  // Differential oracle's finding, not compose's.
  XmlDocument c = v3.Clone();
  Result<Delta> d2 = XyDiff(&b, &c, DiffOptions{});
  if (!d2.ok()) return;

  const std::string target = CanonicalWithXids(c);
  XmlDocument pairwise = a.Clone();
  if (Status s = ApplyDelta(*d1, &pairwise); !s.ok()) return;
  if (Status s = ApplyDelta(*d2, &pairwise); !s.ok()) return;
  if (CanonicalWithXids(pairwise) != target) {
    judge->Fail("compose", "pairwise application misses v3 (apply bug)");
    return;
  }

  Result<Delta> composed = ComposeDeltas(a, *d1, *d2);
  if (!composed.ok()) {
    judge->Fail("compose",
                "ComposeDeltas failed: " + composed.status().ToString());
    return;
  }
  XmlDocument direct = a.Clone();
  if (Status s = ApplyDelta(*composed, &direct); !s.ok()) {
    judge->Fail("compose", "composed delta does not apply: " + s.ToString());
    return;
  }
  if (CanonicalWithXids(direct) != target) {
    judge->Fail("compose",
                "apply(d1∘d2) differs from apply(d2, apply(d1, v1))");
    return;
  }

  // Associativity without a fourth version: d3 = Invert(d2) is a valid
  // delta v3 -> v2, so ((d1∘d2)∘d3) and (d1∘(d2∘d3)) must both take v1
  // to v2.
  const Delta d3 = InvertDelta(*d2);
  Result<Delta> left = ComposeDeltas(a, *composed, d3);
  Result<Delta> d23 = ComposeDeltas(b, *d2, d3);
  if (!left.ok() || !d23.ok()) {
    judge->Fail("compose", "associativity composition failed: " +
                               (left.ok() ? d23.status() : left.status())
                                   .ToString());
    return;
  }
  Result<Delta> right = ComposeDeltas(a, *d1, *d23);
  if (!right.ok()) {
    judge->Fail("compose",
                "associativity composition failed: " + right.status().ToString());
    return;
  }
  const std::string v2_bytes = CanonicalWithXids(b);
  for (const auto& [delta, which] :
       {std::pair<const Delta*, const char*>{&*left, "(d1∘d2)∘d3"},
        std::pair<const Delta*, const char*>{&*right, "d1∘(d2∘d3)"}}) {
    XmlDocument doc = a.Clone();
    if (Status s = ApplyDelta(*delta, &doc); !s.ok()) {
      judge->Fail("compose", std::string(which) + " does not apply: " +
                                 s.ToString());
      return;
    }
    if (CanonicalWithXids(doc) != v2_bytes) {
      judge->Fail("compose", std::string(which) + " does not reach v2 — "
                                                  "composition is not "
                                                  "associative");
      return;
    }
  }

  // Cancellation: composing a delta with its inverse yields no ops.
  Result<Delta> cancelled = ComposeDeltas(a, *d1, InvertDelta(*d1));
  if (!cancelled.ok() || !cancelled->empty()) {
    judge->Fail("compose", "d ∘ Invert(d) is not the empty delta");
  }
}

/// Checkout of every version must reproduce, byte-exactly with XIDs,
/// the current version recorded right after that version was committed
/// — the backward replay against what the repository actually held.
void CheckoutOracle(const XmlDocument& v1, const XmlDocument& v2,
                    const XmlDocument& v3, Judge* judge) {
  judge->Ran();
  VersionRepository repo(v1.Clone());
  std::vector<std::string> committed = {CanonicalWithXids(repo.current())};
  for (const XmlDocument* version : {&v2, &v3}) {
    Result<int> r = repo.Commit(version->Clone());
    if (!r.ok()) {
      judge->Fail("checkout", "commit failed: " + r.status().ToString());
      return;
    }
    committed.push_back(CanonicalWithXids(repo.current()));
  }
  for (int version = 1; version <= repo.version_count(); ++version) {
    Result<XmlDocument> doc = repo.Checkout(version);
    if (!doc.ok()) {
      judge->Fail("checkout", "checkout of version " +
                                  std::to_string(version) +
                                  " failed: " + doc.status().ToString());
      return;
    }
    if (CanonicalWithXids(*doc) !=
        committed[static_cast<size_t>(version) - 1]) {
      judge->Fail("checkout", "checkout of version " +
                                  std::to_string(version) +
                                  " differs from the committed version");
      return;
    }
  }
}

/// Configuration-differential oracle (Li & Rigger's recipe applied
/// across our own execution paths instead of across vendors): the same
/// v1 -> v2 -> v3 crawl, as raw XML text, goes through
///  (a) a bare VersionRepository and Commit — the reference;
///  (b) Warehouse::Ingest;
///  (c) Warehouse::DiffBatch at 1 thread;
///  (d) DiffBatch at 4 threads, the chain under 4 URLs in each batch;
///  (e) the (d) warehouse after Warehouse::Save into `scratch_directory`
///      and Warehouse::Load back (skipped when no directory is given).
/// Every path must check out byte-identical versions with XIDs and
/// report the reference's operation count per step; DiffBatch's
/// delta_bytes must be the size of the reference delta's serialization.
/// Monitor state too: a Search after each step, for every word of every
/// version, must return FullTextIndex::Build of the reference's current
/// version under each URL, and the statistics of (b)-(d) must be the
/// reference's ChangeStatistics once per URL. (e) checks Search only:
/// statistics are not saved.
void ConfigurationOracle(const XmlDocument& v1, const XmlDocument& v2,
                         const XmlDocument& v3,
                         const std::string& scratch_directory, Judge* judge) {
  judge->Ran();
  constexpr int kVersions = 3;
  const std::string texts[kVersions] = {Canonical(v1), Canonical(v2),
                                        Canonical(v3)};
  const auto fail = [judge](const std::string& path,
                            const std::string& detail) {
    judge->Fail("configuration", path + ": " + detail);
  };

  // (a) The reference chain.
  size_t ref_operations[kVersions] = {};
  size_t ref_delta_bytes[kVersions] = {};
  std::vector<std::string> ref_versions;
  std::vector<FullTextIndex> ref_indexes;
  ChangeStatistics ref_stats;
  std::set<std::string> words, labels;
  {
    std::optional<VersionRepository> repo;
    for (int step = 0; step < kVersions; ++step) {
      Result<XmlDocument> doc = ParseXml(texts[step]);
      if (!doc.ok()) return fail("reference", doc.status().ToString());
      if (step == 0) {
        repo.emplace(std::move(*doc));
        continue;
      }
      XmlDocument old_version;
      Result<int> version = repo->Commit(std::move(*doc), {}, &old_version);
      if (!version.ok()) return fail("reference", version.status().ToString());
      Result<const Delta*> delta = repo->DeltaFor(*version - 1);
      if (!delta.ok()) return fail("reference", delta.status().ToString());
      ref_operations[step] = (*delta)->operation_count();
      ref_delta_bytes[step] = SerializeDelta(**delta).size();
      ref_stats.Accumulate(**delta, old_version, repo->current());
    }
    for (int version = 1; version <= kVersions; ++version) {
      Result<XmlDocument> doc = repo->Checkout(version);
      if (!doc.ok()) return fail("reference", doc.status().ToString());
      ref_versions.push_back(CanonicalWithXids(*doc));
      ref_indexes.push_back(FullTextIndex::Build(*doc));
      doc->root()->Visit([&](const XmlNode* node) {
        if (node->is_element()) labels.emplace(node->label());
        if (!node->is_text()) return;
        for (std::string& word : FullTextIndex::Tokenize(node->text())) {
          words.insert(std::move(word));
        }
      });
    }
  }
  // Search for every word must return the reference index of `version`
  // under each of the first `urls` URLs.
  const auto search_agrees = [&](const Warehouse& warehouse, int urls,
                                 int version) {
    for (const std::string& word : words) {
      std::vector<std::pair<std::string, Xid>> expected;
      for (int u = 0; u < urls; ++u) {
        for (Xid xid : ref_indexes[version - 1].Lookup(word)) {
          expected.emplace_back("doc" + std::to_string(u), xid);
        }
      }
      if (warehouse.Search(word) != expected) {
        return "Search(\"" + word + "\") disagrees with the reference "
               "index of version " + std::to_string(version);
      }
    }
    return std::string();
  };

  // (b), (c) and (d); 0 threads stands for Ingest.
  for (const int threads : {0, 1, 4}) {
    const std::string path =
        threads == 0 ? "Ingest" : "DiffBatch@" + std::to_string(threads);
    const int urls = std::max(1, threads);
    Warehouse warehouse;
    Warehouse::PipelineOptions pipeline;
    pipeline.threads = threads;
    for (int step = 0; step < kVersions; ++step) {
      std::vector<Result<Warehouse::IngestReport>> reports;
      if (threads == 0) {
        Result<XmlDocument> doc = ParseXml(texts[step]);
        if (!doc.ok()) return fail(path, doc.status().ToString());
        reports.push_back(warehouse.Ingest("doc0", std::move(*doc)));
      } else {
        std::vector<Warehouse::DiffJob> jobs;
        for (int u = 0; u < urls; ++u) {
          jobs.push_back({"doc" + std::to_string(u), texts[step]});
        }
        reports = warehouse.DiffBatch(std::move(jobs), pipeline);
      }
      const std::string where = "step " + std::to_string(step + 1) + ": ";
      for (const Result<Warehouse::IngestReport>& report : reports) {
        if (!report.ok()) return fail(path, where + report.status().ToString());
        if (report->version != step + 1 ||
            report->operations != ref_operations[step]) {
          return fail(path, where + "version " +
                                std::to_string(report->version) + " with " +
                                std::to_string(report->operations) +
                                " operations, reference " +
                                std::to_string(ref_operations[step]));
        }
        if (threads > 0 && report->delta_bytes != ref_delta_bytes[step]) {
          return fail(path, where + "delta_bytes " +
                                std::to_string(report->delta_bytes) +
                                ", reference delta serializes to " +
                                std::to_string(ref_delta_bytes[step]));
        }
      }
      // Between steps, so the next step's delta meets a built index.
      if (std::string error = search_agrees(warehouse, urls, step + 1);
          !error.empty()) {
        return fail(path, where + error);
      }
    }
    ChangeStatistics expected_stats;
    for (int u = 0; u < urls; ++u) expected_stats.Merge(ref_stats);
    for (const std::string& label : labels) {
      if (warehouse.StatsForLabel(label) != expected_stats.ForLabel(label)) {
        return fail(path, "statistics of <" + label +
                              "> are not the reference's times " +
                              std::to_string(urls));
      }
    }
    // (e) The 4-thread warehouse again, after a round trip through its
    // store.
    std::unique_ptr<Warehouse> reloaded;
    if (threads == 4 && !scratch_directory.empty()) {
      if (Status saved = warehouse.Save(scratch_directory); !saved.ok()) {
        return fail("Save+Load", saved.ToString());
      }
      std::vector<std::string> skipped;
      Result<std::unique_ptr<Warehouse>> loaded =
          Warehouse::Load(scratch_directory, DiffOptions{}, &skipped);
      if (!loaded.ok()) return fail("Save+Load", loaded.status().ToString());
      if (!skipped.empty()) return fail("Save+Load", skipped.front());
      reloaded = std::move(*loaded);
      if (std::string error = search_agrees(*reloaded, urls, kVersions);
          !error.empty()) {
        return fail("Save+Load", error);
      }
    }
    for (const Warehouse* stored : {&warehouse, reloaded.get()}) {
      if (stored == nullptr) continue;
      for (int u = 0; u < urls; ++u) {
        const std::string url = "doc" + std::to_string(u);
        for (int version = 1; version <= kVersions; ++version) {
          Result<XmlDocument> doc = stored->Checkout(url, version);
          if (!doc.ok() ||
              CanonicalWithXids(*doc) != ref_versions[version - 1]) {
            return fail(stored == &warehouse ? path : "Save+Load",
                        "disagrees with the reference on version " +
                            std::to_string(version) + " of " + url);
          }
        }
      }
    }
  }
}

}  // namespace

std::string OracleReport::ToString() const {
  if (ok()) return "ok (" + std::to_string(checks) + " oracle checks)";
  std::string out;
  for (const OracleFailure& failure : failures) {
    if (!out.empty()) out += "; ";
    out += "[" + failure.oracle + "] " + failure.detail;
  }
  return out;
}

OracleReport CheckPairOracles(const XmlDocument& base,
                              const XmlDocument& changed,
                              const OracleOptions& options) {
  Judge judge;
  if (base.root() == nullptr || changed.root() == nullptr) {
    judge.Fail("input", "document without a root handed to the oracles");
    return judge.Take();
  }
  DifferentialOracle(base, changed, &judge);
  if (options.check_distance &&
      NodeCount(base) <= options.distance_node_limit &&
      NodeCount(changed) <= options.distance_node_limit) {
    DistanceOracle(base, changed, &judge);
  }
  RoundtripOracle(base, "base", &judge);
  RoundtripOracle(changed, "changed", &judge);
  InvertAndCodecOracles(base, changed, &judge);
  return judge.Take();
}

OracleReport CheckTrialOracles(const FuzzTrial& trial,
                               const OracleOptions& options,
                               const std::string& scratch_directory) {
  if (!trial.v1.has_value()) {
    // A rejected raw input. Reaching this point already proves the parser
    // neither crashed nor hung; the remaining contract is a clean,
    // descriptive Status.
    Judge judge;
    judge.Ran();
    if (trial.rejection.empty()) {
      judge.Fail("parser", "input rejected without a diagnostic");
    }
    return judge.Take();
  }

  OracleReport report = CheckPairOracles(*trial.v1, *trial.v2, options);
  Judge judge;
  if (trial.has_versions()) {
    ComposeOracle(*trial.v1, *trial.v2, *trial.v3, &judge);
    CheckoutOracle(*trial.v1, *trial.v2, *trial.v3, &judge);
    ConfigurationOracle(*trial.v1, *trial.v2, *trial.v3, scratch_directory,
                        &judge);
  }
  OracleReport chain = judge.Take();
  report.checks += chain.checks;
  for (OracleFailure& failure : chain.failures) {
    report.failures.push_back(std::move(failure));
  }
  return report;
}

}  // namespace xydiff
