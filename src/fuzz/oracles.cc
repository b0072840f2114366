#include "fuzz/oracles.h"

#include <utility>

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
#include "version/repository.h"
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
                           const OracleOptions& options, Judge* judge) {
  XmlDocument old_doc = base.Clone();
  XmlDocument new_doc = changed.Clone();
  Result<Delta> delta = XyDiff(&old_doc, &new_doc, DiffOptions{});
  if (!delta.ok()) {
    // The differential oracle already reported diff failures.
    return;
  }

  if (options.check_invert) {
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
  }

  if (options.check_codec) {
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

/// Indexed (checkpoint + skip-delta) and replay Checkout must agree on
/// every version, byte-exactly with XIDs.
void CheckoutOracle(const XmlDocument& v1, const XmlDocument& v2,
                    const XmlDocument& v3, Judge* judge) {
  judge->Ran();
  VersionRepository replay(v1.Clone());
  VersionRepository indexed(v1.Clone());
  for (const XmlDocument* version : {&v2, &v3}) {
    Result<int> r = replay.Commit(version->Clone());
    Result<int> i = indexed.Commit(version->Clone());
    if (!r.ok() || !i.ok()) {
      judge->Fail("checkout", "commit failed: " +
                                  (r.ok() ? i.status() : r.status()).ToString());
      return;
    }
  }
  if (Status s = indexed.EnsureReconstructionIndex(); !s.ok()) {
    judge->Fail("checkout",
                "EnsureReconstructionIndex failed: " + s.ToString());
    return;
  }
  for (int version = 1; version <= replay.version_count(); ++version) {
    CheckoutStats replay_stats, indexed_stats;
    Result<XmlDocument> via_replay = replay.Checkout(version, &replay_stats);
    Result<XmlDocument> via_index = indexed.Checkout(version, &indexed_stats);
    if (!via_replay.ok() || !via_index.ok()) {
      judge->Fail("checkout",
                  "checkout of version " + std::to_string(version) +
                      " failed: " +
                      (via_replay.ok() ? via_index.status()
                                       : via_replay.status())
                          .ToString());
      return;
    }
    if (CanonicalWithXids(*via_replay) != CanonicalWithXids(*via_index)) {
      judge->Fail("checkout", "indexed and replay checkout disagree on "
                              "version " +
                                  std::to_string(version));
      return;
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
  if (options.check_differential) DifferentialOracle(base, changed, &judge);
  if (options.check_distance &&
      NodeCount(base) <= options.distance_node_limit &&
      NodeCount(changed) <= options.distance_node_limit) {
    DistanceOracle(base, changed, &judge);
  }
  if (options.check_roundtrip) {
    RoundtripOracle(base, "base", &judge);
    RoundtripOracle(changed, "changed", &judge);
  }
  if (options.check_invert || options.check_codec) {
    InvertAndCodecOracles(base, changed, options, &judge);
  }
  return judge.Take();
}

OracleReport CheckTrialOracles(const FuzzTrial& trial,
                               const OracleOptions& options) {
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
    if (options.check_compose) {
      ComposeOracle(*trial.v1, *trial.v2, *trial.v3, &judge);
    }
    if (options.check_checkout) {
      CheckoutOracle(*trial.v1, *trial.v2, *trial.v3, &judge);
    }
  }
  OracleReport chain = judge.Take();
  report.checks += chain.checks;
  for (OracleFailure& failure : chain.failures) {
    report.failures.push_back(std::move(failure));
  }
  return report;
}

}  // namespace xydiff
