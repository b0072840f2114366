#include "version/repository.h"

#include "delta/apply.h"
#include "delta/codec.h"
#include "delta/compose.h"

namespace xydiff {

VersionRepository::VersionRepository(XmlDocument first_version)
    : current_(std::move(first_version)) {
  if (current_.root() != nullptr && !current_.AllXidsAssigned()) {
    current_.AssignInitialXids();
  }
}

VersionRepository VersionRepository::FromParts(XmlDocument current,
                                               std::vector<Delta> deltas) {
  return FromParts(std::move(current), std::move(deltas),
                   ReconstructionIndex{});
}

VersionRepository VersionRepository::FromParts(XmlDocument current,
                                               std::vector<Delta> deltas,
                                               ReconstructionIndex index) {
  VersionRepository repo(std::move(current));
  repo.deltas_ = std::move(deltas);
  repo.delta_digests_.resize(repo.deltas_.size());
  repo.index_ = std::move(index);
  return repo;
}

Result<int> VersionRepository::Commit(XmlDocument new_version,
                                      const DiffOptions& options,
                                      XmlDocument* superseded) {
  if (current_.root() == nullptr) {
    return Status::Corruption("repository has no current version");
  }
  if (new_version.root() == nullptr) {
    return Status::InvalidArgument("cannot commit an empty document");
  }
  Result<Delta> delta = XyDiff(&current_, &new_version, options, &last_stats_);
  if (!delta.ok()) return delta.status();
  // Snapshot subtrees live in the delta's own arena and update values
  // are copied strings, so the delta is self-contained: the superseded
  // document can be handed off (or dropped) freely.
  deltas_.push_back(std::move(*delta));
  delta_digests_.emplace_back();
  if (superseded != nullptr) {
    *superseded = std::move(current_);
  }
  current_ = std::move(new_version);
  // Extend an *active* reconstruction index (checkpoint pinned by
  // EnsureReconstructionIndex or a loaded persisted index) with the
  // spans this commit completed. An inactive index costs a commit
  // nothing — pure diff pipelines never pay for reconstruction they
  // never ask for. Derived state: a failure here degrades future
  // Checkout cost, never the chain that was just committed.
  if (index_.checkpoint.has_value()) {
    // Justified discard: index maintenance is best-effort by contract.
    (void)BuildIndexEntries(/*fill_holes=*/false);
  }
  return current_version();
}

Status VersionRepository::CheckVersion(int version) const {
  if (version < 1 || version > version_count()) {
    return Status::NotFound("no version " + std::to_string(version) +
                            " (history has " +
                            std::to_string(version_count()) + ")");
  }
  return Status::OK();
}

Status VersionRepository::BuildIndexEntries(bool fill_holes) {
  if (!index_.checkpoint.has_value()) {
    // Version 1 was never pinned (the chain came from FromParts without
    // an index, or the index is being activated on a fresh repository).
    // One backward replay recreates it; every later call finds it
    // present — including Commit, which from now on maintains the index
    // incrementally.
    Result<XmlDocument> v1 = Checkout(1);
    if (!v1.ok()) return v1.status();
    index_.checkpoint = std::move(*v1);
  }
  if (deltas_.empty()) return Status::OK();
  for (size_t level = 0;
       ReconstructionIndex::SpanAtLevel(level) <= deltas_.size(); ++level) {
    const size_t span = ReconstructionIndex::SpanAtLevel(level);
    if (index_.levels.size() <= level) index_.levels.emplace_back();
    std::vector<std::optional<Delta>>& entries = index_.levels[level];
    const size_t complete = deltas_.size() / span;
    const size_t first = fill_holes ? 0 : entries.size();
    if (entries.size() < complete) entries.resize(complete);
    for (size_t i = first; i < complete; ++i) {
      if (entries[i].has_value()) continue;
      const Delta* d1 = nullptr;
      const Delta* d2 = nullptr;
      if (level == 0) {
        d1 = &deltas_[2 * i];
        d2 = &deltas_[2 * i + 1];
      } else {
        const std::vector<std::optional<Delta>>& lower =
            index_.levels[level - 1];
        if (lower.size() < 2 * i + 2 || !lower[2 * i].has_value() ||
            !lower[2 * i + 1].has_value()) {
          continue;  // Halves missing: the hole stays until they exist.
        }
        d1 = &*lower[2 * i];
        d2 = &*lower[2 * i + 1];
      }
      // The span's base version is reachable cheaply: every entry the
      // plan below it needs was built first (bottom-up, left-to-right).
      Result<XmlDocument> base = Checkout(static_cast<int>(i * span + 1));
      if (!base.ok()) return base.status();
      Result<Delta> composed = ComposeDeltas(*base, *d1, *d2);
      if (!composed.ok()) return composed.status();
      entries[i] = std::move(*composed);
    }
  }
  return Status::OK();
}

Status VersionRepository::EnsureReconstructionIndex() {
  return BuildIndexEntries(/*fill_holes=*/true);
}

Result<XmlDocument> VersionRepository::Checkout(int version,
                                                CheckoutStats* stats,
                                                const Context* context) const {
  if (stats != nullptr) *stats = CheckoutStats{};
  DeadlineChecker checkpoint_guard(context, /*stride=*/1);
  XYDIFF_RETURN_IF_ERROR(checkpoint_guard.CheckNow());
  XYDIFF_RETURN_IF_ERROR(CheckVersion(version));
  if (current_.root() == nullptr) {
    return Status::Corruption("repository has no current version");
  }
  const size_t backward_cost =
      static_cast<size_t>(version_count() - version);
  if (backward_cost == 0) return current_.Clone();

  // Forward plan: from the checkpoint, greedily take the largest
  // aligned skip span that exists and fits, falling back to single
  // chain deltas. With a complete index this is the binary
  // decomposition of version-1 — popcount(version-1) ≤ ⌈log₂ n⌉ steps.
  // Planning aborts as soon as it cannot beat the backward replay.
  std::vector<const Delta*> plan;
  bool plan_complete = false;
  if (index_.checkpoint.has_value()) {
    const size_t target = static_cast<size_t>(version);
    size_t cur = 1;
    while (cur < target && plan.size() < backward_cost) {
      const Delta* step = nullptr;
      size_t span = 1;
      for (size_t level = index_.levels.size(); level-- > 0;) {
        const size_t s = ReconstructionIndex::SpanAtLevel(level);
        if (s > target - cur || (cur - 1) % s != 0) continue;
        const size_t i = (cur - 1) / s;
        if (i < index_.levels[level].size() &&
            index_.levels[level][i].has_value()) {
          step = &*index_.levels[level][i];
          span = s;
          break;
        }
      }
      if (step == nullptr) step = &deltas_[cur - 1];
      plan.push_back(step);
      cur += span;
    }
    plan_complete = cur == static_cast<size_t>(version);
  }

  if (plan_complete) {
    DeltaPathApplicator applicator(index_.checkpoint->Clone());
    for (const Delta* step : plan) {
      // One check per application: each Push is O(delta), the natural
      // granularity for abandoning a reconstruction under deadline.
      XYDIFF_RETURN_IF_ERROR(checkpoint_guard.Check());
      XYDIFF_RETURN_IF_ERROR(applicator.Push(*step));
    }
    if (stats != nullptr) {
      stats->applications = applicator.applications();
      stats->nodes_indexed = applicator.nodes_indexed();
      stats->forward = true;
    }
    return std::move(applicator).Finish();
  }

  DeltaPathApplicator applicator(current_.Clone());
  for (int v = current_version(); v > version; --v) {
    XYDIFF_RETURN_IF_ERROR(checkpoint_guard.Check());
    // deltas_[v-2] transforms version v-1 into v; undo it.
    XYDIFF_RETURN_IF_ERROR(applicator.Push(
        deltas_[static_cast<size_t>(v) - 2], /*inverse=*/true));
  }
  if (stats != nullptr) {
    stats->applications = applicator.applications();
    stats->nodes_indexed = applicator.nodes_indexed();
  }
  return std::move(applicator).Finish();
}

Result<const Delta*> VersionRepository::DeltaFor(int version) const {
  XYDIFF_RETURN_IF_ERROR(CheckVersion(version));
  if (version == version_count()) {
    return Status::NotFound("version " + std::to_string(version) +
                            " is the newest; no outgoing delta");
  }
  return &deltas_[static_cast<size_t>(version) - 1];
}

Result<Delta> VersionRepository::ChangesBetween(int from, int to) const {
  XYDIFF_RETURN_IF_ERROR(CheckVersion(from));
  XYDIFF_RETURN_IF_ERROR(CheckVersion(to));
  if (from >= to) {
    return Status::InvalidArgument("ChangesBetween requires from < to");
  }
  Result<XmlDocument> from_doc = Checkout(from);
  if (!from_doc.ok()) return from_doc.status();
  Result<XmlDocument> to_doc = Checkout(to);
  if (!to_doc.ok()) return to_doc.status();
  return DeltaFromXidCorrespondence(&from_doc.value(), &to_doc.value());
}

Result<std::optional<std::string>> VersionRepository::TextAt(int version,
                                                             Xid xid) const {
  Result<XmlDocument> doc = Checkout(version);
  if (!doc.ok()) return doc.status();
  std::optional<std::string> out;
  doc->root()->Visit([&](const XmlNode* n) {
    if (n->xid() == xid && n->is_text()) out = n->text();
  });
  return out;
}

size_t VersionRepository::stored_delta_bytes() const {
  size_t total = 0;
  for (size_t i = 0; i < deltas_.size(); ++i) {
    total += delta_digests_[i].has_value()
                 ? delta_digests_[i]->size
                 : EncodeDeltaBinary(deltas_[i]).size();
  }
  return total;
}

}  // namespace xydiff
