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
  VersionRepository repo(std::move(current));
  repo.deltas_ = std::move(deltas);
  repo.delta_digests_.resize(repo.deltas_.size());
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

Result<XmlDocument> VersionRepository::Checkout(int version,
                                                CheckoutStats* stats,
                                                const Context* context) const {
  if (stats != nullptr) *stats = CheckoutStats{};
  DeadlineChecker checkpoint(context, /*stride=*/1);
  XYDIFF_RETURN_IF_ERROR(checkpoint.CheckNow());
  XYDIFF_RETURN_IF_ERROR(CheckVersion(version));
  if (current_.root() == nullptr) {
    return Status::Corruption("repository has no current version");
  }
  if (version == current_version()) return current_.Clone();

  DeltaPathApplicator applicator(current_.Clone());
  for (int v = current_version(); v > version; --v) {
    // One check per application: each Push is O(delta), the natural
    // granularity for abandoning a reconstruction under deadline.
    XYDIFF_RETURN_IF_ERROR(checkpoint.Check());
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
