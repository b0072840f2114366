#include "delta/compose.h"

#include <unordered_map>

#include "delta/delta_builder.h"
#include "delta/diff_tree.h"
#include "delta/signature.h"
#include "delta/apply.h"

namespace xydiff {

Result<Delta> DeltaFromXidCorrespondence(XmlDocument* from, XmlDocument* to,
                                         const DiffOptions& options) {
  if (from->root() == nullptr || to->root() == nullptr) {
    return Status::InvalidArgument("both documents must have a root element");
  }
  if (!from->AllXidsAssigned() || !to->AllXidsAssigned()) {
    return Status::InvalidArgument(
        "XID correspondence requires fully assigned XIDs");
  }

  LabelTable labels;
  DiffTree t1 = DiffTree::Build(from, &labels);
  DiffTree t2 = DiffTree::Build(to, &labels);
  // Weights drive the move-minimizing subsequence in Phase 5.
  ComputeSignaturesAndWeights(&t1, options);
  ComputeSignaturesAndWeights(&t2, options);

  std::unordered_map<Xid, NodeIndex> by_xid;
  by_xid.reserve(static_cast<size_t>(t1.size()));
  for (NodeIndex i = 0; i < t1.size(); ++i) {
    auto [it, inserted] = by_xid.emplace(t1.dom(i)->xid(), i);
    (void)it;  // Only the insertion outcome matters here.
    if (!inserted) {
      return Status::Corruption("duplicate XID " +
                                std::to_string(t1.dom(i)->xid()) +
                                " in source document");
    }
  }
  for (NodeIndex j = 0; j < t2.size(); ++j) {
    auto it = by_xid.find(t2.dom(j)->xid());
    if (it == by_xid.end()) continue;
    const NodeIndex i = it->second;
    if (t1.matched(i)) {
      return Status::Corruption("duplicate XID " +
                                std::to_string(t2.dom(j)->xid()) +
                                " in target document");
    }
    // Kind/label must agree for a node to be "the same" across versions;
    // a relabelled node is a delete+insert.
    if (t1.label(i) != t2.label(j)) continue;
    t1.set_match(i, j);
    t2.set_match(j, i);
  }

  DeltaBuildConfig config;
  config.assign_new_xids = false;
  Delta delta =
      BuildDeltaFromMatching(&t1, &t2, from, to, options, config);
  delta.set_old_next_xid(from->next_xid());
  delta.set_new_next_xid(to->next_xid());
  return delta;
}

Result<Delta> ComposeDeltas(const XmlDocument& base, const Delta& d1,
                            const Delta& d2, const DiffOptions& options) {
  XmlDocument source = base.Clone();
  DeltaPathApplicator path(base.Clone(), ApplyOptions{});
  XYDIFF_RETURN_IF_ERROR(path.Push(d1));
  XYDIFF_RETURN_IF_ERROR(path.Push(d2));
  XmlDocument work = std::move(path).Finish();
  Result<Delta> composed = DeltaFromXidCorrespondence(&source, &work, options);
  if (!composed.ok()) return composed.status();
  composed->set_old_next_xid(d1.old_next_xid());
  composed->set_new_next_xid(d2.new_next_xid());
  return composed;
}

}  // namespace xydiff
