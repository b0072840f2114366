#include "delta/node_index.h"

#include <algorithm>
#include <bitset>

namespace xydiff {

namespace {

/// Sorts, dedups, and pairs the wanted XIDs with null nodes.
void Prepare(std::vector<Xid>* xids,
             std::vector<std::pair<Xid, const XmlNode*>>* entries) {
  std::sort(xids->begin(), xids->end());
  xids->erase(std::unique(xids->begin(), xids->end()), xids->end());
  entries->reserve(xids->size());
  for (Xid xid : *xids) entries->emplace_back(xid, nullptr);
}

/// One walk filling every wanted entry. The wanted set is tiny next to
/// the document, so a fixed bitset over the XIDs' low bits screens out
/// almost every node before the binary search.
void Fill(const XmlDocument& doc,
          std::vector<std::pair<Xid, const XmlNode*>>* entries) {
  if (entries->empty() || doc.root() == nullptr) return;
  constexpr Xid kScreenBits = 4096;
  std::bitset<kScreenBits> screen;
  for (const auto& entry : *entries) screen.set(entry.first % kScreenBits);
  doc.root()->Visit([entries, &screen](const XmlNode* n) {
    if (!screen.test(n->xid() % kScreenBits)) return;
    auto it = std::lower_bound(
        entries->begin(), entries->end(), n->xid(),
        [](const auto& entry, Xid xid) { return entry.first < xid; });
    if (it != entries->end() && it->first == n->xid()) it->second = n;
  });
}

}  // namespace

DeltaNodeIndex DeltaNodeIndex::Build(const Delta& delta,
                                     const XmlDocument& old_version,
                                     const XmlDocument& new_version) {
  DeltaNodeIndex index;
  std::vector<Xid> old_xids;
  std::vector<Xid> new_xids;
  for (const DeleteOp& op : delta.deletes()) old_xids.push_back(op.xid);
  for (const UpdateOp& op : delta.updates()) {
    old_xids.push_back(op.xid);
    new_xids.push_back(op.xid);
  }
  for (const InsertOp& op : delta.inserts()) new_xids.push_back(op.xid);
  for (const MoveOp& op : delta.moves()) new_xids.push_back(op.xid);
  for (const AttributeOp& op : delta.attribute_ops()) {
    new_xids.push_back(op.element_xid);
  }
  Prepare(&old_xids, &index.old_nodes_);
  Prepare(&new_xids, &index.new_nodes_);
  Fill(old_version, &index.old_nodes_);
  Fill(new_version, &index.new_nodes_);
  return index;
}

void DeltaNodeIndex::Seal() {
  for (Entries* entries : {&old_nodes_, &new_nodes_}) {
    std::sort(entries->begin(), entries->end());
    entries->erase(std::unique(entries->begin(), entries->end()),
                   entries->end());
  }
}

const XmlNode* DeltaNodeIndex::Find(const Entries& entries, Xid xid) {
  auto it = std::lower_bound(
      entries.begin(), entries.end(), xid,
      [](const auto& entry, Xid want) { return entry.first < want; });
  return it != entries.end() && it->first == xid ? it->second : nullptr;
}

}  // namespace xydiff
