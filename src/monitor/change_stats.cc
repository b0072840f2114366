#include "monitor/change_stats.h"

#include <algorithm>
#include <sstream>
#include <string_view>

namespace xydiff {

namespace {

/// Nearest element at or above the node, or nullptr.
const XmlNode* OwningElement(const XmlNode* node) {
  while (node != nullptr && !node->is_element()) node = node->parent();
  return node;
}

/// Adds `sign` (+1 or -1) per element of a delta snapshot to `counts`.
void CountSnapshot(const XmlNode& root, int sign,
                   std::map<std::string, size_t, std::less<>>* counts) {
  root.Visit([&](const XmlNode* n) {
    if (!n->is_element()) return;
    auto it = counts->find(n->label());
    if (it == counts->end()) {
      it = counts->emplace(std::string(n->label()), 0).first;
    }
    it->second += static_cast<size_t>(sign);
    if (it->second == 0) counts->erase(it);
  });
}

}  // namespace

LabelCounts LabelCounts::Of(const XmlDocument& doc) {
  LabelCounts out;
  if (doc.root() != nullptr) CountSnapshot(*doc.root(), +1, &out.counts_);
  return out;
}

void LabelCounts::Apply(const Delta& delta) {
  for (const DeleteOp& op : delta.deletes()) {
    if (op.subtree != nullptr) CountSnapshot(*op.subtree, -1, &counts_);
  }
  for (const InsertOp& op : delta.inserts()) {
    if (op.subtree != nullptr) CountSnapshot(*op.subtree, +1, &counts_);
  }
}

void ChangeStatistics::Accumulate(const Delta& delta,
                                  const XmlDocument& old_version,
                                  const XmlDocument& new_version) {
  Accumulate(delta, LabelCounts::Of(new_version),
             DeltaNodeIndex::Build(delta, old_version, new_version));
}

void ChangeStatistics::Accumulate(const Delta& delta,
                                  const LabelCounts& new_version_labels,
                                  const DeltaNodeIndex& nodes) {
  ++delta_count_;

  // Transparent-comparator lookup: increment by string_view, allocating a
  // key only the first time a label is ever seen.
  const auto stats_for = [this](std::string_view label) -> LabelStats& {
    auto it = by_label_.find(label);
    if (it == by_label_.end()) {
      it = by_label_.emplace(std::string(label), LabelStats{}).first;
    }
    return it->second;
  };

  // Occurrences: count element instances in the *new* version plus the
  // deleted elements of the old one, so every changed element is also
  // counted as occurring — one map lookup per distinct label.
  for (const auto& [label, count] : new_version_labels.counts()) {
    stats_for(label).occurrences += count;
  }

  for (const InsertOp& op : delta.inserts()) {
    const XmlNode* root = nodes.new_node(op.xid);
    if (root == nullptr) continue;
    root->Visit([&](const XmlNode* n) {
      if (n->is_element()) ++stats_for(n->label()).inserted;
    });
  }
  for (const DeleteOp& op : delta.deletes()) {
    const XmlNode* root = nodes.old_node(op.xid);
    if (root == nullptr) continue;
    root->Visit([&](const XmlNode* n) {
      if (!n->is_element()) return;
      LabelStats& stats = stats_for(n->label());
      ++stats.deleted;
      ++stats.occurrences;  // Deleted elements are not in the new version.
    });
  }
  for (const MoveOp& op : delta.moves()) {
    const XmlNode* owner = OwningElement(nodes.new_node(op.xid));
    if (owner != nullptr) ++stats_for(owner->label()).moved;
  }
  for (const UpdateOp& op : delta.updates()) {
    const XmlNode* owner = OwningElement(nodes.new_node(op.xid));
    if (owner != nullptr) ++stats_for(owner->label()).text_updated;
  }
  for (const AttributeOp& op : delta.attribute_ops()) {
    const XmlNode* element = nodes.new_node(op.element_xid);
    if (element != nullptr && element->is_element()) {
      ++stats_for(element->label()).attr_changed;
    }
  }
}

void ChangeStatistics::Merge(const ChangeStatistics& other) {
  delta_count_ += other.delta_count_;
  for (const auto& [label, stats] : other.by_label_) {
    LabelStats& mine = by_label_[label];
    mine.occurrences += stats.occurrences;
    mine.inserted += stats.inserted;
    mine.deleted += stats.deleted;
    mine.moved += stats.moved;
    mine.text_updated += stats.text_updated;
    mine.attr_changed += stats.attr_changed;
  }
}

ChangeStatistics::LabelStats ChangeStatistics::ForLabel(
    const std::string& label) const {
  auto it = by_label_.find(label);
  return it == by_label_.end() ? LabelStats{} : it->second;
}

std::vector<std::pair<std::string, ChangeStatistics::LabelStats>>
ChangeStatistics::MostVolatile(size_t limit, size_t min_occurrences) const {
  std::vector<std::pair<std::string, LabelStats>> out;
  for (const auto& [label, stats] : by_label_) {
    if (stats.occurrences >= min_occurrences && stats.total_changes() > 0) {
      out.emplace_back(label, stats);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second.change_rate() != b.second.change_rate()) {
      return a.second.change_rate() > b.second.change_rate();
    }
    return a.first < b.first;
  });
  if (out.size() > limit) out.resize(limit);
  return out;
}

std::string ChangeStatistics::Report(size_t limit) const {
  std::ostringstream os;
  os << "change statistics over " << delta_count_ << " delta(s)\n";
  os << "label                 occur   ins   del   mov   upd  attr   rate\n";
  for (const auto& [label, stats] : MostVolatile(limit)) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-20s %6zu %5zu %5zu %5zu %5zu %5zu %6.2f\n",
                  label.c_str(), stats.occurrences, stats.inserted,
                  stats.deleted, stats.moved, stats.text_updated,
                  stats.attr_changed, stats.change_rate());
    os << line;
  }
  return os.str();
}

}  // namespace xydiff
