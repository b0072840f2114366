#ifndef XYDIFF_MONITOR_CHANGE_STATS_H_
#define XYDIFF_MONITOR_CHANGE_STATS_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "delta/delta.h"
#include "delta/node_index.h"
#include "xml/document.h"

namespace xydiff {

/// Per-element-label change counters accumulated across deltas.
///
/// §5.2: "the DTD ... is an excellent structure to record statistical
/// information. It is therefore a useful tool to introduce learning
/// features in the algorithm, e.g. learn that a price node is more likely
/// to change than a description node." §7 likewise calls for gathering
/// "statistics on change frequency, patterns of changes in a document".
///
/// This module is that statistics collector: feed it every (delta,
/// old version, new version) triple a document produces, and it maintains
/// how often each element label was inserted, deleted, moved, had its
/// text updated, or had attributes changed — plus how often it occurred
/// at all, so rates are comparable across labels.
class ChangeStatistics {
 public:
  /// Counters for one element label.
  struct LabelStats {
    size_t occurrences = 0;  ///< Element instances seen across versions.
    size_t inserted = 0;
    size_t deleted = 0;
    size_t moved = 0;
    size_t text_updated = 0;  ///< A text child of this element changed.
    size_t attr_changed = 0;

    bool operator==(const LabelStats&) const = default;

    size_t total_changes() const {
      return inserted + deleted + moved + text_updated + attr_changed;
    }
    /// Changes per occurrence; 0 when the label was never seen.
    double change_rate() const {
      return occurrences == 0
                 ? 0.0
                 : static_cast<double>(total_changes()) /
                       static_cast<double>(occurrences);
    }
  };

  /// Accumulates one version transition. `old_version`/`new_version` are
  /// the documents the delta connects (needed to resolve XIDs to labels
  /// and to count occurrences).
  void Accumulate(const Delta& delta, const XmlDocument& old_version,
                  const XmlDocument& new_version);

  /// Same, against a prebuilt DeltaNodeIndex (which must have been built
  /// for this delta between the same two versions); the warehouse ingest
  /// path shares one node resolution across all delta consumers.
  void Accumulate(const Delta& delta, const XmlDocument& new_version,
                  const DeltaNodeIndex& nodes);

  /// Folds another collector into this one (used to merge per-thread
  /// collectors cheaply: O(labels), not O(document)).
  void Merge(const ChangeStatistics& other);

  /// Statistics for one label (zeros if never seen).
  LabelStats ForLabel(const std::string& label) const;

  /// Labels ranked by change rate, most volatile first; at most `limit`
  /// entries, labels with fewer than `min_occurrences` sightings skipped.
  std::vector<std::pair<std::string, LabelStats>> MostVolatile(
      size_t limit, size_t min_occurrences = 4) const;

  /// Number of transitions accumulated.
  size_t delta_count() const { return delta_count_; }

  /// Human-readable summary table.
  std::string Report(size_t limit = 10) const;

 private:
  // Transparent comparator: hot paths look labels up by string_view
  // without materialising a std::string per node.
  std::map<std::string, LabelStats, std::less<>> by_label_;
  size_t delta_count_ = 0;
};

}  // namespace xydiff

#endif  // XYDIFF_MONITOR_CHANGE_STATS_H_
