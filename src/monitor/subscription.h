#ifndef XYDIFF_MONITOR_SUBSCRIPTION_H_
#define XYDIFF_MONITOR_SUBSCRIPTION_H_

#include <optional>
#include <string>
#include <vector>

#include "delta/delta.h"
#include "delta/node_index.h"
#include "util/status.h"
#include "xml/document.h"
#include "xml/path.h"

namespace xydiff {

/// What kind of change a subscription is interested in.
enum class ChangeKind { kInsert, kDelete, kUpdate, kMove, kAttribute };

const char* ChangeKindName(ChangeKind kind);

/// One fired notification.
struct Alert {
  std::string subscription_id;
  ChangeKind kind = ChangeKind::kUpdate;
  Xid xid = kNoXid;      ///< The affected node.
  std::string detail;    ///< Human-readable description.
};

/// The subscription system / Alerter of Figure 1 (§2 "Monitoring
/// changes"): "detect changes of interest in XML documents, e.g. that a
/// new product has been added to a catalog. ... at the time we obtain a
/// new version of some data, we diff it and verify if some of the changes
/// that have been detected are relevant to subscriptions."
///
/// A subscription pairs an element path (xml/path.h) with an optional
/// change kind. Evaluation runs over a delta plus the two document
/// versions (needed to resolve paths for nodes named by XID):
///  * insert  — fires when any element inside an inserted subtree matches;
///  * delete  — likewise, against the old version;
///  * update  — fires when the updated text's parent element matches;
///  * move    — fires when the moved element (new position) matches;
///  * attribute — fires when the owning element (new version) matches.
class Alerter {
 public:
  /// Registers a subscription. Fails on an invalid path expression or a
  /// duplicate id. `detail_contains`, when non-empty, further restricts
  /// the subscription to changes whose description contains the given
  /// substring (e.g. a product name within an inserted subtree's label,
  /// or a value within an update's old/new text).
  Status Subscribe(std::string id, std::string_view path_expression,
                   std::optional<ChangeKind> kind = std::nullopt,
                   std::string detail_contains = {});

  /// Removes a subscription; false if the id is unknown.
  bool Unsubscribe(std::string_view id);

  size_t subscription_count() const { return subscriptions_.size(); }

  /// Evaluates `delta` against the subscriptions. `old_version` and
  /// `new_version` are the two versions the delta connects.
  std::vector<Alert> Evaluate(const Delta& delta,
                              const XmlDocument& old_version,
                              const XmlDocument& new_version) const;

  /// Same, against a prebuilt DeltaNodeIndex so the warehouse ingest
  /// path resolves delta-referenced nodes once for all consumers.
  std::vector<Alert> Evaluate(const Delta& delta,
                              const DeltaNodeIndex& nodes) const;

 private:
  struct Subscription {
    std::string id;
    XmlPath path;
    std::optional<ChangeKind> kind;
    std::string detail_contains;  ///< Empty = no content filter.
  };

  std::vector<Subscription> subscriptions_;
};

}  // namespace xydiff

#endif  // XYDIFF_MONITOR_SUBSCRIPTION_H_
