#ifndef XYDIFF_VERSION_SITE_DIFF_H_
#define XYDIFF_VERSION_SITE_DIFF_H_

#include <string>
#include <vector>

#include "delta/options.h"
#include "delta/delta.h"
#include "util/status.h"
#include "xml/document.h"

namespace xydiff {

/// Site-level change detection — the §7 extension ("We are also extending
/// the diff to observe changes between websites compared to changes to
/// pages") over the §6.2 site-metadata representation: a snapshot is one
/// XML document with a `<page url="...">` element per page.
///
/// Pages are identified by their `url` attribute, which is declared as an
/// ID attribute so that Phase 1 pins every surviving page regardless of
/// how the site reorganizes; the ordinary diff then runs once over the
/// whole snapshot and the delta is summarized per page.

/// What happened to one page between the snapshots.
enum class PageChangeKind { kAdded, kRemoved, kModified, kMoved };

const char* PageChangeKindName(PageChangeKind kind);

struct PageChange {
  std::string url;
  PageChangeKind kind = PageChangeKind::kModified;
  /// Number of elementary delta operations touching the page (1 for
  /// added/removed pages).
  size_t operations = 0;
};

/// Summary of a site-to-site diff.
struct SiteDiffResult {
  std::vector<PageChange> changes;  ///< Sorted by URL.
  size_t pages_old = 0;
  size_t pages_new = 0;
  size_t pages_added = 0;
  size_t pages_removed = 0;
  size_t pages_modified = 0;
  size_t pages_moved = 0;   ///< Relocated in the site tree, content intact.
  size_t total_operations = 0;

  /// Pages untouched between the snapshots.
  size_t pages_unchanged() const {
    return pages_new - pages_added - pages_modified - pages_moved;
  }
};

/// Diffs two site snapshots. Both documents must use `<page url="...">`
/// elements (any nesting). `old_site` receives initial XIDs if it has
/// none; both documents get `url` registered as the ID attribute of
/// `page`, so repeated calls chain like ordinary diffs.
Result<SiteDiffResult> DiffSites(XmlDocument* old_site, XmlDocument* new_site,
                                 const DiffOptions& options = {});

}  // namespace xydiff

#endif  // XYDIFF_VERSION_SITE_DIFF_H_
