#include "version/site_diff.h"

#include <map>
#include <unordered_map>

#include "core/buld.h"

namespace xydiff {

namespace {

constexpr const char* kPageLabel = "page";
constexpr const char* kUrlAttribute = "url";

/// URL of the nearest enclosing `<page>` of `node`, or nullptr when the
/// node is outside any page (site-level chrome).
const std::string_view* OwningPageUrl(const XmlNode* node) {
  for (; node != nullptr; node = node->parent()) {
    if (node->is_element() && node->label() == kPageLabel) {
      return node->FindAttribute(kUrlAttribute);
    }
  }
  return nullptr;
}

std::unordered_map<Xid, const XmlNode*> IndexByXid(const XmlDocument& doc) {
  std::unordered_map<Xid, const XmlNode*> index;
  if (doc.root() != nullptr) {
    doc.root()->Visit([&](const XmlNode* n) { index.emplace(n->xid(), n); });
  }
  return index;
}

}  // namespace

const char* PageChangeKindName(PageChangeKind kind) {
  switch (kind) {
    case PageChangeKind::kAdded: return "added";
    case PageChangeKind::kRemoved: return "removed";
    case PageChangeKind::kModified: return "modified";
    case PageChangeKind::kMoved: return "moved";
  }
  return "unknown";
}

Result<SiteDiffResult> DiffSites(XmlDocument* old_site, XmlDocument* new_site,
                                 const DiffOptions& options) {
  if (old_site->root() == nullptr || new_site->root() == nullptr) {
    return Status::InvalidArgument("both snapshots must have a root element");
  }
  // Pin pages by URL through Phase 1.
  old_site->dtd().DeclareIdAttribute(kPageLabel, kUrlAttribute);
  new_site->dtd().DeclareIdAttribute(kPageLabel, kUrlAttribute);

  Result<Delta> delta = XyDiff(old_site, new_site, options);
  if (!delta.ok()) return delta.status();

  SiteDiffResult result;
  const auto count_pages = [](const XmlDocument& doc) {
    size_t pages = 0;
    doc.root()->Visit([&](const XmlNode* n) {
      if (n->is_element() && n->label() == kPageLabel) ++pages;
    });
    return pages;
  };
  result.pages_old = count_pages(*old_site);
  result.pages_new = count_pages(*new_site);
  result.total_operations = delta->operation_count();

  const auto old_index = IndexByXid(*old_site);
  const auto new_index = IndexByXid(*new_site);
  const auto resolve = [](const std::unordered_map<Xid, const XmlNode*>& index,
                          Xid xid) -> const XmlNode* {
    auto it = index.find(xid);
    return it == index.end() ? nullptr : it->second;
  };

  // kind-per-URL accumulator: added/removed win over moved over modified.
  struct Accumulated {
    bool added = false;
    bool removed = false;
    bool relocated = false;
    size_t operations = 0;
  };
  std::map<std::string, Accumulated> by_url;

  const auto charge = [&](const XmlNode* node, bool relocation) {
    const std::string_view* url = OwningPageUrl(node);
    if (url == nullptr) return;
    Accumulated& acc = by_url[std::string(*url)];
    acc.operations += 1;
    if (relocation && node->is_element() && node->label() == kPageLabel) {
      acc.relocated = true;
    }
  };

  // Page creation/removal is read off the op *snapshots*: they exclude
  // moved-in/moved-out material, so a page that merely relocated through
  // an inserted or deleted region is not miscounted.
  for (const InsertOp& op : delta->inserts()) {
    bool counted_pages = false;
    if (op.subtree != nullptr) {
      op.subtree->Visit([&](const XmlNode* n) {
        if (n->is_element() && n->label() == kPageLabel) {
          const std::string_view* url = n->FindAttribute(kUrlAttribute);
          if (url != nullptr) {
            by_url[std::string(*url)].added = true;
            by_url[std::string(*url)].operations += 1;
            counted_pages = true;
          }
        }
      });
    }
    if (!counted_pages) charge(resolve(new_index, op.xid), false);
  }
  for (const DeleteOp& op : delta->deletes()) {
    bool counted_pages = false;
    if (op.subtree != nullptr) {
      op.subtree->Visit([&](const XmlNode* n) {
        if (n->is_element() && n->label() == kPageLabel) {
          const std::string_view* url = n->FindAttribute(kUrlAttribute);
          if (url != nullptr) {
            by_url[std::string(*url)].removed = true;
            by_url[std::string(*url)].operations += 1;
            counted_pages = true;
          }
        }
      });
    }
    if (!counted_pages) charge(resolve(old_index, op.xid), false);
  }
  for (const MoveOp& op : delta->moves()) {
    charge(resolve(new_index, op.xid), /*relocation=*/true);
  }
  for (const UpdateOp& op : delta->updates()) {
    charge(resolve(new_index, op.xid), false);
  }
  for (const AttributeOp& op : delta->attribute_ops()) {
    charge(resolve(new_index, op.element_xid), false);
  }

  for (auto& [url, acc] : by_url) {
    PageChange change;
    change.url = url;
    change.operations = acc.operations;
    if (acc.added && acc.removed) {
      // Same URL deleted and re-created: report as modified.
      change.kind = PageChangeKind::kModified;
      ++result.pages_modified;
    } else if (acc.added) {
      change.kind = PageChangeKind::kAdded;
      ++result.pages_added;
    } else if (acc.removed) {
      change.kind = PageChangeKind::kRemoved;
      ++result.pages_removed;
    } else if (acc.relocated && acc.operations == 1) {
      change.kind = PageChangeKind::kMoved;
      ++result.pages_moved;
    } else {
      change.kind = PageChangeKind::kModified;
      ++result.pages_modified;
    }
    result.changes.push_back(std::move(change));
  }
  return result;
}

}  // namespace xydiff
