#ifndef XYDIFF_VERSION_REPOSITORY_H_
#define XYDIFF_VERSION_REPOSITORY_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/buld.h"
#include "delta/options.h"
#include "delta/delta.h"
#include "util/annotations.h"
#include "util/status.h"
#include "xml/document.h"

namespace xydiff {

/// What one Checkout cost.
struct CheckoutStats {
  size_t applications = 0;   ///< Delta applications performed.
  size_t nodes_indexed = 0;  ///< XID index registrations (see
                             ///< DeltaPathApplicator::nodes_indexed).
};

/// Size and CRC-64 of one chain delta's encoding in the binary storage
/// codec (delta/codec.h) — the two numbers a MANIFEST entry records.
struct EncodedDigest {
  size_t size = 0;
  uint64_t crc = 0;

  bool operator==(const EncodedDigest&) const = default;
};

/// Change-centric version storage (§2, Figure 1; after [19]).
///
/// Mirrors the Xyleme repository: only the *current* version is
/// materialized, together with the chain of deltas
/// delta(V1,V2), delta(V2,V3), … ("The old version is then possibly
/// removed from the repository"). Any past version is reconstructed
/// by replaying the chain backward from the current version, undoing
/// one delta per step. The changes between two arbitrary versions come
/// from the persistent XIDs.
class VersionRepository {
 public:
  /// Starts a history with `first_version` as version 1. Initial XIDs are
  /// assigned if the document carries none.
  explicit VersionRepository(XmlDocument first_version);

  /// Reassembles a repository from persisted parts (see storage.h):
  /// the newest version (with XIDs) plus its delta chain.
  static VersionRepository FromParts(XmlDocument current,
                                     std::vector<Delta> deltas);

  /// Commits the next version: diffs it against the current one, stores
  /// the delta, and replaces the current version. Returns the new version
  /// number. `new_version` is consumed.
  ///
  /// When `superseded` is non-null it receives the previous current
  /// version instead of having it destroyed — the diff reads but never
  /// mutates the old document, so consumers (index maintenance, alerter,
  /// statistics) get the exact pre-commit tree without paying a Clone.
  Result<int> Commit(XmlDocument new_version, const DiffOptions& options = {},
                     XmlDocument* superseded = nullptr);

  /// Number of committed versions (>= 1).
  int version_count() const { return static_cast<int>(deltas_.size()) + 1; }
  /// The newest version number (== version_count()).
  int current_version() const { return version_count(); }
  /// The newest version's document.
  const XmlDocument& current() const { return current_; }

  /// Reconstructs version `version` (1-based) by applying the inverses
  /// of the n - version newest deltas to a clone of the current version.
  /// `stats` (optional) reports the cost actually paid.
  ///
  /// `context` (optional, not owned) is checked before each delta
  /// application, so a long replay chain under a deadline returns
  /// kDeadlineExceeded/kCancelled; the repository itself is never
  /// mutated by Checkout, so bailing is always clean.
  Result<XmlDocument> Checkout(int version, CheckoutStats* stats = nullptr,
                               const Context* context = nullptr) const;

  /// Delta committed between `version` and `version + 1`.
  Result<const Delta*> DeltaFor(int version) const
      XY_ARENA_BOUND("repository");

  /// Aggregated changes between two versions (from < to), derived from
  /// persistent identifiers — the "construct the changes between some
  /// versions n and n'" requirement of §2.
  Result<Delta> ChangesBetween(int from, int to) const;

  /// Temporal query (§2 "Querying the past"): the text content of the
  /// node with `xid` as of `version`, or nullopt if it did not exist or
  /// is not a text node.
  Result<std::optional<std::string>> TextAt(int version, Xid xid) const;

  /// Storage accounting: total bytes of the stored deltas in the binary
  /// storage codec (delta/codec.h) — what the version store writes.
  /// Deltas with a known digest are not encoded again.
  size_t stored_delta_bytes() const;

  /// Encoding digest of chain delta `index` (deltas()[index]), when
  /// known. Chain deltas never change once committed, so the store
  /// records each digest the first time it encodes or verifies the
  /// delta's file, and later saves compare digests instead of
  /// re-encoding the whole chain (storage.h).
  const std::optional<EncodedDigest>& delta_digest(size_t index) const {
    return delta_digests_[index];
  }

  /// Records the digest of chain delta `index`. Only the store calls
  /// this, with the size and CRC-64 of bytes that encode that delta.
  void set_delta_digest(size_t index, EncodedDigest digest) {
    delta_digests_[index] = digest;
  }

  /// The stored delta chain; deltas[k] transforms version k+1 into k+2.
  const std::vector<Delta>& deltas() const XY_ARENA_BOUND("repository") {
    return deltas_;
  }

  /// DiffStats of the most recent Commit.
  const DiffStats& last_commit_stats() const { return last_stats_; }

 private:
  Status CheckVersion(int version) const;

  XmlDocument current_;
  std::vector<Delta> deltas_;  // deltas_[k] transforms version k+1 -> k+2.
  // delta_digests_[k] caches the encoding digest of deltas_[k].
  std::vector<std::optional<EncodedDigest>> delta_digests_;
  DiffStats last_stats_;
};

}  // namespace xydiff

#endif  // XYDIFF_VERSION_REPOSITORY_H_
