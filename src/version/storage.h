#ifndef XYDIFF_VERSION_STORAGE_H_
#define XYDIFF_VERSION_STORAGE_H_

#include <string>
#include <vector>

#include "util/context.h"
#include "util/env.h"
#include "util/status.h"
#include "version/repository.h"

namespace xydiff {

/// On-disk persistence for the change-centric repository (Figure 1's
/// "Repository" box), crash-safe. Layout of a repository directory:
///
///   MANIFEST            the commit point. Names the live epoch, the
///                       chain length, and the size + CRC-64 of every
///                       live file; self-checksummed (last line is the
///                       CRC of everything above it). A repository IS
///                       whatever its MANIFEST says — files the
///                       MANIFEST does not mention are ignored.
///   current.<E>.xml     the checkpoint: one version, written by the save
///                       of epoch E (plain XML, DOCTYPE with the
///                       document's ID-attribute declarations)
///   current.<E>.meta    XID bookkeeping: line 1 `nextxid <N>`, line 2
///                       the XID-map of the whole document ("(1-15;17)"),
///                       line 3 `chain <k>`: the checkpoint is version
///                       k + 1. Without line 3 (stores written before
///                       checkpoints were carried) it is the newest.
///   delta.000001.bin    delta chain in the compact binary codec
///   delta.000002.bin    (delta/codec.h); delta.00000k transforms
///                       version k into version k+1
///   quarantine/         corrupt files moved aside by recovery, never
///                       deleted — forensics, not garbage
///
/// Write protocol (see DESIGN.md "Durability and recovery"): every file
/// goes temp → fsync → rename; the epoch counter gives a fresh
/// checkpoint a fresh name; the MANIFEST rename is the single atomic
/// commit point; one directory fsync makes it durable. A crash at any
/// step leaves either the old or the new repository, never a hybrid. A
/// directory without a MANIFEST holds no repository.
///
/// A save writes a checkpoint only when it must: it carries the old
/// MANIFEST's pair forward while that pair is the repository's own
/// (VersionRepository::checkpoint) and the encoded chain deltas after it
/// add up to no more bytes than its xml file; otherwise it writes a
/// fresh pair at the head. The checkpoint and the delta chain are the
/// whole repository: the newest version is the checkpoint with the
/// deltas after it replayed forward, and every past version is
/// reconstructed by backward replay from the newest.
/// Files of other names (such as the checkpoint.* and skip.* files that
/// older releases wrote for a reconstruction index) are never read and
/// never removed; the next save leaves them out of the MANIFEST.
///
/// All I/O is routed through an Env (util/env.h); `env == nullptr`
/// means Env::Default(). Chain deltas are stored in the binary codec
/// for compactness; the XML delta serialization (delta/delta_xml.h)
/// remains the interchange format — the two round-trip byte-identically
/// through Delta, so the §2 queryability property is one decode away.

/// What LoadRepository had to do to hand back a repository. `clean`
/// means the store verified end-to-end; anything else is degradation,
/// reported instead of failing wholesale.
struct RecoveryReport {
  bool clean = true;
  bool manifest_valid = true;   ///< MANIFEST present and self-consistent.
  bool used_fallback = false;   ///< The checkpoint came from the pair
                                ///< the MANIFEST superseded (crash
                                ///< before cleanup).
  int recovered_version_count = 0;
  size_t dropped_deltas = 0;    ///< Oldest history entries lost: a corrupt
                                ///< delta before the checkpoint severs
                                ///< everything older than itself
                                ///< (reconstruction walks backward from
                                ///< the current version).
  size_t lost_versions = 0;     ///< Newest versions lost: a corrupt delta
                                ///< at or after the checkpoint stops the
                                ///< forward replay, so the versions after
                                ///< it are unreachable and the loaded
                                ///< current version is the last one
                                ///< reached.
  std::vector<std::string> quarantined;  ///< Files moved to quarantine/.
  std::vector<std::string> notes;        ///< Human-readable event log.

  /// Multi-line summary for logs and the command-line tool.
  std::string ToString() const;
};

/// Writes one standalone repository into `directory` (created if
/// absent); Warehouse saves are group commits instead. Atomic:
/// after a crash at any point, LoadRepository yields either the previous
/// contents or this repository, bit-exactly. An error return means the
/// previous contents are still live (the MANIFEST was not committed),
/// except for IOError during post-commit cleanup, which is swallowed —
/// stale files are invisible to the loader.
///
/// The repository is taken mutably because the save records what it
/// wrote: the encoding digest of every chain delta it encodes (see
/// VersionRepository::delta_digest), so the next save of the same
/// repository encodes only the deltas committed in between, and any
/// fresh checkpoint (VersionRepository::checkpoint), so the next save
/// can carry it. The caller must hold whatever lock guards `repo`
/// against concurrent Commits.
Status SaveRepository(VersionRepository& repo, const std::string& directory,
                      Env* env = nullptr);

/// One repository in a group commit: what to write and where —
/// `subdirectory` is a single path component under the batch parent
/// directory (no separators). The repository records its delta digests
/// and checkpoint, as in SaveRepository.
struct RepositorySaveSlot {
  VersionRepository* repo = nullptr;
  std::string subdirectory;
};

/// Name of the journal SaveRepositoryBatch writes into `parent`.
inline constexpr char kBatchJournalName[] = "BATCH-COMMIT";

/// Group-commits many repositories under `parent` with ONE durable
/// commit point for the whole batch, instead of one MANIFEST rename +
/// directory sync per repository. Protocol (see DESIGN.md "Group
/// commit"):
///
///   1. every slot's data files are written and made durable (its
///      MANIFEST still names the old state);
///   2. a `BATCH-COMMIT` journal holding every slot's new MANIFEST is
///      atomically written into `parent` and synced — THE commit point;
///   3. each slot's MANIFEST is renamed into place and the journal is
///      removed (crash here: RecoverRepositoryBatch finishes the job
///      from the journal alone).
///
/// Atomicity is all-or-nothing across the whole batch: a reopen after a
/// crash at any point sees either every slot pre-batch or every slot
/// post-batch, never a mix. An error return means the journal was not
/// committed and every slot is still pre-batch, except errors during
/// step 3, where the journal is committed and recovery completes the
/// batch. Empty batches are a no-op.
///
/// `context` (optional, not owned) is checked between slots in step 1
/// and once more immediately before the journal write; a deadline or
/// cancellation there returns with every slot still pre-batch (the
/// already-written data files are unreferenced and invisible). It is
/// deliberately NOT checked after the journal commit: past the commit
/// point the batch must roll forward, or cancellation could manufacture
/// exactly the hybrid state the journal exists to prevent.
Status SaveRepositoryBatch(const std::vector<RepositorySaveSlot>& slots,
                           const std::string& parent, Env* env = nullptr,
                           const Context* context = nullptr);

/// Rolls forward (or discards) an interrupted SaveRepositoryBatch:
/// a committed journal re-writes every not-yet-switched slot MANIFEST;
/// a torn uncommitted journal is removed, leaving every slot pre-batch.
/// Call before loading repositories out of a batch parent directory
/// (Warehouse::Load does). No journal present is OK.
Status RecoverRepositoryBatch(const std::string& parent, Env* env = nullptr);

/// Loads a repository persisted by SaveRepository, verifying every file
/// against the MANIFEST checksums, and replays the deltas after the
/// checkpoint forward, each push verified. Self-heals where possible:
/// corrupt checkpoint files fall back to the superseded pair if it
/// survives; a corrupt delta before the checkpoint quarantines itself
/// and the (unreachable) older chain; one at or after it quarantines
/// itself and every newer delta, and the newest version it reached is
/// loaded as the current one; `report` (optional) says what happened. A
/// clean load records the checkpoint in the repository, so the next
/// save can carry it. Corruption is only declared for bytes that were
/// read successfully but verify wrong — a transient IOError aborts the
/// load untouched.
Result<VersionRepository> LoadRepository(const std::string& directory,
                                         Env* env = nullptr,
                                         RecoveryReport* report = nullptr);

/// Persists a standalone document with its XID bookkeeping (an
/// xml/meta pair at an arbitrary path prefix, no MANIFEST). Each file
/// is written atomically. Used by the command-line tools to chain
/// diffs across invocations.
Status SaveDocumentWithXids(const XmlDocument& doc,
                            const std::string& xml_path,
                            const std::string& meta_path, Env* env = nullptr);

/// Loads a document persisted by SaveDocumentWithXids.
Result<XmlDocument> LoadDocumentWithXids(const std::string& xml_path,
                                         const std::string& meta_path,
                                         Env* env = nullptr);

}  // namespace xydiff

#endif  // XYDIFF_VERSION_STORAGE_H_
