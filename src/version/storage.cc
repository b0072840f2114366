#include "version/storage.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "delta/apply.h"
#include "delta/codec.h"
#include "util/hash.h"
#include "util/sharded_mutex.h"
#include "util/string_util.h"
#include "xid/xid_map.h"
#include "xml/xid_map_tree.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xydiff {

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestMagic[] = "xydiff-manifest 2";
constexpr char kQuarantineDir[] = "quarantine";
constexpr char kBatchMagic[] = "xydiff-batch 1";

std::string DeltaBinName(size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "delta.%06zu.bin", index + 1);
  return name;
}

std::string CurrentXmlName(int epoch) {
  char name[32];
  std::snprintf(name, sizeof(name), "current.%06d.xml", epoch);
  return name;
}

std::string CurrentMetaName(int epoch) {
  char name[32];
  std::snprintf(name, sizeof(name), "current.%06d.meta", epoch);
  return name;
}

std::string Hex64(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

bool ParseHex64(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  uint64_t value = 0;
  for (char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = value;
  return true;
}

/// One `file <name> <size> <crc64>` manifest entry.
struct ManifestFile {
  std::string name;
  size_t size = 0;
  uint64_t crc = 0;
};

/// Parsed MANIFEST: the complete description of one live repository
/// state. `prev_*` point at the epoch this save superseded, which is
/// the recovery fallback while the old files still exist.
struct Manifest {
  int epoch = 0;
  size_t chain = 0;
  int prev_epoch = 0;
  size_t prev_chain = 0;
  std::vector<ManifestFile> files;
};

/// Name -> entry lookup over one manifest's files, so that the per-file
/// loops of saving, loading and cleanup stay linear in the chain length.
/// Borrows the manifest, which must outlive it; a null manifest finds
/// nothing.
class ManifestLookup {
 public:
  explicit ManifestLookup(const Manifest* manifest) {
    if (manifest == nullptr) return;
    by_name_.reserve(manifest->files.size());
    for (const ManifestFile& f : manifest->files) by_name_.emplace(f.name, &f);
  }

  const ManifestFile* Find(std::string_view name) const {
    auto it = by_name_.find(name);
    return it != by_name_.end() ? it->second : nullptr;
  }

 private:
  std::unordered_map<std::string_view, const ManifestFile*> by_name_;
};

std::string FormatManifest(const Manifest& manifest) {
  std::ostringstream out;
  out << kManifestMagic << "\n"
      << "epoch " << manifest.epoch << "\n"
      << "chain " << manifest.chain << "\n";
  if (manifest.prev_epoch > 0) {
    out << "prev " << manifest.prev_epoch << " " << manifest.prev_chain
        << "\n";
  }
  for (const ManifestFile& f : manifest.files) {
    out << "file " << f.name << " " << f.size << " " << Hex64(f.crc) << "\n";
  }
  const std::string body = out.str();
  return body + "crc " + Hex64(Crc64(body)) + "\n";
}

/// Strict parse with self-checksum verification: any deviation is
/// Corruption (the caller decides whether that means salvage or a fresh
/// epoch counter).
Result<Manifest> ParseManifest(std::string_view text) {
  const size_t crc_line = text.rfind("crc ");
  if (crc_line == std::string::npos ||
      (crc_line != 0 && text[crc_line - 1] != '\n')) {
    return Status::Corruption("MANIFEST has no checksum line");
  }
  uint64_t stored_crc = 0;
  if (!ParseHex64(Trim(text.substr(crc_line + 4)), &stored_crc)) {
    return Status::Corruption("MANIFEST checksum line is malformed");
  }
  if (Crc64(text.substr(0, crc_line)) != stored_crc) {
    return Status::Corruption("MANIFEST failed its self-checksum");
  }

  Manifest manifest;
  const std::vector<std::string_view> lines =
      SplitLines(text.substr(0, crc_line));
  if (lines.empty() || lines[0] != kManifestMagic) {
    return Status::Corruption("MANIFEST has a bad magic line");
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    std::istringstream line{std::string(lines[i])};
    std::string keyword;
    line >> keyword;
    if (keyword == "epoch") {
      line >> manifest.epoch;
    } else if (keyword == "chain") {
      line >> manifest.chain;
    } else if (keyword == "prev") {
      line >> manifest.prev_epoch >> manifest.prev_chain;
    } else if (keyword == "file") {
      ManifestFile f;
      std::string crc_text;
      line >> f.name >> f.size >> crc_text;
      if (!ParseHex64(crc_text, &f.crc)) {
        return Status::Corruption("MANIFEST file entry has a bad checksum: " +
                                  std::string(lines[i]));
      }
      manifest.files.push_back(std::move(f));
    } else if (!keyword.empty()) {
      return Status::Corruption("MANIFEST has an unknown line: " +
                                std::string(lines[i]));
    }
    if (line.fail()) {
      return Status::Corruption("MANIFEST line is malformed: " +
                                std::string(lines[i]));
    }
  }
  if (manifest.epoch <= 0) {
    return Status::Corruption("MANIFEST has no epoch");
  }
  return manifest;
}

std::string SerializeCurrentXml(const XmlDocument& doc) {
  SerializeOptions options;
  options.xml_declaration = true;
  options.doctype = true;
  return SerializeDocument(doc, options);
}

std::string SerializeCurrentMeta(const XmlDocument& doc) {
  std::ostringstream meta;
  meta << "nextxid " << doc.next_xid() << "\n"
       << XidMapFromSubtree(*doc.root()).ToString() << "\n";
  return meta.str();
}

/// Rebuilds a document from its persisted xml/meta texts, restoring
/// every node's XID. The document is internally validated (XID-map
/// arity must match the tree), so this doubles as a structural check.
Result<XmlDocument> ParseDocumentPair(std::string_view xml_text,
                                      std::string_view meta_text,
                                      const std::string& context) {
  Result<XmlDocument> doc = ParseXml(xml_text);
  if (!doc.ok()) return doc.status();
  const std::vector<std::string_view> lines = SplitLines(meta_text);
  if (lines.size() < 2 || !StartsWith(lines[0], "nextxid ")) {
    return Status::Corruption("malformed meta file: " + context);
  }
  uint64_t next_xid = 0;
  if (!ParseUint64(Trim(lines[0].substr(8)), &next_xid) || next_xid == 0) {
    return Status::Corruption("bad nextxid in meta file: " + context);
  }
  Result<XidMap> map = XidMap::Parse(lines[1]);
  if (!map.ok()) return map.status();
  if (doc->root() == nullptr) {
    return Status::Corruption("persisted document has no root: " + context);
  }
  XYDIFF_RETURN_IF_ERROR(ApplyXidMapToSubtree(*map, doc->root()));
  doc->set_next_xid(next_xid);
  return doc;
}

/// Concurrent batch workers may save/load distinct repositories at once;
/// this sharded map serializes accesses *per directory* (two shards for
/// two different directories proceed in parallel) so a reader never sees
/// a half-written delta chain.
ShardedMutexMap<16>& DirectoryLocks() {
  static ShardedMutexMap<16> locks;
  return locks;
}

Env* Resolve(Env* env) { return env != nullptr ? env : Env::Default(); }

/// Reads the MANIFEST. Outcomes: a manifest; `nullopt` (absent or
/// corrupt — `*corrupt` says which); or a propagated transient error.
Result<std::optional<Manifest>> TryReadManifest(const std::string& directory,
                                                Env* env, bool* corrupt) {
  *corrupt = false;
  Result<std::string> text =
      env->ReadFile(directory + "/" + kManifestName);
  if (!text.ok()) {
    if (text.status().code() == StatusCode::kNotFound) {
      return std::optional<Manifest>();
    }
    return text.status();
  }
  Result<Manifest> manifest = ParseManifest(*text);
  if (!manifest.ok()) {
    *corrupt = true;
    return std::optional<Manifest>();
  }
  return std::optional<Manifest>(std::move(*manifest));
}

/// Moves `dir/name` into `dir/quarantine/` — best effort: recovery must
/// not die on the forensics step. Records the outcome in the report.
void QuarantineFile(const std::string& directory, const std::string& name,
                    Env* env, RecoveryReport* report) {
  Status made = env->CreateDirs(directory + "/" + kQuarantineDir);
  Status moved =
      made.ok() ? env->RenameFile(directory + "/" + name,
                                  directory + "/" + kQuarantineDir + "/" +
                                      name)
                : made;
  if (moved.ok()) {
    report->quarantined.push_back(name);
  } else {
    report->notes.push_back("could not quarantine " + name + ": " +
                            moved.ToString());
  }
}

/// Reads and checksum-verifies one manifest-listed file. Corruption and
/// absence come back as Corruption (recoverable by quarantine/fallback);
/// transient read failures propagate as IOError so the caller aborts
/// instead of "healing" a store that is merely unreachable.
Result<std::string> ReadVerified(const std::string& directory,
                                 const ManifestFile& entry, Env* env) {
  Result<std::string> text = env->ReadFile(directory + "/" + entry.name);
  if (!text.ok()) {
    if (text.status().code() == StatusCode::kNotFound) {
      return Status::Corruption("manifest-listed file missing: " +
                                entry.name);
    }
    return text.status();
  }
  if (text->size() != entry.size) {
    return Status::Corruption(entry.name + " has " +
                              std::to_string(text->size()) +
                              " bytes, manifest says " +
                              std::to_string(entry.size));
  }
  if (Crc64(*text) != entry.crc) {
    return Status::Corruption(entry.name + " failed its CRC-64 check");
  }
  return text;
}

/// Post-commit removal of files the new MANIFEST does not reference:
/// stale deltas, superseded current epochs, leftover temp files. Best
/// effort — the loader never looks at unreferenced files, so a failed
/// removal costs bytes, not correctness.
void CleanupUnreferenced(const std::string& directory,
                         const Manifest& manifest, Env* env) {
  Result<std::vector<std::string>> names = env->ListDir(directory);
  // Justified discard: cleanup is best-effort by contract (see above).
  if (!names.ok()) return;
  const ManifestLookup live(&manifest);
  for (const std::string& name : *names) {
    if (name == kManifestName || name == kQuarantineDir) continue;
    const bool managed = StartsWith(name, "delta.") ||
                         StartsWith(name, "current.") ||
                         (name.size() > 4 &&
                          name.compare(name.size() - 4, 4, ".tmp") == 0);
    if (!managed || live.Find(name) != nullptr) continue;
    // Justified discard: see function comment — stale files are inert.
    (void)env->RemoveFile(directory + "/" + name);
  }
}

/// Walks the chain backward from the current version, proving every
/// delta still applies (deltas are invertible, so validation is one
/// inverse-apply each). Returns the number of *oldest* deltas that must
/// be dropped: a delta that no longer applies severs every older one,
/// because reconstruction can never step past it.
size_t VerifyChainApplies(const XmlDocument& current,
                          const std::vector<Delta>& deltas,
                          size_t file_index_base, RecoveryReport* report) {
  // Verified replay: recovery is exactly where a step may fail.
  DeltaPathApplicator replay(current.Clone(), ApplyOptions{});
  for (size_t j = deltas.size(); j > 0; --j) {
    const Status applied = replay.Push(deltas[j - 1], /*inverse=*/true);
    if (!applied.ok()) {
      report->notes.push_back(
          "chain delta " + std::to_string(file_index_base + j) +
          " no longer applies to the recovered document (" +
          applied.ToString() + "); dropping it and the older chain");
      return j;
    }
  }
  return 0;
}

/// Quarantines chain delta `index` if its file is still on disk.
void QuarantineDelta(const std::string& directory, size_t index, Env* env,
                     RecoveryReport* report) {
  const std::string name = DeltaBinName(index);
  if (env->FileExists(directory + "/" + name)) {
    QuarantineFile(directory, name, env, report);
  }
}

/// The one manifest-install step, run by SaveRepository and by the batch
/// roll-forward alike: the MANIFEST rename is the commit point, the
/// directory fsync makes it durable, and the files the new manifest no
/// longer references are then removed (best effort). Caller holds the
/// directory's lock.
Status InstallManifest(const std::string& directory,
                       const std::string& manifest_text,
                       const Manifest& manifest, Env* env) {
  XYDIFF_RETURN_IF_ERROR(
      env->WriteFileAtomic(directory + "/" + kManifestName, manifest_text));
  XYDIFF_RETURN_IF_ERROR(env->SyncDir(directory));
  CleanupUnreferenced(directory, manifest, env);
  return Status::OK();
}

/// Loads the current document for `epoch` without manifest checksums
/// (used for the previous-epoch fallback, whose manifest is gone):
/// parse-level validation only.
Result<XmlDocument> LoadCurrentUnverified(const std::string& directory,
                                          int epoch, Env* env) {
  Result<std::string> xml =
      env->ReadFile(directory + "/" + CurrentXmlName(epoch));
  if (!xml.ok()) return xml.status();
  Result<std::string> meta =
      env->ReadFile(directory + "/" + CurrentMetaName(epoch));
  if (!meta.ok()) return meta.status();
  return ParseDocumentPair(*xml, *meta,
                           directory + "/" + CurrentMetaName(epoch));
}

}  // namespace

std::string RecoveryReport::ToString() const {
  std::ostringstream out;
  out << (clean ? "clean" : "recovered") << ": "
      << recovered_version_count << " version(s)";
  if (!manifest_valid) out << ", manifest invalid";
  if (used_fallback) out << ", fell back to previous epoch";
  if (dropped_deltas > 0) out << ", dropped " << dropped_deltas
                              << " oldest delta(s)";
  if (!quarantined.empty()) {
    out << ", quarantined:";
    for (const std::string& name : quarantined) out << " " << name;
  }
  for (const std::string& note : notes) out << "\n  " << note;
  return out.str();
}

Status SaveDocumentWithXids(const XmlDocument& doc,
                            const std::string& xml_path,
                            const std::string& meta_path, Env* env) {
  if (doc.root() == nullptr) {
    return Status::InvalidArgument("cannot persist an empty document");
  }
  env = Resolve(env);
  XYDIFF_RETURN_IF_ERROR(
      env->WriteFileAtomic(xml_path, SerializeCurrentXml(doc)));
  return env->WriteFileAtomic(meta_path, SerializeCurrentMeta(doc));
}

Result<XmlDocument> LoadDocumentWithXids(const std::string& xml_path,
                                         const std::string& meta_path,
                                         Env* env) {
  env = Resolve(env);
  Result<std::string> xml = env->ReadFile(xml_path);
  if (!xml.ok()) return xml.status();
  Result<std::string> meta = env->ReadFile(meta_path);
  if (!meta.ok()) return meta.status();
  return ParseDocumentPair(*xml, *meta, meta_path);
}

namespace {

/// Writes a repository's *data* files (delta chain + epoch-fresh current
/// snapshot) into `directory` and returns the manifest describing them —
/// WITHOUT committing it. The live MANIFEST still names the old state
/// until the caller writes the returned manifest (SaveRepository) or
/// group-commits it through a batch journal (SaveRepositoryBatch).
/// Caller holds the directory's lock.
///
/// Chain deltas are encoded only when the repository holds no digest for
/// them or the old manifest disagrees with it; each digest computed here
/// is recorded in `repo`, so a steady-state save encodes just the deltas
/// committed since the last one.
Result<Manifest> WriteRepositoryData(VersionRepository& repo,
                                     const std::string& directory, Env* env) {
  if (repo.current().root() == nullptr) {
    return Status::InvalidArgument("cannot persist an empty document");
  }
  XYDIFF_RETURN_IF_ERROR(env->CreateDirs(directory));

  bool old_corrupt = false;
  Result<std::optional<Manifest>> old_manifest =
      TryReadManifest(directory, env, &old_corrupt);
  if (!old_manifest.ok()) return old_manifest.status();
  const Manifest* old =
      old_manifest->has_value() ? &old_manifest->value() : nullptr;
  const ManifestLookup old_files(old);

  Manifest next;
  next.epoch = old != nullptr ? old->epoch + 1 : 1;
  next.chain = repo.deltas().size();
  if (old != nullptr) {
    next.prev_epoch = old->epoch;
    next.prev_chain = old->chain;
  }

  // A delta file is written unless the old manifest already lists the
  // same bytes under the same name — in the common append-only case
  // every prefix delta is skipped, so a commit writes one delta, two
  // current files, and the MANIFEST.
  //
  // The existence check matters after recovery: a quarantined file is
  // still listed (with matching bytes) in the superseded manifest but is
  // gone from the directory, and must be rewritten, not skipped.
  auto unchanged = [&](const ManifestFile& entry) {
    const ManifestFile* existing = old_files.Find(entry.name);
    return existing != nullptr && existing->size == entry.size &&
           existing->crc == entry.crc &&
           env->FileExists(directory + "/" + entry.name);
  };

  // Delta chain, in the compact binary codec (delta/codec.h). A delta
  // whose recorded digest the old manifest already lists is kept without
  // being encoded again.
  for (size_t i = 0; i < repo.deltas().size(); ++i) {
    std::string name = DeltaBinName(i);
    if (const std::optional<EncodedDigest>& digest = repo.delta_digest(i);
        digest.has_value()) {
      ManifestFile entry{name, digest->size, digest->crc};
      if (unchanged(entry)) {
        next.files.push_back(std::move(entry));
        continue;
      }
    }
    const std::string bytes = EncodeDeltaBinary(repo.deltas()[i]);
    ManifestFile entry{std::move(name), bytes.size(), Crc64(bytes)};
    if (!unchanged(entry)) {
      XYDIFF_RETURN_IF_ERROR(
          env->WriteFileAtomic(directory + "/" + entry.name, bytes));
    }
    repo.set_delta_digest(i, {entry.size, entry.crc});
    next.files.push_back(std::move(entry));
  }

  // Current snapshot under an epoch-fresh name, so the live epoch's
  // files are never written over and a crashed save cannot corrupt them.
  const std::string xml_text = SerializeCurrentXml(repo.current());
  const std::string meta_text = SerializeCurrentMeta(repo.current());
  const std::string xml_name = CurrentXmlName(next.epoch);
  const std::string meta_name = CurrentMetaName(next.epoch);
  XYDIFF_RETURN_IF_ERROR(
      env->WriteFileAtomic(directory + "/" + xml_name, xml_text));
  XYDIFF_RETURN_IF_ERROR(
      env->WriteFileAtomic(directory + "/" + meta_name, meta_text));
  next.files.push_back({xml_name, xml_text.size(), Crc64(xml_text)});
  next.files.push_back({meta_name, meta_text.size(), Crc64(meta_text)});
  return next;
}

}  // namespace

Status SaveRepository(VersionRepository& repo, const std::string& directory,
                      Env* env) {
  MutexLock lock(DirectoryLocks().For(directory));
  env = Resolve(env);
  Result<Manifest> next = WriteRepositoryData(repo, directory, env);
  if (!next.ok()) return next.status();
  return InstallManifest(directory, FormatManifest(*next), *next, env);
}

namespace {

/// A multi-directory batch commit needs one *outer* lock per parent
/// directory (the ShardedMutexMap contract forbids holding two shards
/// of one map at once, and two aliasing keys from the same map would
/// self-deadlock against the per-slot DirectoryLocks). Lock order is
/// always batch lock, then one slot lock at a time.
ShardedMutexMap<16>& BatchLocks() {
  static ShardedMutexMap<16> locks;
  return locks;
}

/// One slot entry recovered from a batch journal.
struct BatchSlotEntry {
  std::string subdirectory;
  std::string manifest_text;  ///< Verbatim MANIFEST bytes to install.
  Manifest manifest;          ///< Parsed form (epoch guard, cleanup).
};

/// `subdirectory` must be one sane path component: the journal is
/// written by us, but a corrupted journal must never direct writes
/// outside the batch parent.
bool ValidSubdirectory(std::string_view name) {
  return !name.empty() && name != "." && name != ".." &&
         name.find('/') == std::string_view::npos &&
         name.find('\\') == std::string_view::npos;
}

std::string FormatBatchJournal(const std::vector<BatchSlotEntry>& entries) {
  std::string out = std::string(kBatchMagic) + "\n";
  for (const BatchSlotEntry& entry : entries) {
    out += "slot " + entry.subdirectory + " " +
           std::to_string(entry.manifest_text.size()) + "\n";
    out += entry.manifest_text;  // Ends with '\n' (FormatManifest).
  }
  out += "crc " + Hex64(Crc64(out)) + "\n";
  return out;
}

/// Strict parse with self-checksum verification. Any deviation is
/// Corruption, which recovery treats as "never committed": embedded
/// manifests end with their own `crc` lines, but the journal's final
/// line is the last one, so `rfind` lands on it — and a journal torn
/// off right after an embedded crc line fails the whole-body checksum.
Result<std::vector<BatchSlotEntry>> ParseBatchJournal(std::string_view text) {
  const size_t crc_line = text.rfind("crc ");
  if (crc_line == std::string::npos ||
      (crc_line != 0 && text[crc_line - 1] != '\n')) {
    return Status::Corruption("batch journal has no checksum line");
  }
  uint64_t stored_crc = 0;
  if (!ParseHex64(Trim(text.substr(crc_line + 4)), &stored_crc)) {
    return Status::Corruption("batch journal checksum line is malformed");
  }
  if (Crc64(text.substr(0, crc_line)) != stored_crc) {
    return Status::Corruption("batch journal failed its self-checksum");
  }

  size_t pos = text.find('\n');
  if (pos == std::string_view::npos ||
      text.substr(0, pos) != kBatchMagic) {
    return Status::Corruption("batch journal has a bad magic line");
  }
  ++pos;

  std::vector<BatchSlotEntry> entries;
  while (pos < crc_line) {
    const size_t line_end = text.find('\n', pos);
    if (line_end == std::string_view::npos || line_end >= crc_line) {
      return Status::Corruption("batch journal slot header is truncated");
    }
    std::istringstream header{std::string(text.substr(pos, line_end - pos))};
    std::string keyword, name;
    size_t size = 0;
    header >> keyword >> name >> size;
    if (header.fail() || keyword != "slot" || !ValidSubdirectory(name)) {
      return Status::Corruption("batch journal slot header is malformed: " +
                                std::string(text.substr(pos, line_end - pos)));
    }
    pos = line_end + 1;
    if (pos + size > crc_line) {
      return Status::Corruption("batch journal manifest overruns: " + name);
    }
    BatchSlotEntry entry;
    entry.subdirectory = std::move(name);
    entry.manifest_text = std::string(text.substr(pos, size));
    Result<Manifest> manifest = ParseManifest(entry.manifest_text);
    if (!manifest.ok()) {
      return Status::Corruption("batch journal embeds a bad manifest for " +
                                entry.subdirectory + ": " +
                                manifest.status().message());
    }
    entry.manifest = std::move(*manifest);
    entries.push_back(std::move(entry));
    pos += size;
  }
  return entries;
}

/// Rolls the journal forward (caller holds the batch lock). The journal
/// is the committed truth: every slot whose live MANIFEST is older than
/// the journal's gets the journal's installed; slots already at or past
/// it are skipped (a crash can interrupt a previous roll-forward half
/// way). A journal that fails verification was never the commit point —
/// it is removed and every slot stays pre-batch.
Status ApplyBatchJournalLocked(const std::string& parent, Env* env) {
  const std::string journal_path = parent + "/" + kBatchJournalName;
  Result<std::string> text = env->ReadFile(journal_path);
  if (!text.ok()) {
    if (text.status().code() == StatusCode::kNotFound) {
      return Status::OK();  // Nothing pending.
    }
    return text.status();
  }
  Result<std::vector<BatchSlotEntry>> entries = ParseBatchJournal(*text);
  if (!entries.ok()) {
    // Justified discard: a torn journal is inert either way — if it
    // cannot be removed now, the next recovery discards it again.
    (void)env->RemoveFile(journal_path);
    return Status::OK();
  }
  for (const BatchSlotEntry& entry : *entries) {
    const std::string dir = parent + "/" + entry.subdirectory;
    MutexLock slot_lock(DirectoryLocks().For(dir));
    bool corrupt = false;
    Result<std::optional<Manifest>> live = TryReadManifest(dir, env, &corrupt);
    if (!live.ok()) return live.status();
    if (live->has_value() && (*live)->epoch >= entry.manifest.epoch) {
      continue;  // Already rolled forward (or overtaken by a later save).
    }
    XYDIFF_RETURN_IF_ERROR(env->CreateDirs(dir));
    XYDIFF_RETURN_IF_ERROR(
        InstallManifest(dir, entry.manifest_text, entry.manifest, env));
  }
  XYDIFF_RETURN_IF_ERROR(env->RemoveFile(journal_path));
  return env->SyncDir(parent);
}

}  // namespace

Status SaveRepositoryBatch(const std::vector<RepositorySaveSlot>& slots,
                           const std::string& parent, Env* env,
                           const Context* context) {
  env = Resolve(env);
  if (slots.empty()) return Status::OK();
  DeadlineChecker checkpoint(context, /*stride=*/1);
  XYDIFF_RETURN_IF_ERROR(checkpoint.CheckNow());
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].repo == nullptr) {
      return Status::InvalidArgument("batch slot without a repository");
    }
    if (!ValidSubdirectory(slots[i].subdirectory)) {
      return Status::InvalidArgument("batch slot subdirectory invalid: " +
                                     slots[i].subdirectory);
    }
    for (size_t j = 0; j < i; ++j) {
      if (slots[j].subdirectory == slots[i].subdirectory) {
        return Status::InvalidArgument("duplicate batch slot: " +
                                       slots[i].subdirectory);
      }
    }
  }

  MutexLock batch_lock(BatchLocks().For(parent));
  XYDIFF_RETURN_IF_ERROR(env->CreateDirs(parent));
  // An interrupted predecessor rolls forward first: its journal is
  // committed truth and must not be overwritten with ours while slots
  // still point at the state before it.
  XYDIFF_RETURN_IF_ERROR(ApplyBatchJournalLocked(parent, env));

  // Phase 1: every slot's data files, made durable NOW. The journal
  // below carries manifests only — recovery has no repositories in
  // memory, so the bytes those manifests describe must already be on
  // disk at the commit point.
  std::vector<BatchSlotEntry> entries(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    // Pre-commit check-point: bailing between slots leaves only
    // unreferenced data files behind — every slot is still pre-batch.
    XYDIFF_RETURN_IF_ERROR(checkpoint.Check());
    const std::string dir = parent + "/" + slots[i].subdirectory;
    MutexLock slot_lock(DirectoryLocks().For(dir));
    Result<Manifest> next = WriteRepositoryData(*slots[i].repo, dir, env);
    if (!next.ok()) return next.status();
    XYDIFF_RETURN_IF_ERROR(env->SyncDir(dir));
    entries[i].subdirectory = slots[i].subdirectory;
    entries[i].manifest_text = FormatManifest(*next);
    entries[i].manifest = std::move(*next);
  }

  // Phase 2: THE commit point — one atomic journal write + one parent
  // directory sync covers the entire group. The LAST context check
  // happens here; once the journal is durable the batch rolls forward
  // no matter what the context says (see the header contract).
  XYDIFF_RETURN_IF_ERROR(checkpoint.CheckNow());
  XYDIFF_RETURN_IF_ERROR(env->WriteFileAtomic(
      parent + "/" + kBatchJournalName, FormatBatchJournal(entries)));
  XYDIFF_RETURN_IF_ERROR(env->SyncDir(parent));

  // Phase 3: roll forward — deliberately the same code path recovery
  // runs, so every successful save also proves the recovery path.
  return ApplyBatchJournalLocked(parent, env);
}

Status RecoverRepositoryBatch(const std::string& parent, Env* env) {
  env = Resolve(env);
  MutexLock batch_lock(BatchLocks().For(parent));
  return ApplyBatchJournalLocked(parent, env);
}

Result<VersionRepository> LoadRepository(const std::string& directory,
                                         Env* env, RecoveryReport* report) {
  MutexLock lock(DirectoryLocks().For(directory));
  env = Resolve(env);
  RecoveryReport local;
  if (report == nullptr) report = &local;
  *report = RecoveryReport{};

  bool manifest_corrupt = false;
  Result<std::optional<Manifest>> read =
      TryReadManifest(directory, env, &manifest_corrupt);
  if (!read.ok()) return read.status();

  std::optional<Manifest> manifest = std::move(*read);
  if (!manifest.has_value()) {
    if (manifest_corrupt) {
      report->manifest_valid = false;
      report->clean = false;
      report->notes.push_back("MANIFEST failed verification");
      QuarantineFile(directory, kManifestName, env, report);
      // Salvage: the newest epoch whose current files still parse.
      Result<std::vector<std::string>> names = env->ListDir(directory);
      if (!names.ok()) return names.status();
      int best_epoch = 0;
      for (const std::string& name : *names) {
        int epoch = 0;
        if (std::sscanf(name.c_str(), "current.%06d.xml", &epoch) == 1) {
          best_epoch = std::max(best_epoch, epoch);
        }
      }
      while (best_epoch > 0) {
        if (LoadCurrentUnverified(directory, best_epoch, env).ok()) break;
        --best_epoch;
      }
      if (best_epoch == 0) {
        return Status::Corruption(
            "MANIFEST corrupt and no loadable current version in " +
            directory);
      }
      report->notes.push_back("salvaged epoch " + std::to_string(best_epoch));
      // Synthesize a checksum-less manifest over whatever chain parses.
      Manifest salvaged;
      salvaged.epoch = best_epoch;
      salvaged.chain = 0;
      while (env->FileExists(directory + "/" + DeltaBinName(salvaged.chain))) {
        ++salvaged.chain;
      }
      manifest = std::move(salvaged);
    } else {
      return Status::NotFound("no repository in " + directory);
    }
  }

  const bool verified = report->manifest_valid;
  const ManifestLookup listed(&*manifest);  // Salvaged: no entries.

  // --- current version --------------------------------------------------
  Result<XmlDocument> current = Status::Corruption("unset");
  size_t chain = manifest->chain;
  if (verified) {
    const ManifestFile* xml_entry =
        listed.Find(CurrentXmlName(manifest->epoch));
    const ManifestFile* meta_entry =
        listed.Find(CurrentMetaName(manifest->epoch));
    if (xml_entry == nullptr || meta_entry == nullptr) {
      return Status::Corruption("MANIFEST lists no current version for " +
                                directory);
    }
    Result<std::string> xml = ReadVerified(directory, *xml_entry, env);
    if (!xml.ok() && xml.status().code() == StatusCode::kIOError) {
      return xml.status();
    }
    Result<std::string> meta = ReadVerified(directory, *meta_entry, env);
    if (!meta.ok() && meta.status().code() == StatusCode::kIOError) {
      return meta.status();
    }
    if (xml.ok() && meta.ok()) {
      current = ParseDocumentPair(*xml, *meta,
                                  directory + "/" + meta_entry->name);
    } else {
      current = xml.ok() ? meta.status() : xml.status();
    }
    if (!current.ok()) {
      // The live epoch is damaged. Quarantine what is provably bad and
      // fall back to the superseded epoch if its files survived (a
      // crash between commit and cleanup leaves exactly that state).
      report->clean = false;
      report->notes.push_back("current epoch " +
                              std::to_string(manifest->epoch) +
                              " unusable: " + current.status().ToString());
      if (!xml.ok()) QuarantineFile(directory, xml_entry->name, env, report);
      if (!meta.ok()) {
        QuarantineFile(directory, meta_entry->name, env, report);
      }
      if (manifest->prev_epoch > 0) {
        Result<XmlDocument> fallback =
            LoadCurrentUnverified(directory, manifest->prev_epoch, env);
        if (fallback.ok()) {
          report->used_fallback = true;
          report->notes.push_back("fell back to epoch " +
                                  std::to_string(manifest->prev_epoch));
          current = std::move(fallback);
          chain = manifest->prev_chain;
        }
      }
      if (!current.ok()) {
        return Status::Corruption("current version unrecoverable in " +
                                  directory + ": " +
                                  current.status().message() + " (" +
                                  report->ToString() + ")");
      }
    }
  } else {
    current = LoadCurrentUnverified(directory, manifest->epoch, env);
    if (!current.ok()) return current.status();
  }

  // --- delta chain ------------------------------------------------------
  // delta.<k>.bin files, verified against their MANIFEST entries (a
  // salvaged manifest has none, so its chain is read unverified).
  //
  // A chain read entirely from verified entries hands their MANIFEST
  // digests to the repository, so its next save need not encode them
  // again (WriteRepositoryData) — unless recovery drops deltas below,
  // which renumbers the chain.
  std::vector<Delta> deltas;
  std::vector<EncodedDigest> digests;
  bool digests_known = true;
  size_t last_bad = 0;  // 1-based index of the newest unusable delta.
  for (size_t i = 0; i < chain; ++i) {
    const std::string name = DeltaBinName(i);
    Result<std::string> text = Status::Corruption("unset");
    if (const ManifestFile* entry = listed.Find(name); entry != nullptr) {
      text = ReadVerified(directory, *entry, env);
      digests.push_back({entry->size, entry->crc});
    } else {
      digests_known = false;
      text = env->ReadFile(directory + "/" + name);
    }
    if (!text.ok() && text.status().code() == StatusCode::kIOError) {
      return text.status();
    }
    Result<Delta> delta =
        text.ok() ? DecodeDeltaBinary(*text) : Result<Delta>(text.status());
    if (!delta.ok()) {
      report->clean = false;
      report->notes.push_back(name + ": " + delta.status().ToString());
      last_bad = i + 1;
      deltas.clear();  // Everything older than a bad delta is unreachable.
      continue;
    }
    if (last_bad == 0 || i + 1 > last_bad) deltas.push_back(std::move(*delta));
  }
  if (last_bad > 0) {
    for (size_t i = 0; i < last_bad; ++i) {
      QuarantineDelta(directory, i, env, report);
    }
    report->dropped_deltas += last_bad;
  }

  // --- deep verification on any degradation -----------------------------
  // Replaying the surviving chain against the recovered current version
  // proves the pieces still fit together (checksums can only vouch for
  // files the MANIFEST knew; a fallback epoch has no such vouching).
  if (!report->clean || report->used_fallback) {
    const size_t drop =
        VerifyChainApplies(*current, deltas, report->dropped_deltas, report);
    if (drop > 0) {
      report->clean = false;
      const size_t already_dropped = report->dropped_deltas;
      for (size_t i = 0; i < drop; ++i) {
        QuarantineDelta(directory, already_dropped + i, env, report);
      }
      report->dropped_deltas += drop;
      deltas.erase(deltas.begin(),
                   deltas.begin() + static_cast<long>(drop));
    }
  }

  report->recovered_version_count = static_cast<int>(deltas.size()) + 1;
  VersionRepository repo = VersionRepository::FromParts(
      std::move(current.value()), std::move(deltas));
  if (digests_known && report->dropped_deltas == 0) {
    for (size_t i = 0; i < digests.size(); ++i) {
      repo.set_delta_digest(i, digests[i]);
    }
  }
  return repo;
}

}  // namespace xydiff
