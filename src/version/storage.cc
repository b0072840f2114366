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

/// The epoch of a `current.<E>.xml` name, or 0 for any other name.
int CurrentXmlEpoch(const std::string& name) {
  int epoch = 0;
  if (std::sscanf(name.c_str(), "current.%d.xml", &epoch) != 1 ||
      epoch <= 0 || name != CurrentXmlName(epoch)) {
    return 0;
  }
  return epoch;
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

/// The epoch in the names of the checkpoint pair a manifest lists (its
/// one `current.<E>.xml` entry), or 0 when it lists none. A save that
/// carries its checkpoint forward keeps the pair's names, so E can be
/// older than the manifest's own epoch.
int CheckpointEpoch(const Manifest& manifest) {
  // The pair follows the chain entries, so search from the back.
  for (auto it = manifest.files.rbegin(); it != manifest.files.rend(); ++it) {
    if (const int epoch = CurrentXmlEpoch(it->name); epoch > 0) return epoch;
  }
  return 0;
}

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

/// Checks the `crc <hex>` line that ends a self-checksummed file (the
/// MANIFEST, the batch journal): the last such line, whose value must be
/// the Crc64 of everything before it. Returns that line's offset, the
/// end of the body. Any deviation is Corruption naming `what`.
Result<size_t> VerifyChecksumLine(std::string_view text,
                                  const std::string& what) {
  const size_t crc_line = text.rfind("crc ");
  if (crc_line == std::string::npos ||
      (crc_line != 0 && text[crc_line - 1] != '\n')) {
    return Status::Corruption(what + " has no checksum line");
  }
  uint64_t stored_crc = 0;
  if (!ParseHex64(Trim(text.substr(crc_line + 4)), &stored_crc)) {
    return Status::Corruption(what + " checksum line is malformed");
  }
  if (Crc64(text.substr(0, crc_line)) != stored_crc) {
    return Status::Corruption(what + " failed its self-checksum");
  }
  return crc_line;
}

/// Strict parse with self-checksum verification: any deviation is
/// Corruption (the caller decides whether that means salvage or a fresh
/// epoch counter).
Result<Manifest> ParseManifest(std::string_view text) {
  Result<size_t> checked = VerifyChecksumLine(text, "MANIFEST");
  if (!checked.ok()) return checked.status();
  const size_t crc_line = *checked;

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

/// A current-version xml file, or InvalidArgument when ParseXml would not
/// read it back as `doc`: the file would hold fewer text nodes than the
/// XID map beside it, and loading it would fail.
Result<std::string> SerializeCurrentXml(const XmlDocument& doc) {
  SerializeOptions options;
  options.xml_declaration = true;
  options.doctype = true;
  const XmlNode* unreadable = nullptr;
  std::string xml = SerializeDocument(doc, options, &unreadable);
  if (unreadable != nullptr) {
    return Status::InvalidArgument(
        "current version does not survive a reparse: text node " +
        std::to_string(unreadable->xid()) + " under <" +
        std::string(unreadable->parent()->label()) +
        "> is empty, whitespace-only or next to another text node");
  }
  return xml;
}

std::string SerializeCurrentMeta(const XmlDocument& doc) {
  std::ostringstream meta;
  meta << "nextxid " << doc.next_xid() << "\n"
       << XidMapFromSubtree(*doc.root()).ToString() << "\n";
  return meta.str();
}

/// A checkpoint's meta: the document's XID bookkeeping plus a third line,
/// `chain <k>`, the chain position the checkpoint was taken at (it holds
/// version k + 1).
std::string SerializeCheckpointMeta(const XmlDocument& doc, size_t chain) {
  return SerializeCurrentMeta(doc) + "chain " + std::to_string(chain) + "\n";
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

/// The two files of one checkpoint, as read from disk.
struct CheckpointFiles {
  std::string xml;
  std::string meta;
  std::string meta_path;  ///< Names the pair in error messages.
};

/// Parses a checkpoint pair into the version it holds and sets
/// `*position` to the chain position its meta records. A meta without
/// the `chain` line was written when every save put its checkpoint at
/// the head, so that pair sits at `head`, the chain length of the
/// manifest that wrote it; `*positioned` (optional) says which case held.
Result<XmlDocument> ParseCheckpoint(const CheckpointFiles& files, size_t head,
                                    size_t* position,
                                    bool* positioned = nullptr) {
  const std::vector<std::string_view> lines = SplitLines(files.meta);
  *position = head;
  if (positioned != nullptr) *positioned = lines.size() > 2;
  if (lines.size() > 2) {
    uint64_t chain = 0;
    if (!StartsWith(lines[2], "chain ") ||
        !ParseUint64(Trim(lines[2].substr(6)), &chain)) {
      return Status::Corruption("bad chain line in meta file: " +
                                files.meta_path);
    }
    *position = static_cast<size_t>(chain);
  }
  return ParseDocumentPair(files.xml, files.meta, files.meta_path);
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

/// Reads the checkpoint pair of `epoch` without manifest checksums (the
/// previous-epoch fallback and MANIFEST salvage have none to check).
Result<CheckpointFiles> ReadCheckpointUnverified(const std::string& directory,
                                                 int epoch, Env* env) {
  CheckpointFiles files;
  files.meta_path = directory + "/" + CurrentMetaName(epoch);
  Result<std::string> xml =
      env->ReadFile(directory + "/" + CurrentXmlName(epoch));
  if (!xml.ok()) return xml.status();
  Result<std::string> meta = env->ReadFile(files.meta_path);
  if (!meta.ok()) return meta.status();
  files.xml = std::move(*xml);
  files.meta = std::move(*meta);
  return files;
}

/// Replays chain deltas [from, *reach) forward from `checkpoint` with
/// verifying pushes and returns the version reached. A delta that does
/// not apply ends the replay: `*reach` falls to its index, and, since a
/// failed push leaves the document half-modified, the checkpoint is
/// parsed again from `files` and replayed up to that index.
Result<XmlDocument> ReplayForward(XmlDocument checkpoint,
                                  const CheckpointFiles& files,
                                  const std::vector<std::optional<Delta>>& chain,
                                  size_t from, size_t* reach,
                                  RecoveryReport* report) {
  for (;;) {
    if (from == *reach) return checkpoint;
    DeltaPathApplicator forward(std::move(checkpoint), ApplyOptions{});
    size_t next = from;
    Status applied;
    for (; next < *reach; ++next) {
      applied = forward.Push(*chain[next]);
      if (!applied.ok()) break;
    }
    if (next == *reach) return std::move(forward).Finish();
    report->notes.push_back("chain delta " + std::to_string(next + 1) +
                            " does not apply forward from the checkpoint (" +
                            applied.ToString() + ")");
    *reach = next;
    size_t position = 0;
    Result<XmlDocument> again = ParseCheckpoint(files, from, &position);
    if (!again.ok()) return again.status();
    checkpoint = std::move(*again);
  }
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
  if (lost_versions > 0) out << ", lost " << lost_versions
                             << " newest version(s)";
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
  Result<std::string> xml = SerializeCurrentXml(doc);
  if (!xml.ok()) return xml.status();
  XYDIFF_RETURN_IF_ERROR(env->WriteFileAtomic(xml_path, *xml));
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

/// Writes a repository's *data* files (the delta chain and, when the old
/// checkpoint cannot be carried, a fresh one at the head) into
/// `directory` and returns the manifest describing them —
/// WITHOUT committing it. The live MANIFEST still names the old state
/// until the caller writes the returned manifest (SaveRepository) or
/// group-commits it through a batch journal (SaveRepositoryBatch).
/// Caller holds the directory's lock.
///
/// Chain deltas are encoded only when the repository holds no digest for
/// them or the old manifest disagrees with it. Once every file is
/// written, the digests and a fresh checkpoint are recorded in `repo`,
/// so a steady-state save encodes just the deltas committed since the
/// last one. A refused save (InvalidArgument: a checkpoint that would
/// not reload) writes no file.
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

  // A file is written unless the old manifest already lists the same
  // bytes under the same name — in the common append-only case every
  // prefix delta is skipped, so a commit writes one delta, the MANIFEST,
  // and, when it checkpoints, two current files.
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

  // Every file's bytes are settled before the first is written, so a
  // refused save leaves the directory as it found it.
  struct PendingFile {
    std::string name;
    std::string bytes;
  };
  std::vector<PendingFile> writes;

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
    std::string bytes = EncodeDeltaBinary(repo.deltas()[i]);
    ManifestFile entry{std::move(name), bytes.size(), Crc64(bytes)};
    if (!unchanged(entry)) writes.push_back({entry.name, std::move(bytes)});
    next.files.push_back(std::move(entry));
  }

  // The checkpoint. The old manifest's pair is carried forward unwritten
  // while it is this repository's own (it equals the checkpoint the
  // repository recorded), the head keeps its DOCTYPE, and the deltas
  // since it add up to no more bytes than its xml file: Load replays
  // them forward. Otherwise a fresh pair is written at the head under
  // epoch-fresh names, so the live files are never written over and a
  // crashed save cannot corrupt them.
  const XmlDocument& head = repo.current();
  const uint64_t doctype_crc = Crc64(SerializeDoctype(head));
  const int old_epoch = old != nullptr ? CheckpointEpoch(*old) : 0;
  bool carried = false;
  if (const std::optional<StoredCheckpoint>& own = repo.checkpoint();
      own.has_value() && old_epoch > 0 && own->chain <= next.chain &&
      own->doctype_crc == doctype_crc) {
    size_t since = 0;
    for (size_t i = own->chain; i < next.chain; ++i) {
      since += next.files[i].size;
    }
    ManifestFile xml{CurrentXmlName(old_epoch), own->xml.size, own->xml.crc};
    ManifestFile meta{CurrentMetaName(old_epoch), own->meta.size,
                      own->meta.crc};
    if (since <= xml.size && unchanged(xml) && unchanged(meta)) {
      next.files.push_back(std::move(xml));
      next.files.push_back(std::move(meta));
      carried = true;
    }
  }
  std::optional<StoredCheckpoint> written;
  if (!carried) {
    Result<std::string> xml_text = SerializeCurrentXml(head);
    if (!xml_text.ok()) return xml_text.status();
    std::string meta_text = SerializeCheckpointMeta(head, next.chain);
    written = StoredCheckpoint{next.chain,
                               {xml_text->size(), Crc64(*xml_text)},
                               {meta_text.size(), Crc64(meta_text)},
                               doctype_crc};
    next.files.push_back(
        {CurrentXmlName(next.epoch), written->xml.size, written->xml.crc});
    next.files.push_back(
        {CurrentMetaName(next.epoch), written->meta.size, written->meta.crc});
    writes.push_back({CurrentXmlName(next.epoch), std::move(*xml_text)});
    writes.push_back({CurrentMetaName(next.epoch), std::move(meta_text)});
    if (old_epoch > 0) {
      next.prev_epoch = old_epoch;
      next.prev_chain = old->chain;
    }
  }

  for (const PendingFile& file : writes) {
    XYDIFF_RETURN_IF_ERROR(
        env->WriteFileAtomic(directory + "/" + file.name, file.bytes));
  }
  for (size_t i = 0; i < next.chain; ++i) {
    repo.set_delta_digest(i, {next.files[i].size, next.files[i].crc});
  }
  if (written.has_value()) repo.set_checkpoint(*written);
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
  Result<size_t> checked = VerifyChecksumLine(text, "batch journal");
  if (!checked.ok()) return checked.status();
  const size_t crc_line = *checked;

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

  // --- checkpoint ---------------------------------------------------------
  // The pair the MANIFEST lists, verified; or the superseded pair when it
  // is damaged; or, under a corrupt MANIFEST, the newest pair that parses.
  // `position` is where it sits in the chain: the deltas before it are
  // history, the ones after it are replayed forward below.
  std::optional<Manifest> manifest = std::move(*read);
  CheckpointFiles files;
  Result<XmlDocument> checkpoint = Status::Corruption("unset");
  size_t position = 0;
  // Set for a verified pair whose meta says where it sits. A pair from
  // before checkpoints were carried says so only through the manifest
  // that lists it, so it is never carried into a later manifest.
  std::optional<StoredCheckpoint> record;
  if (!manifest.has_value()) {
    if (!manifest_corrupt) {
      return Status::NotFound("no repository in " + directory);
    }
    report->manifest_valid = false;
    report->clean = false;
    report->notes.push_back("MANIFEST failed verification");
    QuarantineFile(directory, kManifestName, env, report);
    // Salvage: a checksum-less manifest over the newest pair that parses
    // and whatever chain is on disk.
    Result<std::vector<std::string>> names = env->ListDir(directory);
    if (!names.ok()) return names.status();
    Manifest salvaged;
    while (env->FileExists(directory + "/" + DeltaBinName(salvaged.chain))) {
      ++salvaged.chain;
    }
    std::vector<int> epochs;
    for (const std::string& name : *names) {
      if (const int epoch = CurrentXmlEpoch(name); epoch > 0) {
        epochs.push_back(epoch);
      }
    }
    std::sort(epochs.rbegin(), epochs.rend());
    for (const int epoch : epochs) {
      Result<CheckpointFiles> pair =
          ReadCheckpointUnverified(directory, epoch, env);
      if (!pair.ok()) continue;
      checkpoint = ParseCheckpoint(*pair, salvaged.chain, &position);
      if (!checkpoint.ok()) continue;
      files = std::move(*pair);
      salvaged.epoch = epoch;
      break;
    }
    if (salvaged.epoch == 0) {
      return Status::Corruption(
          "MANIFEST corrupt and no loadable current version in " +
          directory);
    }
    report->notes.push_back("salvaged epoch " +
                            std::to_string(salvaged.epoch));
    manifest = std::move(salvaged);
  } else {
    const ManifestLookup listed(&*manifest);
    const int epoch = CheckpointEpoch(*manifest);
    const ManifestFile* xml_entry =
        epoch > 0 ? listed.Find(CurrentXmlName(epoch)) : nullptr;
    const ManifestFile* meta_entry =
        epoch > 0 ? listed.Find(CurrentMetaName(epoch)) : nullptr;
    if (xml_entry == nullptr || meta_entry == nullptr) {
      return Status::Corruption("MANIFEST lists no current version for " +
                                directory);
    }
    Result<std::string> xml = ReadVerified(directory, *xml_entry, env);
    if (!xml.ok() && xml.status().code() == StatusCode::kIOError) {
      return xml.status();
    }
    bool positioned = false;
    Result<std::string> meta = ReadVerified(directory, *meta_entry, env);
    if (!meta.ok() && meta.status().code() == StatusCode::kIOError) {
      return meta.status();
    }
    if (xml.ok() && meta.ok()) {
      files = {std::move(*xml), std::move(*meta),
               directory + "/" + meta_entry->name};
      checkpoint =
          ParseCheckpoint(files, manifest->chain, &position, &positioned);
    } else {
      checkpoint = xml.ok() ? meta.status() : xml.status();
    }
    if (checkpoint.ok()) {
      if (positioned) {
        record = StoredCheckpoint{position,
                                  {xml_entry->size, xml_entry->crc},
                                  {meta_entry->size, meta_entry->crc},
                                  Crc64(SerializeDoctype(*checkpoint))};
      }
    } else {
      // The live pair is damaged. Quarantine what is provably bad and
      // fall back to the superseded pair if its files survived (a crash
      // between commit and cleanup leaves exactly that state).
      report->clean = false;
      report->notes.push_back("checkpoint epoch " + std::to_string(epoch) +
                              " unusable: " + checkpoint.status().ToString());
      if (!xml.ok()) QuarantineFile(directory, xml_entry->name, env, report);
      if (!meta.ok()) {
        QuarantineFile(directory, meta_entry->name, env, report);
      }
      if (manifest->prev_epoch > 0 && manifest->prev_epoch != epoch) {
        Result<CheckpointFiles> pair =
            ReadCheckpointUnverified(directory, manifest->prev_epoch, env);
        Result<XmlDocument> fallback =
            pair.ok() ? ParseCheckpoint(*pair, manifest->prev_chain, &position)
                      : Result<XmlDocument>(pair.status());
        if (fallback.ok()) {
          report->used_fallback = true;
          report->notes.push_back("fell back to epoch " +
                                  std::to_string(manifest->prev_epoch));
          files = std::move(*pair);
          checkpoint = std::move(fallback);
        }
      }
      if (!checkpoint.ok()) {
        return Status::Corruption("current version unrecoverable in " +
                                  directory + ": " +
                                  checkpoint.status().message() + " (" +
                                  report->ToString() + ")");
      }
    }
  }
  const size_t chain = manifest->chain;
  if (position > chain) {
    return Status::Corruption("checkpoint at chain position " +
                              std::to_string(position) + " is past the " +
                              std::to_string(chain) + "-delta chain in " +
                              directory);
  }

  // --- delta chain ------------------------------------------------------
  // delta.<k>.bin files, verified against their MANIFEST entries (a
  // salvaged manifest has none, so its chain is read unverified).
  //
  // A chain read entirely from verified entries hands their MANIFEST
  // digests to the repository, so its next save need not encode them
  // again (WriteRepositoryData) — unless recovery drops deltas below,
  // which renumbers the chain.
  const ManifestLookup listed(&*manifest);  // Salvaged: no entries.
  std::vector<std::optional<Delta>> deltas(chain);
  std::vector<EncodedDigest> digests;
  bool digests_known = true;
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
    if (delta.ok()) {
      deltas[i] = std::move(*delta);
    } else {
      report->clean = false;
      report->notes.push_back(name + ": " + delta.status().ToString());
    }
  }

  // --- forward from the checkpoint to the newest reachable version -------
  // An unusable delta at or after the checkpoint makes every version
  // after it unreachable: those newest versions are lost, and their
  // deltas are quarantined.
  size_t reach = position;
  while (reach < chain && deltas[reach].has_value()) ++reach;
  Result<XmlDocument> current = ReplayForward(
      std::move(*checkpoint), files, deltas, position, &reach, report);
  if (!current.ok()) return current.status();
  if (reach < chain) {
    report->clean = false;
    report->lost_versions = chain - reach;
    for (size_t i = reach; i < chain; ++i) {
      QuarantineDelta(directory, i, env, report);
    }
  }

  // --- history before the checkpoint ------------------------------------
  // The newest unusable delta before the checkpoint severs everything
  // older than itself (reconstruction walks backward).
  size_t last_bad = 0;  // 1-based index of the newest unusable delta.
  for (size_t i = 0; i < position; ++i) {
    if (!deltas[i].has_value()) last_bad = i + 1;
  }
  for (size_t i = 0; i < last_bad; ++i) {
    QuarantineDelta(directory, i, env, report);
  }
  report->dropped_deltas += last_bad;
  std::vector<Delta> history;
  history.reserve(reach - last_bad);
  for (size_t i = last_bad; i < reach; ++i) {
    history.push_back(std::move(*deltas[i]));
  }

  // --- deep verification on any degradation -----------------------------
  // Replaying the surviving chain against the recovered current version
  // proves the pieces still fit together (checksums can only vouch for
  // files the MANIFEST knew; a fallback epoch has no such vouching).
  if (!report->clean || report->used_fallback) {
    const size_t drop = VerifyChainApplies(*current, history,
                                           report->dropped_deltas, report);
    if (drop > 0) {
      report->clean = false;
      const size_t already_dropped = report->dropped_deltas;
      for (size_t i = 0; i < drop; ++i) {
        QuarantineDelta(directory, already_dropped + i, env, report);
      }
      report->dropped_deltas += drop;
      history.erase(history.begin(),
                    history.begin() + static_cast<long>(drop));
    }
  }

  report->recovered_version_count = static_cast<int>(history.size()) + 1;
  VersionRepository repo = VersionRepository::FromParts(
      std::move(current.value()), std::move(history));
  if (digests_known && report->dropped_deltas == 0) {
    for (size_t i = 0; i < repo.deltas().size(); ++i) {
      repo.set_delta_digest(i, digests[i]);
    }
  }
  // Only a clean load hands its checkpoint on: after any recovery the
  // next save writes a fresh one at the head.
  if (report->clean && record.has_value()) repo.set_checkpoint(*record);
  return repo;
}

}  // namespace xydiff
