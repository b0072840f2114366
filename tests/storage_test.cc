#include "version/storage.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "delta/codec.h"
#include "gtest/gtest.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "tests/test_util.h"
#include "util/hash.h"
#include "util/random.h"
#include "version/warehouse.h"
#include "xml/serializer.h"
#include "xml/xid_map_tree.h"

namespace xydiff {
namespace {

namespace fs = std::filesystem;

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xydiff_storage_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Dir() const { return dir_.string(); }

  fs::path dir_;
};

TEST_F(StorageTest, DocumentWithXidsRoundTrip) {
  XmlDocument doc = MustParse("<r><a>text</a><b k=\"v\"/></r>");
  doc.AssignInitialXids();
  doc.AllocateXid();  // Advance the allocator past the tree.
  fs::create_directories(dir_);
  const std::string xml = Dir() + "/doc.xml";
  const std::string meta = Dir() + "/doc.meta";
  XY_ASSERT_OK(SaveDocumentWithXids(doc, xml, meta));

  Result<XmlDocument> loaded = LoadDocumentWithXids(xml, meta);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(DocsEqualWithXids(doc, *loaded));
  EXPECT_EQ(loaded->next_xid(), doc.next_xid());
}

TEST_F(StorageTest, DocumentWithNonContiguousXids) {
  // After a few diffs, XIDs have holes; the XID-map must cover that.
  XmlDocument doc = MustParse("<r><a>t</a></r>");
  doc.root()->set_xid(50);
  doc.root()->child(0)->set_xid(7);
  doc.root()->child(0)->child(0)->set_xid(23);
  doc.set_next_xid(51);
  fs::create_directories(dir_);
  XY_ASSERT_OK(
      SaveDocumentWithXids(doc, Dir() + "/d.xml", Dir() + "/d.meta"));
  Result<XmlDocument> loaded =
      LoadDocumentWithXids(Dir() + "/d.xml", Dir() + "/d.meta");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(DocsEqualWithXids(doc, *loaded));
}

TEST_F(StorageTest, IdAttributeDeclarationsSurvive) {
  XmlDocument doc = MustParse(
      "<!DOCTYPE r [<!ATTLIST p id ID #IMPLIED>]><r><p id=\"x\"/></r>");
  doc.AssignInitialXids();
  fs::create_directories(dir_);
  XY_ASSERT_OK(
      SaveDocumentWithXids(doc, Dir() + "/d.xml", Dir() + "/d.meta"));
  Result<XmlDocument> loaded =
      LoadDocumentWithXids(Dir() + "/d.xml", Dir() + "/d.meta");
  ASSERT_TRUE(loaded.ok());
  ASSERT_NE(loaded->dtd().IdAttributeFor("p"), nullptr);
}

TEST_F(StorageTest, RepositoryRoundTrip) {
  Rng rng(5);
  DocGenOptions gen;
  gen.target_bytes = 2048;
  VersionRepository repo(GenerateDocument(&rng, gen));
  for (int v = 0; v < 4; ++v) {
    Result<SimulatedChange> change =
        SimulateChanges(repo.current(), ChangeSimOptions{}, &rng);
    ASSERT_TRUE(change.ok());
    ASSERT_TRUE(repo.Commit(std::move(change->new_version)).ok());
  }

  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  Result<VersionRepository> loaded = LoadRepository(Dir());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->version_count(), repo.version_count());
  EXPECT_TRUE(DocsEqualWithXids(loaded->current(), repo.current()));
  // Every historical version reconstructs identically.
  for (int v = 1; v <= repo.version_count(); ++v) {
    Result<XmlDocument> original = repo.Checkout(v);
    Result<XmlDocument> reloaded = loaded->Checkout(v);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(reloaded.ok()) << "version " << v << ": "
                               << reloaded.status().ToString();
    EXPECT_TRUE(DocsEqualWithXids(*original, *reloaded)) << "version " << v;
  }
}

TEST_F(StorageTest, SaveTruncatesStaleChain) {
  Rng rng(6);
  DocGenOptions gen;
  gen.target_bytes = 1024;
  VersionRepository long_repo(GenerateDocument(&rng, gen));
  for (int v = 0; v < 3; ++v) {
    Result<SimulatedChange> change =
        SimulateChanges(long_repo.current(), ChangeSimOptions{}, &rng);
    ASSERT_TRUE(change.ok());
    ASSERT_TRUE(long_repo.Commit(std::move(change->new_version)).ok());
  }
  XY_ASSERT_OK(SaveRepository(long_repo, Dir()));

  // Overwrite with a single-version repository; stale deltas must go.
  VersionRepository short_repo(GenerateDocument(&rng, gen));
  XY_ASSERT_OK(SaveRepository(short_repo, Dir()));
  Result<VersionRepository> loaded = LoadRepository(Dir());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->version_count(), 1);
}

TEST_F(StorageTest, LoadMissingDirectoryFails) {
  Result<VersionRepository> loaded = LoadRepository(Dir() + "/nonexistent");
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(StorageTest, CorruptMetaRejected) {
  fs::create_directories(dir_);
  XmlDocument doc = MustParse("<r/>");
  doc.AssignInitialXids();
  XY_ASSERT_OK(
      SaveDocumentWithXids(doc, Dir() + "/d.xml", Dir() + "/d.meta"));
  // Clobber the meta file.
  {
    std::ofstream bad(Dir() + "/d.meta", std::ios::trunc);
    bad << "garbage\n";
  }
  Result<XmlDocument> loaded =
      LoadDocumentWithXids(Dir() + "/d.xml", Dir() + "/d.meta");
  EXPECT_FALSE(loaded.ok());
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The names of the checkpoint pair a repository's MANIFEST lists.
struct ListedPair {
  std::string xml, meta;

  bool operator==(const ListedPair&) const = default;
};

ListedPair LivePair(const std::string& dir) {
  std::istringstream manifest(ReadBytes(dir + "/MANIFEST"));
  ListedPair pair;
  std::string line;
  while (std::getline(manifest, line)) {
    std::istringstream fields(line);
    std::string keyword, name;
    if (!(fields >> keyword >> name) || keyword != "file" ||
        name.rfind("current.", 0) != 0) {
      continue;
    }
    if (name.ends_with(".xml")) {
      pair.xml = name;
    } else {
      pair.meta = name;
    }
  }
  EXPECT_FALSE(pair.xml.empty()) << dir;
  EXPECT_FALSE(pair.meta.empty()) << dir;
  return pair;
}

/// The chain position a checkpoint meta records on its `chain` line.
size_t MetaChain(const std::string& meta_path) {
  std::istringstream meta(ReadBytes(meta_path));
  std::string line;
  for (int i = 0; i < 3; ++i) std::getline(meta, line);
  EXPECT_EQ(line.rfind("chain ", 0), 0u) << meta_path;
  return line.size() > 6 ? std::stoul(line.substr(6)) : 0;
}

// --- recovery from out-of-band damage ---------------------------------
// These tests vandalize stored files directly (not through an Env):
// bit rot and truncation by other processes is exactly the damage the
// MANIFEST checksums exist to catch.

VersionRepository MakeRepo(uint64_t seed, int extra_versions) {
  Rng rng(seed);
  DocGenOptions gen;
  gen.target_bytes = 1024;
  VersionRepository repo(GenerateDocument(&rng, gen));
  for (int v = 0; v < extra_versions; ++v) {
    Result<SimulatedChange> change =
        SimulateChanges(repo.current(), ChangeSimOptions{}, &rng);
    EXPECT_TRUE(change.ok());
    EXPECT_TRUE(repo.Commit(std::move(change->new_version)).ok());
  }
  return repo;
}

void FlipByte(const std::string& path) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x40;  // Same size, different CRC.
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST_F(StorageTest, BitFlippedDeltaQuarantinesUnreachableChain) {
  VersionRepository repo = MakeRepo(7, 4);  // 5 versions, 4 deltas.
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  // delta.000002.bin transforms version 2 -> 3; corrupting it makes
  // versions 1 and 2 unreachable (reconstruction walks backward).
  FlipByte(Dir() + "/delta.000002.bin");

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(report.clean);
  EXPECT_TRUE(report.manifest_valid);
  EXPECT_EQ(report.dropped_deltas, 2u);
  EXPECT_EQ(report.recovered_version_count, 3);
  ASSERT_EQ(report.quarantined.size(), 2u) << report.ToString();
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "delta.000001.bin"));
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "delta.000002.bin"));

  // The surviving suffix reloads byte-identically (XIDs included):
  // loaded version k is original version k + 2.
  EXPECT_EQ(loaded->version_count(), 3);
  for (int v = 1; v <= 3; ++v) {
    Result<XmlDocument> original = repo.Checkout(v + 2);
    Result<XmlDocument> recovered = loaded->Checkout(v);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(DocsEqualWithXids(*original, *recovered)) << "version " << v;
  }

  // A reload of the healed store sees the quarantined deltas as simply
  // missing from the manifest-listed set and reports them again — the
  // store is degraded but stable, never a hybrid.
  Result<VersionRepository> again = LoadRepository(Dir());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(DocsEqualWithXids(again->current(), repo.current()));
}

TEST_F(StorageTest, TruncatedDeltaQuarantinesUnreachableChain) {
  VersionRepository repo = MakeRepo(8, 3);  // 4 versions, 3 deltas.
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  {
    // Keep a syntactically broken prefix, as a torn write would.
    std::ofstream out(Dir() + "/delta.000001.bin",
                      std::ios::binary | std::ios::trunc);
    out << "XYDB";
  }

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.dropped_deltas, 1u);
  EXPECT_EQ(loaded->version_count(), 3);
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "delta.000001.bin"));
  EXPECT_TRUE(DocsEqualWithXids(loaded->current(), repo.current()));
  for (int v = 1; v <= 3; ++v) {
    Result<XmlDocument> original = repo.Checkout(v + 1);
    Result<XmlDocument> recovered = loaded->Checkout(v);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(recovered.ok());
    EXPECT_TRUE(DocsEqualWithXids(*original, *recovered)) << "version " << v;
  }
}

TEST_F(StorageTest, BitFlippedCurrentMetaQuarantinedAndReported) {
  VersionRepository repo = MakeRepo(9, 2);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  FlipByte(Dir() + "/current.000001.meta");

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  // No surviving fallback epoch: the newest version is genuinely gone,
  // and the loader must say so rather than fabricate one.
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(report.clean);
  EXPECT_TRUE(report.manifest_valid);
  ASSERT_EQ(report.quarantined.size(), 1u) << report.ToString();
  EXPECT_EQ(report.quarantined[0], "current.000001.meta");
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "current.000001.meta"));
  EXPECT_FALSE(report.notes.empty());
}

TEST_F(StorageTest, TruncatedCurrentXmlQuarantinedAndReported) {
  VersionRepository repo = MakeRepo(10, 1);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  XY_ASSERT_OK(SaveRepository(repo, Dir()));  // Second epoch, same chain.
  // The second save carried the first one's checkpoint: whatever its
  // epoch, the live pair is the only one on disk.
  const std::string live_xml = LivePair(Dir()).xml;
  {
    std::ofstream out(Dir() + "/" + live_xml,
                      std::ios::binary | std::ios::trunc);
    out << "<r";
  }

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  // No superseded pair survives the second commit, so there is no
  // fallback; the report still pins down what was lost.
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  ASSERT_EQ(report.quarantined.size(), 1u) << report.ToString();
  EXPECT_EQ(report.quarantined[0], live_xml);
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / live_xml));
}

TEST_F(StorageTest, CorruptManifestSalvagesNewestEpoch) {
  VersionRepository repo = MakeRepo(11, 2);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  FlipByte(Dir() + "/MANIFEST");

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(report.manifest_valid);
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(loaded->version_count(), repo.version_count());
  EXPECT_TRUE(DocsEqualWithXids(loaded->current(), repo.current()));
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "MANIFEST"));
}

TEST_F(StorageTest, CleanLoadReportsClean) {
  VersionRepository repo = MakeRepo(12, 2);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(report.clean);
  EXPECT_TRUE(report.manifest_valid);
  EXPECT_FALSE(report.used_fallback);
  EXPECT_EQ(report.dropped_deltas, 0u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(report.recovered_version_count, repo.version_count());
}

void ExpectAllVersionsEqual(const VersionRepository& expected,
                            const VersionRepository& actual) {
  ASSERT_EQ(actual.version_count(), expected.version_count());
  for (int v = 1; v <= expected.version_count(); ++v) {
    Result<XmlDocument> want = expected.Checkout(v);
    Result<XmlDocument> got = actual.Checkout(v);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok()) << "version " << v << ": "
                          << got.status().ToString();
    EXPECT_TRUE(DocsEqualWithXids(*want, *got)) << "version " << v;
  }
}

// --- encoding digests of chain deltas -----------------------------------
// A save encodes a chain delta only when the repository holds no digest
// for it or the old MANIFEST disagrees with that digest. Each case below
// is a way a stale or wrong digest could make a save skip a file it must
// write; in each, the next save has to rewrite what differs, and a reload
// has to match every version.

/// The digest a save would record for chain delta `index`.
EncodedDigest DigestOf(const VersionRepository& repo, size_t index) {
  const std::string bytes = EncodeDeltaBinary(repo.deltas()[index]);
  return EncodedDigest{bytes.size(), Crc64(bytes)};
}

/// Commits one more simulated version.
void CommitOneMore(VersionRepository* repo, uint64_t seed) {
  Rng rng(seed);
  Result<SimulatedChange> change =
      SimulateChanges(repo->current(), ChangeSimOptions{}, &rng);
  ASSERT_TRUE(change.ok());
  ASSERT_TRUE(repo->Commit(std::move(change->new_version)).ok());
}

/// Reloads `dir` and requires a clean store holding exactly `expected`.
void ExpectReloadsAs(const std::string& dir,
                     const VersionRepository& expected) {
  RecoveryReport report;
  Result<VersionRepository> reloaded = LoadRepository(dir, nullptr, &report);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(report.clean) << report.ToString();
  ExpectAllVersionsEqual(expected, *reloaded);
}

TEST_F(StorageTest, SaveAndCleanLoadRecordEveryDeltaDigest) {
  VersionRepository repo = MakeRepo(41, 4);
  for (size_t i = 0; i < repo.deltas().size(); ++i) {
    EXPECT_FALSE(repo.delta_digest(i).has_value()) << i;
  }
  const size_t encoded_bytes = repo.stored_delta_bytes();
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  for (size_t i = 0; i < repo.deltas().size(); ++i) {
    ASSERT_TRUE(repo.delta_digest(i).has_value()) << i;
    EXPECT_EQ(*repo.delta_digest(i), DigestOf(repo, i)) << i;
  }
  EXPECT_EQ(repo.stored_delta_bytes(), encoded_bytes);

  Result<VersionRepository> loaded = LoadRepository(Dir());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (size_t i = 0; i < loaded->deltas().size(); ++i) {
    ASSERT_TRUE(loaded->delta_digest(i).has_value()) << i;
    EXPECT_EQ(*loaded->delta_digest(i), DigestOf(*loaded, i)) << i;
  }
  // A commit after the load adds one delta without a digest; the save
  // records it.
  CommitOneMore(&*loaded, 42);
  const size_t last = loaded->deltas().size() - 1;
  EXPECT_FALSE(loaded->delta_digest(last).has_value());
  XY_ASSERT_OK(SaveRepository(*loaded, Dir()));
  ASSERT_TRUE(loaded->delta_digest(last).has_value());
  EXPECT_EQ(*loaded->delta_digest(last), DigestOf(*loaded, last));
  ExpectReloadsAs(Dir(), *loaded);
}

TEST_F(StorageTest, DigestsAfterRenumberingRecoveryRewriteTheChain) {
  VersionRepository repo = MakeRepo(43, 5);  // 6 versions, 5 deltas.
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  // Rot in delta 2 drops deltas 1-2: loaded delta k is original delta
  // k + 2, while the MANIFEST still lists the original numbering.
  FlipByte(Dir() + "/delta.000002.bin");
  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(report.dropped_deltas, 2u);
  for (size_t i = 0; i < loaded->deltas().size(); ++i) {
    EXPECT_FALSE(loaded->delta_digest(i).has_value()) << i;
  }

  CommitOneMore(&*loaded, 44);
  XY_ASSERT_OK(SaveRepository(*loaded, Dir()));
  ExpectReloadsAs(Dir(), *loaded);
}

TEST_F(StorageTest, DigestMatchingAQuarantinedOrMissingFileRewritesIt) {
  VersionRepository repo = MakeRepo(45, 5);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  // A load of the damaged store quarantines deltas 1-2; the MANIFEST
  // still lists them with the bytes `repo` holds digests for.
  FlipByte(Dir() + "/delta.000002.bin");
  RecoveryReport report;
  ASSERT_TRUE(LoadRepository(Dir(), nullptr, &report).ok());
  ASSERT_EQ(report.quarantined.size(), 2u) << report.ToString();
  // And delta 4 goes missing outright.
  fs::remove(dir_ / "delta.000004.bin");

  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  for (const char* name :
       {"delta.000001.bin", "delta.000002.bin", "delta.000004.bin"}) {
    EXPECT_TRUE(fs::exists(dir_ / name)) << name;
  }
  ExpectReloadsAs(Dir(), repo);
}

TEST_F(StorageTest, DigestsOfAnotherRepositoryDoNotMatchAnExistingStore) {
  VersionRepository first = MakeRepo(46, 3);
  XY_ASSERT_OK(SaveRepository(first, Dir()));
  // Same chain length, different history, digests loaded from its own
  // store.
  const std::string other_dir = Dir() + "_other";
  VersionRepository second = MakeRepo(47, 3);
  XY_ASSERT_OK(SaveRepository(second, other_dir));
  Result<VersionRepository> other = LoadRepository(other_dir);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  fs::remove_all(other_dir);

  XY_ASSERT_OK(SaveRepository(*other, Dir()));
  ExpectReloadsAs(Dir(), second);
}

TEST_F(StorageTest, MetaTreeSizeMismatchRejected) {
  fs::create_directories(dir_);
  XmlDocument doc = MustParse("<r><a/></r>");
  doc.AssignInitialXids();
  XY_ASSERT_OK(
      SaveDocumentWithXids(doc, Dir() + "/d.xml", Dir() + "/d.meta"));
  // Replace the XML with a differently sized tree.
  {
    std::ofstream bad(Dir() + "/d.xml", std::ios::trunc);
    bad << "<r><a/><b/></r>";
  }
  Result<XmlDocument> loaded =
      LoadDocumentWithXids(Dir() + "/d.xml", Dir() + "/d.meta");
  EXPECT_FALSE(loaded.ok());
}

// --- one store, two writers ---------------------------------------------

/// The `file` entries of a repository's MANIFEST as name -> "size crc",
/// except that current.<epoch>.* entries are keyed by their suffix alone
/// ("current.xml", "current.meta"): their epoch numbers count the saves
/// that wrote the store.
std::map<std::string, std::string> ManifestEntries(const std::string& dir) {
  std::ifstream in(dir + "/MANIFEST", std::ios::binary);
  EXPECT_TRUE(in) << dir;
  std::map<std::string, std::string> entries;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string keyword, name, size, crc;
    if (!(fields >> keyword >> name >> size >> crc) || keyword != "file") {
      continue;
    }
    if (name.rfind("current.", 0) == 0) {
      name = "current" + name.substr(name.rfind('.'));
    }
    entries[name] = size + " " + crc;
  }
  return entries;
}

/// The chain entries of ManifestEntries.
std::map<std::string, std::string> DeltaEntries(
    std::map<std::string, std::string> entries) {
  std::erase_if(entries, [](const auto& entry) {
    return entry.first.rfind("delta.", 0) != 0;
  });
  return entries;
}

TEST_F(StorageTest, GroupCommitsAndAFreshSaveWriteTheSameManifestEntries) {
  // One warehouse's store written twice: commit by commit through
  // DiffBatch group commits, and at once by Warehouse::Save into a fresh
  // directory. Both must list the same delta files (name, size, CRC) and
  // load as the same repository. Their checkpoints may differ: the fresh
  // save writes one at the head, while group commits carry theirs forward
  // until the deltas since outgrow it, and every carried pair is a fresh
  // serialization of the version it was taken at.
  const std::vector<std::string> urls = {"doc0", "doc1", "doc2"};
  const std::string incremental = Dir() + "/incremental";
  const std::string fresh = Dir() + "/fresh";
  Rng rng(61);
  DocGenOptions gen;
  gen.target_bytes = 1024;
  const auto next_version = [&rng](const XmlDocument& current) {
    Result<SimulatedChange> change =
        SimulateChanges(current, ChangeSimOptions{}, &rng);
    EXPECT_TRUE(change.ok());
    return change.ok() ? std::move(change->new_version) : current.Clone();
  };

  // Seed: two versions of each document.
  {
    Warehouse seed;
    for (const std::string& url : urls) {
      XmlDocument v1 = GenerateDocument(&rng, gen);
      v1.AssignInitialXids();
      XmlDocument v2 = next_version(v1);
      ASSERT_TRUE(seed.Ingest(url, std::move(v1)).ok());
      ASSERT_TRUE(seed.Ingest(url, std::move(v2)).ok());
    }
    XY_ASSERT_OK(seed.Save(incremental));
  }
  Result<std::unique_ptr<Warehouse>> warehouse = Warehouse::Load(incremental);
  ASSERT_TRUE(warehouse.ok()) << warehouse.status().ToString();

  Warehouse::PipelineOptions pipeline;
  pipeline.threads = 2;
  pipeline.save_directory = incremental;
  for (int round = 0; round < 6; ++round) {
    std::vector<Warehouse::DiffJob> jobs;
    for (const std::string& url : urls) {
      Result<XmlDocument> current =
          (*warehouse)->Checkout(url, (*warehouse)->version_count(url));
      ASSERT_TRUE(current.ok()) << current.status().ToString();
      jobs.push_back({url, SerializeDocument(next_version(*current))});
    }
    for (const auto& r : (*warehouse)->DiffBatch(std::move(jobs), pipeline)) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_FALSE(r->store_degraded) << r->url;
    }
  }
  XY_ASSERT_OK((*warehouse)->Save(fresh));

  size_t carried = 0;
  for (const std::string& url : urls) {
    const std::map<std::string, std::string> committed =
        ManifestEntries(incremental + "/" + url);
    EXPECT_EQ(DeltaEntries(committed),
              DeltaEntries(ManifestEntries(fresh + "/" + url)))
        << url;
    // 8 versions: 7 deltas and the current pair.
    EXPECT_EQ(committed.size(), 9u) << url;
    EXPECT_EQ(committed.count("delta.000007.bin"), 1u) << url;
    EXPECT_EQ(committed.count("current.xml"), 1u) << url;

    Result<VersionRepository> from_commits =
        LoadRepository(incremental + "/" + url);
    Result<VersionRepository> from_save = LoadRepository(fresh + "/" + url);
    ASSERT_TRUE(from_commits.ok()) << from_commits.status().ToString();
    ASSERT_TRUE(from_save.ok()) << from_save.status().ToString();
    ExpectAllVersionsEqual(*from_save, *from_commits);
    EXPECT_EQ(from_commits->current().next_xid(),
              from_save->current().next_xid())
        << url;

    const std::string dir = incremental + "/" + url;
    const ListedPair pair = LivePair(dir);
    const size_t chain = MetaChain(dir + "/" + pair.meta);
    if (chain < 7) ++carried;
    Result<XmlDocument> version =
        from_commits->Checkout(static_cast<int>(chain) + 1);
    ASSERT_TRUE(version.ok()) << version.status().ToString();
    SerializeOptions options;
    options.xml_declaration = true;
    options.doctype = true;
    EXPECT_EQ(ReadBytes(dir + "/" + pair.xml),
              SerializeDocument(*version, options))
        << url;
    std::istringstream meta(ReadBytes(dir + "/" + pair.meta));
    std::string nextxid, xid_map;
    std::getline(meta, nextxid);
    std::getline(meta, xid_map);
    EXPECT_EQ(xid_map, XidMapFromSubtree(*version->root()).ToString()) << url;
  }
  EXPECT_GT(carried, 0u);
}

// --- checkpoints carried forward ---------------------------------------
// A save writes the current xml/meta pair only as a checkpoint: it carries
// the old MANIFEST's pair forward while that pair is the repository's own
// and the deltas since it add up to no more bytes than its xml file, and
// LoadRepository replays those deltas forward from it.

/// Changes small enough that several deltas fit in one checkpoint.
ChangeSimOptions SmallChanges() {
  ChangeSimOptions options;
  options.delete_probability = 0.01;
  options.update_probability = 0.03;
  options.insert_probability = 0.01;
  return options;
}

/// Commits a small change, parsed from its text as a crawl would see it
/// (the simulator can leave adjacent text nodes, which no parse makes).
void CommitSmall(VersionRepository* repo, Rng* rng) {
  Result<SimulatedChange> change =
      SimulateChanges(repo->current(), SmallChanges(), rng);
  ASSERT_TRUE(change.ok());
  ASSERT_TRUE(
      repo->Commit(MustParse(SerializeDocument(change->new_version))).ok());
}

/// Saves a `base`-version repository into `dir`, then commits and saves
/// `carried` small versions, each of which must carry the checkpoint the
/// first save wrote at chain position `base` - 1.
VersionRepository MakeCarriedStore(const std::string& dir, uint64_t seed,
                                   int base, int carried) {
  Rng rng(seed);
  DocGenOptions gen;
  gen.target_bytes = 4096;
  VersionRepository repo(GenerateDocument(&rng, gen));
  for (int v = 1; v < base; ++v) CommitSmall(&repo, &rng);
  EXPECT_TRUE(SaveRepository(repo, dir).ok());
  const ListedPair checkpoint = LivePair(dir);
  for (int v = 0; v < carried; ++v) {
    CommitSmall(&repo, &rng);
    EXPECT_TRUE(SaveRepository(repo, dir).ok());
    EXPECT_EQ(LivePair(dir), checkpoint) << "commit " << v + 1;
  }
  EXPECT_EQ(MetaChain(dir + "/" + checkpoint.meta),
            static_cast<size_t>(base - 1));
  return repo;
}

// The simulator can leave two text nodes side by side (it deletes the
// element between them), a shape no parse produces: the checkpoint text
// would read back two nodes short of its XID map. A save that must write
// a checkpoint of such a version refuses, and the store keeps the last
// state it wrote.
TEST_F(StorageTest, ACheckpointThatWouldNotReloadIsNeverWritten) {
  Rng rng(1);
  DocGenOptions gen;
  gen.target_bytes = 4096;
  VersionRepository repo(GenerateDocument(&rng, gen));
  const std::string store = Dir() + "/doc";
  XY_ASSERT_OK(SaveRepository(repo, store));
  XmlDocument saved = repo.current().Clone();
  int saved_version = 1;
  Status refused;
  Result<std::vector<std::string>> before = Env::Default()->ListDir(store);
  for (int v = 0; v < 40 && refused.ok(); ++v) {
    Result<SimulatedChange> change =
        SimulateChanges(repo.current(), SmallChanges(), &rng);
    ASSERT_TRUE(change.ok());
    ASSERT_TRUE(repo.Commit(std::move(change->new_version)).ok());
    before = Env::Default()->ListDir(store);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    refused = SaveRepository(repo, store);
    if (refused.ok()) {
      saved = repo.current().Clone();
      saved_version = repo.current_version();
    }
  }
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << refused.ToString();
  // The refused save wrote nothing, not even the new delta.
  Result<std::vector<std::string>> after = Env::Default()->ListDir(store);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, *before);
  Result<VersionRepository> loaded = LoadRepository(store);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->current_version(), saved_version);
  EXPECT_TRUE(DocsEqualWithXids(loaded->current(), saved));
  // A fresh store has no checkpoint to carry, so it refuses too.
  const std::string fresh = Dir() + "/fresh";
  EXPECT_EQ(SaveRepository(repo, fresh).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(!fs::exists(fresh) || fs::is_empty(fresh));
}

TEST_F(StorageTest, GroupCommitsCarryOneCheckpointUntilTheDeltasOutgrowIt) {
  Rng rng(71);
  DocGenOptions gen;
  gen.target_bytes = 4096;
  VersionRepository repo(GenerateDocument(&rng, gen));
  const std::string store = Dir() + "/doc";
  const std::vector<RepositorySaveSlot> slot = {{&repo, "doc"}};
  XY_ASSERT_OK(SaveRepositoryBatch(slot, Dir()));
  ListedPair pair = LivePair(store);
  size_t pair_bytes = fs::file_size(store + "/" + pair.xml);
  size_t since = 0;
  int carried = 0, checkpoints = 0;
  for (int commit = 0; commit < 40; ++commit) {
    CommitSmall(&repo, &rng);
    XY_ASSERT_OK(SaveRepositoryBatch(slot, Dir()));
    since += DigestOf(repo, repo.deltas().size() - 1).size;
    const ListedPair now = LivePair(store);
    if (since <= pair_bytes) {
      EXPECT_EQ(now, pair) << "commit " << commit;
      ++carried;
      continue;
    }
    // Past the pair's size: a fresh pair at the head.
    EXPECT_NE(now.xml, pair.xml) << "commit " << commit;
    EXPECT_EQ(MetaChain(store + "/" + now.meta), repo.deltas().size());
    EXPECT_EQ(ReadBytes(store + "/" + now.xml),
              SerializeDocument(repo.current(), {.xml_declaration = true,
                                                 .doctype = true}));
    pair = now;
    pair_bytes = fs::file_size(store + "/" + pair.xml);
    since = 0;
    ++checkpoints;
  }
  EXPECT_GE(checkpoints, 1);
  EXPECT_GT(carried, 3 * checkpoints);
  // The superseded pairs are gone: one pair is on disk.
  size_t pairs = 0;
  for (const auto& entry : fs::directory_iterator(store)) {
    if (entry.path().extension() == ".xml") ++pairs;
  }
  EXPECT_EQ(pairs, 1u);
  ExpectReloadsAs(store, repo);
}

TEST_F(StorageTest, CarriedStoreLoadsEqualAtEveryVersion) {
  VersionRepository repo = MakeCarriedStore(Dir(), 72, 3, 4);
  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(report.clean) << report.ToString();
  ExpectAllVersionsEqual(repo, *loaded);
  EXPECT_EQ(loaded->current().next_xid(), repo.current().next_xid());
  // The load records the checkpoint it read, so the loaded repository's
  // next commit carries it too.
  ASSERT_TRUE(loaded->checkpoint().has_value());
  EXPECT_EQ(loaded->checkpoint(), repo.checkpoint());
  const ListedPair pair = LivePair(Dir());
  Rng rng(73);
  CommitSmall(&*loaded, &rng);
  XY_ASSERT_OK(SaveRepository(*loaded, Dir()));
  EXPECT_EQ(LivePair(Dir()), pair);
  ExpectReloadsAs(Dir(), *loaded);
}

/// Rewrites `name` in a saved store and re-signs its MANIFEST entry, as
/// an older build that wrote those bytes would have listed them.
void RewriteListedFile(const std::string& dir, const std::string& name,
                       const std::string& bytes) {
  {
    std::ofstream out(dir + "/" + name, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  std::istringstream manifest(ReadBytes(dir + "/MANIFEST"));
  std::string body, line;
  while (std::getline(manifest, line)) {
    if (line.rfind("crc ", 0) == 0) continue;
    if (line.rfind("file " + name + " ", 0) == 0) {
      char crc[17];
      std::snprintf(crc, sizeof(crc), "%016llx",
                    static_cast<unsigned long long>(Crc64(bytes)));
      line = "file " + name + " " + std::to_string(bytes.size()) + " " + crc;
    }
    body += line + "\n";
  }
  char crc[17];
  std::snprintf(crc, sizeof(crc), "%016llx",
                static_cast<unsigned long long>(Crc64(body)));
  std::ofstream out(dir + "/MANIFEST", std::ios::binary | std::ios::trunc);
  out << body << "crc " << crc << "\n";
}

TEST_F(StorageTest, StoreWithoutMetaChainLinesLoadsAndThenCheckpoints) {
  // Stores written before checkpoints were carried have a two-line meta:
  // their pair sits at the head of the MANIFEST that lists it.
  VersionRepository repo = MakeRepo(74, 3);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  const ListedPair legacy = LivePair(Dir());
  std::string meta = ReadBytes(Dir() + "/" + legacy.meta);
  meta.erase(meta.find("chain "));
  RewriteListedFile(Dir(), legacy.meta, meta);

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(report.clean) << report.ToString();
  ExpectAllVersionsEqual(repo, *loaded);
  // Such a pair cannot say where it sits once the head moves on, so it is
  // never carried: the next commit writes a checkpoint with a chain line,
  // and the one after carries that.
  EXPECT_FALSE(loaded->checkpoint().has_value());
  Rng rng(75);
  CommitSmall(&*loaded, &rng);
  XY_ASSERT_OK(SaveRepository(*loaded, Dir()));
  const ListedPair fresh = LivePair(Dir());
  EXPECT_NE(fresh, legacy);
  EXPECT_EQ(MetaChain(Dir() + "/" + fresh.meta), loaded->deltas().size());
  CommitSmall(&*loaded, &rng);
  XY_ASSERT_OK(SaveRepository(*loaded, Dir()));
  EXPECT_EQ(LivePair(Dir()), fresh);
  ExpectReloadsAs(Dir(), *loaded);
}

/// Requires `actual` to hold exactly versions 1..actual.version_count()
/// of `expected`.
void ExpectPrefixOf(const VersionRepository& expected,
                    const VersionRepository& actual) {
  for (int v = 1; v <= actual.version_count(); ++v) {
    Result<XmlDocument> want = expected.Checkout(v);
    Result<XmlDocument> got = actual.Checkout(v);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(DocsEqualWithXids(*want, *got)) << "version " << v;
  }
}

TEST_F(StorageTest, BitFlipAfterTheCheckpointLosesTheNewestVersions) {
  // Checkpoint at version 3 (chain position 2), head at version 7.
  VersionRepository repo = MakeCarriedStore(Dir(), 76, 3, 4);
  // delta.000004.bin turns version 4 into 5: versions 5-7 are out of
  // reach, so the newest version that loads is 4.
  FlipByte(Dir() + "/delta.000004.bin");

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.lost_versions, 3u) << report.ToString();
  EXPECT_EQ(report.dropped_deltas, 0u);
  EXPECT_EQ(report.recovered_version_count, 4);
  EXPECT_EQ(loaded->version_count(), 4);
  ExpectPrefixOf(repo, *loaded);
  for (const char* name :
       {"delta.000004.bin", "delta.000005.bin", "delta.000006.bin"}) {
    EXPECT_TRUE(fs::exists(dir_ / "quarantine" / name)) << name;
  }
  EXPECT_NE(report.ToString().find("lost 3 newest version(s)"),
            std::string::npos);

  // A reload reaches the same version, never a hybrid of the two.
  RecoveryReport again_report;
  Result<VersionRepository> again =
      LoadRepository(Dir(), nullptr, &again_report);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again_report.lost_versions, 3u);
  ExpectAllVersionsEqual(*loaded, *again);

  // The recovered repository saves a fresh checkpoint and reloads clean.
  XY_ASSERT_OK(SaveRepository(*loaded, Dir()));
  ExpectReloadsAs(Dir(), *loaded);
}

TEST_F(StorageTest, BitFlipBeforeTheCheckpointDropsOlderHistory) {
  // Checkpoint at version 4 (chain position 3), head at version 6.
  VersionRepository repo = MakeCarriedStore(Dir(), 77, 4, 2);
  FlipByte(Dir() + "/delta.000002.bin");

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.dropped_deltas, 2u) << report.ToString();
  EXPECT_EQ(report.lost_versions, 0u);
  EXPECT_EQ(loaded->version_count(), 4);
  EXPECT_TRUE(DocsEqualWithXids(loaded->current(), repo.current()));
  for (int v = 1; v <= 4; ++v) {
    Result<XmlDocument> original = repo.Checkout(v + 2);
    Result<XmlDocument> recovered = loaded->Checkout(v);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(DocsEqualWithXids(*original, *recovered)) << "version " << v;
  }
}

TEST_F(StorageTest, CorruptManifestSalvagesACarriedCheckpoint) {
  VersionRepository repo = MakeCarriedStore(Dir(), 78, 2, 3);
  FlipByte(Dir() + "/MANIFEST");

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(report.manifest_valid);
  EXPECT_FALSE(report.clean);
  ExpectAllVersionsEqual(repo, *loaded);
  EXPECT_FALSE(loaded->checkpoint().has_value());
}

TEST_F(StorageTest, ACheckpointIsNeverCarriedIntoAnotherRepository) {
  // Two repositories whose deltas are the same bytes (one text update of
  // the same XID) but whose versions differ elsewhere.
  const auto make = [](const char* v1, const char* v2) {
    VersionRepository repo(MustParse(v1));
    EXPECT_TRUE(repo.Commit(MustParse(v2)).ok());
    return repo;
  };
  VersionRepository first =
      make("<r><a>x</a><b>one</b></r>", "<r><a>y</a><b>one</b></r>");
  VersionRepository second =
      make("<r><a>x</a><b>two</b></r>", "<r><a>y</a><b>two</b></r>");
  ASSERT_EQ(DigestOf(first, 0), DigestOf(second, 0));

  // `second` records a checkpoint of its own at the same chain position.
  const std::string other_dir = Dir() + "_other";
  XY_ASSERT_OK(SaveRepository(second, other_dir));
  fs::remove_all(other_dir);
  ASSERT_TRUE(second.checkpoint().has_value());

  XY_ASSERT_OK(SaveRepository(first, Dir()));
  const ListedPair firsts = LivePair(Dir());
  XY_ASSERT_OK(SaveRepository(second, Dir()));
  EXPECT_NE(LivePair(Dir()), firsts);
  ExpectReloadsAs(Dir(), second);

  // And a repository that recorded no checkpoint at all writes its own.
  VersionRepository third =
      make("<r><a>x</a><b>one</b></r>", "<r><a>y</a><b>one</b></r>");
  ASSERT_FALSE(third.checkpoint().has_value());
  XY_ASSERT_OK(SaveRepository(first, Dir()));
  const ListedPair again = LivePair(Dir());
  XY_ASSERT_OK(SaveRepository(third, Dir()));
  EXPECT_NE(LivePair(Dir()), again);
  ExpectReloadsAs(Dir(), third);
}

TEST_F(StorageTest, ADoctypeChangeWritesAFreshCheckpoint) {
  // Deltas carry no DTD, so a forward replay keeps the checkpoint's: a
  // head whose DOCTYPE differs must be checkpointed, or a reload would
  // bring back ID-attribute declarations the newest version dropped.
  VersionRepository repo(MustParse(
      "<!DOCTYPE r [<!ATTLIST p id ID #IMPLIED>]><r><p id=\"a\">x</p></r>"));
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  const ListedPair declared = LivePair(Dir());
  ASSERT_TRUE(repo.Commit(MustParse("<r><p id=\"a\">y</p></r>")).ok());
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  EXPECT_NE(LivePair(Dir()), declared);
  Result<VersionRepository> loaded = LoadRepository(Dir());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->current().dtd().IdAttributeFor("p"), nullptr);
  ExpectAllVersionsEqual(repo, *loaded);
}

}  // namespace
}  // namespace xydiff
