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
  {
    std::ofstream out(Dir() + "/current.000002.xml",
                      std::ios::binary | std::ios::trunc);
    out << "<r";
  }

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  // The previous epoch's files were cleaned up after the second commit,
  // so there is no fallback; the report still pins down what was lost.
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  ASSERT_EQ(report.quarantined.size(), 1u) << report.ToString();
  EXPECT_EQ(report.quarantined[0], "current.000002.xml");
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "current.000002.xml"));
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

TEST_F(StorageTest, GroupCommitsAndAFreshSaveWriteTheSameManifestEntries) {
  // One warehouse's store written twice: commit by commit through
  // DiffBatch group commits, and at once by Warehouse::Save into a fresh
  // directory. Both must list the same delta files (name, size, CRC)
  // and current files of the same size and CRC.
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

  for (const std::string& url : urls) {
    const std::map<std::string, std::string> committed =
        ManifestEntries(incremental + "/" + url);
    EXPECT_EQ(committed, ManifestEntries(fresh + "/" + url)) << url;
    // 8 versions: 7 deltas and the current pair.
    EXPECT_EQ(committed.size(), 9u) << url;
    EXPECT_EQ(committed.count("delta.000007.bin"), 1u) << url;
    EXPECT_EQ(committed.count("current.xml"), 1u) << url;
  }
}

}  // namespace
}  // namespace xydiff
