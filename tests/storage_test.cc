#include "version/storage.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "delta/codec.h"
#include "delta/delta_xml.h"
#include "gtest/gtest.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "tests/test_util.h"
#include "util/hash.h"
#include "util/random.h"

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

// --- reconstruction index persistence ---------------------------------

/// A repository with an active index deep enough for two skip levels
/// (9 versions = 8 chain deltas: spans 2, 4, and 8 all complete).
VersionRepository MakeIndexedRepo(uint64_t seed, int extra_versions) {
  VersionRepository repo = MakeRepo(seed, 0);
  EXPECT_TRUE(repo.EnsureReconstructionIndex().ok());
  Rng rng(seed + 1000);
  for (int v = 0; v < extra_versions; ++v) {
    Result<SimulatedChange> change =
        SimulateChanges(repo.current(), ChangeSimOptions{}, &rng);
    EXPECT_TRUE(change.ok());
    EXPECT_TRUE(repo.Commit(std::move(change->new_version)).ok());
  }
  return repo;
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

TEST_F(StorageTest, PersistedIndexSurvivesReload) {
  VersionRepository repo = MakeIndexedRepo(20, 8);
  ASSERT_EQ(repo.reconstruction_index().levels.size(), 3u);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  EXPECT_TRUE(fs::exists(dir_ / "checkpoint.000001.xml"));
  EXPECT_TRUE(fs::exists(dir_ / "skip.000002.000000.bin"));

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(report.clean);
  ASSERT_TRUE(loaded->reconstruction_index().checkpoint.has_value());
  EXPECT_EQ(loaded->reconstruction_index().levels.size(), 3u);

  // The loaded index actually drives reconstruction forward.
  CheckoutStats stats;
  Result<XmlDocument> v1 = loaded->Checkout(1, &stats);
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(stats.forward);
  EXPECT_EQ(stats.applications, 0u);
  ExpectAllVersionsEqual(repo, *loaded);

  // A loaded repository keeps maintaining the index across commits and
  // re-saves: the common reopen-commit-save cycle stays O(log n).
  Rng rng(99);
  Result<SimulatedChange> change =
      SimulateChanges(loaded->current(), ChangeSimOptions{}, &rng);
  ASSERT_TRUE(change.ok());
  ASSERT_TRUE(loaded->Commit(std::move(change->new_version)).ok());
  XY_ASSERT_OK(SaveRepository(*loaded, Dir()));
  Result<VersionRepository> again = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(report.clean);
  ExpectAllVersionsEqual(*loaded, *again);
}

TEST_F(StorageTest, CorruptSkipFileDropsIndexKeepsChain) {
  VersionRepository repo = MakeIndexedRepo(21, 8);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  FlipByte(Dir() + "/skip.000001.000000.bin");

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The chain itself is intact — versions are NOT dropped; only the
  // derived index is discarded and the bad file quarantined.
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.dropped_deltas, 0u);
  EXPECT_EQ(loaded->version_count(), repo.version_count());
  EXPECT_FALSE(loaded->reconstruction_index().checkpoint.has_value());
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "skip.000001.000000.bin"));

  CheckoutStats stats;
  Result<XmlDocument> v1 = loaded->Checkout(1, &stats);
  ASSERT_TRUE(v1.ok());
  EXPECT_FALSE(stats.forward);  // Plain-chain fallback.
  ExpectAllVersionsEqual(repo, *loaded);

  // The degraded store re-saves and heals: the surviving in-memory
  // chain rebuilds its index on demand and persists it again.
  XY_ASSERT_OK(loaded->EnsureReconstructionIndex());
  XY_ASSERT_OK(SaveRepository(*loaded, Dir()));
  Result<VersionRepository> healed = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(report.clean);
  EXPECT_TRUE(healed->reconstruction_index().checkpoint.has_value());
  ExpectAllVersionsEqual(repo, *healed);
}

TEST_F(StorageTest, CorruptCheckpointDropsIndexKeepsChain) {
  VersionRepository repo = MakeIndexedRepo(22, 4);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  FlipByte(Dir() + "/checkpoint.000001.meta");

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.dropped_deltas, 0u);
  EXPECT_FALSE(loaded->reconstruction_index().checkpoint.has_value());
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "checkpoint.000001.meta"));
  ExpectAllVersionsEqual(repo, *loaded);
}

// --- legacy XML delta chains ------------------------------------------

std::string TestHex64(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Rewrites one `file NAME SIZE CRC` manifest entry (and the manifest's
/// self-checksum) so the store references `new_name` instead — the
/// on-disk state a pre-codec version of this library would have left.
void RewriteManifestEntry(const fs::path& dir, const std::string& old_name,
                          const std::string& new_name,
                          const std::string& new_content) {
  std::string manifest;
  {
    std::ifstream in(dir / "MANIFEST", std::ios::binary);
    ASSERT_TRUE(in);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    manifest = buffer.str();
  }
  std::string body = manifest.substr(0, manifest.rfind("crc "));
  const size_t entry = body.find("file " + old_name + " ");
  ASSERT_NE(entry, std::string::npos) << body;
  const size_t entry_end = body.find('\n', entry);
  body.replace(entry, entry_end - entry,
               "file " + new_name + " " + std::to_string(new_content.size()) +
                   " " + TestHex64(Crc64(new_content)));
  {
    std::ofstream out(dir / "MANIFEST", std::ios::binary | std::ios::trunc);
    out << body << "crc " << TestHex64(Crc64(body)) << "\n";
  }
}

TEST_F(StorageTest, LegacyXmlDeltaLoadsAndUpgradesOnSave) {
  VersionRepository repo = MakeRepo(23, 3);  // 4 versions, 3 deltas.
  XY_ASSERT_OK(SaveRepository(repo, Dir()));

  // Regress delta 2 to the legacy format: XML bytes on disk, manifest
  // entry rewritten, binary file gone — a mixed-format chain.
  Result<const Delta*> d2 = repo.DeltaFor(2);
  ASSERT_TRUE(d2.ok());
  const std::string xml = SerializeDelta(**d2);
  {
    std::ofstream out(dir_ / "delta.000002.xml",
                      std::ios::binary | std::ios::trunc);
    out << xml;
  }
  RewriteManifestEntry(dir_, "delta.000002.bin", "delta.000002.xml", xml);
  fs::remove(dir_ / "delta.000002.bin");

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(report.clean) << report.ToString();
  ExpectAllVersionsEqual(repo, *loaded);

  // The next save upgrades the whole chain to binary and the stale XML
  // file is cleaned up as unreferenced.
  XY_ASSERT_OK(SaveRepository(*loaded, Dir()));
  EXPECT_TRUE(fs::exists(dir_ / "delta.000002.bin"));
  EXPECT_FALSE(fs::exists(dir_ / "delta.000002.xml"));
  Result<VersionRepository> upgraded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(upgraded.ok());
  EXPECT_TRUE(report.clean);
  ExpectAllVersionsEqual(repo, *upgraded);
}

TEST_F(StorageTest, MixedFormatChainRecoversFromCorruption) {
  VersionRepository repo = MakeRepo(24, 4);  // 5 versions, 4 deltas.
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  // Delta 1 becomes legacy XML, then delta 3 rots: recovery must sever
  // versions 1-3 (dropping both formats' files) and keep 4-5.
  Result<const Delta*> d1 = repo.DeltaFor(1);
  ASSERT_TRUE(d1.ok());
  const std::string xml = SerializeDelta(**d1);
  {
    std::ofstream out(dir_ / "delta.000001.xml",
                      std::ios::binary | std::ios::trunc);
    out << xml;
  }
  RewriteManifestEntry(dir_, "delta.000001.bin", "delta.000001.xml", xml);
  fs::remove(dir_ / "delta.000001.bin");
  FlipByte(Dir() + "/delta.000003.bin");

  RecoveryReport report;
  Result<VersionRepository> loaded = LoadRepository(Dir(), nullptr, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.dropped_deltas, 3u);
  EXPECT_EQ(loaded->version_count(), 2);
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "delta.000001.xml"));
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "delta.000003.bin"));
  for (int v = 1; v <= 2; ++v) {
    Result<XmlDocument> original = repo.Checkout(v + 3);
    Result<XmlDocument> recovered = loaded->Checkout(v);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(recovered.ok());
    EXPECT_TRUE(DocsEqualWithXids(*original, *recovered)) << "version " << v;
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

TEST_F(StorageTest, LegacyXmlChainIsUpgradedByTheNextSave) {
  VersionRepository repo = MakeRepo(48, 3);
  XY_ASSERT_OK(SaveRepository(repo, Dir()));
  // Regress the whole chain to the legacy XML format.
  for (int v = 1; v <= 3; ++v) {
    Result<const Delta*> delta = repo.DeltaFor(v);
    ASSERT_TRUE(delta.ok());
    const std::string xml = SerializeDelta(**delta);
    char bin[32], legacy[32];
    std::snprintf(bin, sizeof(bin), "delta.%06d.bin", v);
    std::snprintf(legacy, sizeof(legacy), "delta.%06d.xml", v);
    {
      std::ofstream out(dir_ / legacy, std::ios::binary | std::ios::trunc);
      out << xml;
    }
    RewriteManifestEntry(dir_, bin, legacy, xml);
    fs::remove(dir_ / bin);
  }
  Result<VersionRepository> loaded = LoadRepository(Dir());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (size_t i = 0; i < loaded->deltas().size(); ++i) {
    EXPECT_FALSE(loaded->delta_digest(i).has_value()) << i;
  }

  XY_ASSERT_OK(SaveRepository(*loaded, Dir()));
  for (int v = 1; v <= 3; ++v) {
    char bin[32], legacy[32];
    std::snprintf(bin, sizeof(bin), "delta.%06d.bin", v);
    std::snprintf(legacy, sizeof(legacy), "delta.%06d.xml", v);
    EXPECT_TRUE(fs::exists(dir_ / bin)) << bin;
    EXPECT_FALSE(fs::exists(dir_ / legacy)) << legacy;
  }
  ExpectReloadsAs(Dir(), repo);
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

}  // namespace
}  // namespace xydiff
