// Tests for the fuzzing subsystem itself (src/fuzz/): the grammar
// catalog's determinism contract, the oracle library on friendly and
// hostile inputs, the crash-interleaving trials, and campaign plumbing
// (repro, unknown-profile handling, summary accounting). The long
// adversarial sweep lives in the fuzz_smoke ctest entry driving
// tools/fuzz_driver; this file pins the machinery that sweep relies on.

#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "fuzz/fuzz.h"
#include "fuzz/grammar.h"
#include "fuzz/oracles.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "xml/serializer.h"

namespace xydiff {
namespace {

namespace fs = std::filesystem;

class FuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xydiff_fuzz_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Dir() const { return dir_.string(); }

  fs::path dir_;
};

std::string VersionBytes(const FuzzTrial& trial) {
  SerializeOptions with_xids;
  with_xids.emit_xids = true;
  std::string out;
  for (const auto* doc : {&trial.v1, &trial.v2, &trial.v3}) {
    if (doc->has_value()) out += SerializeDocument(**doc, with_xids);
  }
  return out;
}

// The deterministic contract every repro line depends on: the same
// (profile, seed, size) triple yields byte-identical inputs AND a
// byte-identical version chain (XIDs included), for every grammar.
TEST_F(FuzzTest, EveryProfileGeneratesDeterministically) {
  for (const FuzzProfile& profile : FuzzProfiles()) {
    const FuzzTrial a = GenerateTrial(profile, 7, 768);
    const FuzzTrial b = GenerateTrial(profile, 7, 768);
    EXPECT_EQ(a.document_xml, b.document_xml) << profile.name;
    EXPECT_EQ(a.rejection, b.rejection) << profile.name;
    EXPECT_EQ(VersionBytes(a), VersionBytes(b)) << profile.name;

    // A different seed must actually change the input (grammars that
    // ignore their seed fuzz nothing).
    const FuzzTrial c = GenerateTrial(profile, 8, 768);
    EXPECT_NE(a.document_xml, c.document_xml) << profile.name;
  }
}

TEST_F(FuzzTest, CatalogCoversTheAdversarialGrammars) {
  const std::vector<FuzzProfile>& catalog = FuzzProfiles();
  EXPECT_GE(catalog.size(), 5u);
  for (const char* name :
       {"paper-default", "deep-nesting", "wide-fanout",
        "near-duplicate-siblings", "move-storm", "hostile-entity",
        "byte-mutation"}) {
    EXPECT_NE(FindFuzzProfile(name), nullptr) << name;
  }
  EXPECT_EQ(FindFuzzProfile("no-such-grammar"), nullptr);
}

TEST_F(FuzzTest, OraclesPassOnFriendlyTrials) {
  const FuzzProfile* profile = FindFuzzProfile("paper-default");
  ASSERT_NE(profile, nullptr);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const FuzzTrial trial = GenerateTrial(*profile, seed, 1024);
    ASSERT_TRUE(trial.has_versions()) << trial.ReproLine();
    const OracleReport report = CheckTrialOracles(trial);
    EXPECT_TRUE(report.ok())
        << trial.ReproLine() << ": " << report.ToString();
    EXPECT_GT(report.checks, 0u);
  }
}

// With a scratch directory, the configuration oracle also takes the
// 4-thread DiffBatch warehouse through Save and Load, and reopens the
// store its group commits wrote, with no Save. Each store is its
// document directories: one per URL, and no document list.
TEST_F(FuzzTest, ConfigurationOracleRoundTripsThroughAStore) {
  const FuzzProfile* profile = FindFuzzProfile("paper-default");
  ASSERT_NE(profile, nullptr);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const FuzzTrial trial = GenerateTrial(*profile, seed, 1024);
    ASSERT_TRUE(trial.has_versions()) << trial.ReproLine();
    const std::string scratch = Dir() + "/config-" + std::to_string(seed);
    const OracleReport report = CheckTrialOracles(trial, {}, scratch);
    EXPECT_TRUE(report.ok())
        << trial.ReproLine() << ": " << report.ToString();
    for (const std::string& store : {scratch, scratch + "/group"}) {
      std::set<std::string> documents;
      for (const fs::directory_entry& entry : fs::directory_iterator(store)) {
        EXPECT_TRUE(entry.is_directory()) << entry.path();
        documents.insert(entry.path().filename().string());
      }
      documents.erase("group");  // The group-commit store, inside Save's.
      EXPECT_EQ(documents,
                (std::set<std::string>{"doc0", "doc1", "doc2", "doc3"}))
          << store;
      EXPECT_FALSE(fs::exists(store + "/manifest.tsv")) << store;
    }
  }
}

// The raw-byte grammars' first oracle is the hardened parser: every
// hostile input must either parse into a judged version chain or be
// rejected with a clean ParseError — and the grammar must actually
// produce some rejected inputs, or it is not adversarial.
TEST_F(FuzzTest, HostileInputsParseOrRejectCleanly) {
  for (const char* name : {"hostile-entity", "byte-mutation"}) {
    const FuzzProfile* profile = FindFuzzProfile(name);
    ASSERT_NE(profile, nullptr) << name;
    size_t rejected = 0;
    for (uint64_t seed = 1; seed <= 24; ++seed) {
      const FuzzTrial trial = GenerateTrial(*profile, seed, 1024);
      if (!trial.has_versions()) ++rejected;
      const OracleReport report = CheckTrialOracles(trial);
      EXPECT_TRUE(report.ok())
          << trial.ReproLine() << ": " << report.ToString();
    }
    EXPECT_GT(rejected, 0u) << name;
  }
}

TEST_F(FuzzTest, CrashBatchSaveTrialsFindNoHybridStates) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const std::string trial_dir = Dir() + "/save-" + std::to_string(seed);
    fs::create_directories(trial_dir);
    XY_EXPECT_OK(RunCrashBatchSaveTrial(seed, trial_dir));
  }
}

TEST_F(FuzzTest, CrashDiffBatchTrialsFindNoHybridStates) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const std::string trial_dir = Dir() + "/diff-" + std::to_string(seed);
    fs::create_directories(trial_dir);
    XY_EXPECT_OK(RunCrashDiffBatchTrial(seed, trial_dir));
  }
}

TEST_F(FuzzTest, ReproduceTrialReplaysFromTheReproTriple) {
  const OracleReport known_good = ReproduceTrial("paper-default", 3, 1024);
  EXPECT_TRUE(known_good.ok()) << known_good.ToString();
  EXPECT_GT(known_good.checks, 0u);

  const OracleReport unknown = ReproduceTrial("no-such-grammar", 1, 64);
  EXPECT_FALSE(unknown.ok());
}

TEST_F(FuzzTest, SmallCampaignAccountsForEveryTrial) {
  FuzzOptions options;
  options.profiles = {"paper-default", "move-storm"};
  options.trials_per_profile = 3;
  options.size = 512;
  options.crash_interleaving = false;
  const FuzzSummary summary = RunFuzz(options);
  EXPECT_TRUE(summary.ok()) << summary.ToString();
  EXPECT_EQ(summary.trials, 6u);
  EXPECT_EQ(summary.accepted + summary.rejected, 6u);
  EXPECT_GT(summary.oracle_checks, 0u);
  EXPECT_EQ(summary.profiles_run.size(), 2u);
}

TEST_F(FuzzTest, UnknownProfileIsAConfigFailureNotACrash) {
  FuzzOptions options;
  options.profiles = {"no-such-grammar"};
  options.crash_interleaving = false;
  const FuzzSummary summary = RunFuzz(options);
  ASSERT_EQ(summary.failures.size(), 1u);
  EXPECT_EQ(summary.failures[0].kind, "config");
}

// Campaign failures must persist a corpus entry that replays: simulate
// by pointing a tiny campaign at a corpus directory and checking that a
// clean run leaves it empty (entries appear only for real findings).
TEST_F(FuzzTest, CleanCampaignWritesNoCorpusEntries) {
  FuzzOptions options;
  options.profiles = {"paper-default"};
  options.trials_per_profile = 2;
  options.size = 512;
  options.crash_interleaving = false;
  options.corpus_directory = Dir() + "/corpus";
  const FuzzSummary summary = RunFuzz(options);
  EXPECT_TRUE(summary.ok()) << summary.ToString();
  EXPECT_FALSE(fs::exists(options.corpus_directory) &&
               !fs::is_empty(options.corpus_directory));
}

}  // namespace
}  // namespace xydiff
