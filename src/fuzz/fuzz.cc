#include "fuzz/fuzz.h"

#include <chrono>
#include <optional>
#include <utility>

#include "util/context.h"

#include "fuzz/grammar.h"
#include "fuzz/shrink.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "util/fault_env.h"
#include "util/random.h"
#include "version/storage.h"
#include "version/warehouse.h"
#include "xml/serializer.h"

namespace xydiff {

namespace {

constexpr size_t kCrashSlots = 3;

/// Byte-exact identity of a repository: every version serialized with
/// XIDs. Epoch counters and file layout are free to differ between two
/// stores with equal signatures — consumers cannot tell them apart.
Result<std::vector<std::string>> RepoSignature(const VersionRepository& repo) {
  std::vector<std::string> out;
  SerializeOptions options;
  options.emit_xids = true;
  for (int v = 1; v <= repo.version_count(); ++v) {
    Result<XmlDocument> doc = repo.Checkout(v);
    if (!doc.ok()) return doc.status();
    out.push_back(SerializeDocument(*doc, options));
  }
  return out;
}

/// Small deterministic repository for the crash trials (512-byte
/// documents keep a single probe fast enough to sweep many seeds).
VersionRepository MakeCrashRepo(uint64_t seed, int extra_versions) {
  Rng rng(seed);
  DocGenOptions gen;
  gen.target_bytes = 512;
  VersionRepository repo(GenerateDocument(&rng, gen));
  for (int v = 0; v < extra_versions; ++v) {
    Result<SimulatedChange> change =
        SimulateChanges(repo.current(), ChangeSimOptions{}, &rng);
    if (!change.ok()) break;
    Result<int> committed = repo.Commit(std::move(change->new_version));
    if (!committed.ok()) break;
  }
  return repo;
}

/// Arms one seed-chosen fault at an operation index inside (or just
/// past) the protocol under test: a hard crash, a torn write, or a
/// cancellation that fires mid-protocol. For the cancel plan the
/// returned Context must be threaded into the protocol (the op itself
/// proceeds; the victim notices at its next check-point) — the other
/// plans return nullopt.
std::optional<Context> ArmFault(Rng* rng, FaultInjectionEnv* env,
                                int op_range) {
  const int op = static_cast<int>(rng->NextBelow(op_range));
  switch (rng->NextBelow(3)) {
    case 0:
      env->CrashAt(op);
      return std::nullopt;
    case 1:
      env->TearWriteAt(op, rng->NextBelow(600));
      return std::nullopt;
    default: {
      CancellationSource source;
      env->CancelAt(op, source);
      return source.MakeContext();
    }
  }
}

/// Persists a failing trial's exact input bytes and repro line.
void PersistFailure(Env* env, const FuzzOptions& options,
                    const FuzzTrial& trial, FuzzFailure* failure) {
  if (options.corpus_directory.empty()) return;
  const std::string stem = options.corpus_directory + "/" + trial.profile +
                           "-" + std::to_string(trial.seed);
  Status s = env->CreateDirs(options.corpus_directory);
  if (s.ok()) s = env->WriteFileAtomic(stem + ".xml", trial.document_xml);
  if (s.ok()) {
    s = env->WriteFileAtomic(stem + ".repro",
                             failure->repro + "\n" + failure->detail + "\n");
  }
  if (s.ok()) {
    failure->detail += " [corpus: " + stem + ".xml]";
  } else {
    failure->detail += " (corpus write failed: " + s.ToString() + ")";
  }
}

}  // namespace

std::string FuzzSummary::ToString() const {
  std::string out =
      "fuzz: " + std::to_string(trials) + " trial(s) across " +
      std::to_string(profiles_run.size()) + " profile(s), " +
      std::to_string(oracle_checks) + " oracle check(s), " +
      std::to_string(accepted) + " accepted / " + std::to_string(rejected) +
      " rejected input(s), " + std::to_string(crash_trials) +
      " crash trial(s)";
  if (time_exhausted) out += " [time budget exhausted]";
  out += "\n";
  if (failures.empty()) {
    out += "no divergences, no hybrid states\n";
  }
  for (const FuzzFailure& failure : failures) {
    out += "FAIL [" + failure.kind + "] " +
           (failure.repro.empty() ? failure.profile : failure.repro) +
           "\n  " + failure.detail + "\n";
  }
  return out;
}

OracleReport ReproduceTrial(std::string_view profile_name, uint64_t seed,
                            size_t size, const OracleOptions& oracles,
                            const std::string& scratch_directory) {
  const FuzzProfile* profile = FindFuzzProfile(profile_name);
  if (profile == nullptr) {
    OracleReport report;
    report.failures.push_back(
        {"config", "unknown profile '" + std::string(profile_name) + "'"});
    return report;
  }
  return CheckTrialOracles(GenerateTrial(*profile, seed, size), oracles,
                           scratch_directory);
}

Status RunCrashBatchSaveTrial(uint64_t seed, const std::string& directory,
                              Env* base_env) {
  // Build the 3-slot pre/post corpus: `after` replays `before`'s
  // deterministic construction, then commits one more change.
  std::vector<VersionRepository> before, after;
  std::vector<std::vector<std::string>> sig_before, sig_after;
  for (size_t i = 0; i < kCrashSlots; ++i) {
    const uint64_t slot_seed = seed * 1000003 + i;
    before.push_back(MakeCrashRepo(slot_seed, 1));
    VersionRepository post = MakeCrashRepo(slot_seed, 1);
    Rng change_rng(slot_seed + 77);
    Result<SimulatedChange> change =
        SimulateChanges(post.current(), ChangeSimOptions{}, &change_rng);
    if (change.ok()) {
      Result<int> committed = post.Commit(std::move(change->new_version));
      if (!committed.ok()) return committed.status();
    }
    after.push_back(std::move(post));
    Result<std::vector<std::string>> sb = RepoSignature(before.back());
    Result<std::vector<std::string>> sa = RepoSignature(after.back());
    if (!sb.ok()) return sb.status();
    if (!sa.ok()) return sa.status();
    sig_before.push_back(std::move(*sb));
    sig_after.push_back(std::move(*sa));
  }

  FaultInjectionEnv env(base_env);
  // A stale journal from an interrupted earlier run would skew the
  // probe; recovery clears it (no journal present is a no-op).
  if (Status s = RecoverRepositoryBatch(directory, &env); !s.ok()) return s;
  std::vector<RepositorySaveSlot> slots;
  for (size_t i = 0; i < kCrashSlots; ++i) {
    slots.push_back({&before[i], "slot" + std::to_string(i)});
  }
  if (Status s = SaveRepositoryBatch(slots, directory, &env); !s.ok()) {
    return s;
  }
  env.Reset();  // Disk state stands; forget counters and durable images.

  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const std::optional<Context> cancel_context = ArmFault(&rng, &env, 192);
  slots.clear();
  for (size_t i = 0; i < kCrashSlots; ++i) {
    slots.push_back({&after[i], "slot" + std::to_string(i)});
  }
  const Status saved =
      SaveRepositoryBatch(slots, directory, &env,
                          cancel_context ? &*cancel_context : nullptr);
  if (Status s = env.DropUnsyncedData(); !s.ok()) return s;
  if (Status s = RecoverRepositoryBatch(directory, base_env); !s.ok()) {
    return s;
  }

  size_t pre = 0, post = 0;
  for (size_t i = 0; i < kCrashSlots; ++i) {
    RecoveryReport report;
    Result<VersionRepository> reopened = LoadRepository(
        directory + "/slot" + std::to_string(i), base_env, &report);
    if (!reopened.ok()) {
      return Status::Corruption("slot " + std::to_string(i) +
                                " failed to reopen after the crash: " +
                                reopened.status().ToString());
    }
    Result<std::vector<std::string>> sig = RepoSignature(*reopened);
    if (!sig.ok()) return sig.status();
    if (*sig == sig_before[i]) {
      ++pre;
    } else if (*sig == sig_after[i]) {
      ++post;
    } else {
      return Status::Corruption("slot " + std::to_string(i) +
                                " reopened as neither pre- nor post-batch "
                                "(hybrid state)");
    }
  }
  if (pre != kCrashSlots && post != kCrashSlots) {
    return Status::Corruption(
        "torn group commit: " + std::to_string(pre) + " slot(s) pre-batch, " +
        std::to_string(post) + " post-batch");
  }
  if (saved.ok() && post != kCrashSlots) {
    return Status::Corruption(
        "batched save reported success but slots reopened pre-batch");
  }
  return Status::OK();
}

Status RunCrashDiffBatchTrial(uint64_t seed, const std::string& directory,
                              Env* base_env) {
  // Three URLs, each with a three-version trajectory of raw crawler
  // input. Three rounds because the store stage skips first-sight slots
  // ("no delta to store for version 1"): round 1 seeds the warehouse
  // in-memory, round 2 is the first round that persists (the pre state),
  // and the fault lands in round 3 (the post state).
  std::vector<std::string> urls, v1_xml, v2_xml, v3_xml;
  for (size_t i = 0; i < kCrashSlots; ++i) {
    urls.push_back("doc" + std::to_string(i));
    Rng doc_rng(seed * 1000003 + 31 * i + 7);
    DocGenOptions gen;
    gen.target_bytes = 512;
    XmlDocument v1 = GenerateDocument(&doc_rng, gen);
    v1.AssignInitialXids();
    v1_xml.push_back(SerializeDocument(v1));
    Result<SimulatedChange> c2 =
        SimulateChanges(v1, ChangeSimOptions{}, &doc_rng);
    if (!c2.ok()) return c2.status();
    v2_xml.push_back(SerializeDocument(c2->new_version));
    Result<SimulatedChange> c3 =
        SimulateChanges(c2->new_version, ChangeSimOptions{}, &doc_rng);
    if (!c3.ok()) return c3.status();
    v3_xml.push_back(SerializeDocument(c3->new_version));
  }

  const auto make_pipeline = [](const std::string& dir, Env* env) {
    Warehouse::PipelineOptions pipeline;
    pipeline.threads = 1;  // Deterministic slot order and XIDs.
    pipeline.save_directory = dir;
    pipeline.env = env;
    pipeline.retry_backoff_ms = 1;
    return pipeline;
  };
  const auto jobs_for = [&urls](const std::vector<std::string>& xml) {
    std::vector<Warehouse::DiffJob> jobs;
    for (size_t i = 0; i < xml.size(); ++i) jobs.push_back({urls[i], xml[i]});
    return jobs;
  };
  const auto slot_signature =
      [&urls](const std::string& dir, size_t i,
              Env* env) -> Result<std::vector<std::string>> {
    Result<VersionRepository> repo = LoadRepository(dir + "/" + urls[i], env);
    if (!repo.ok()) return repo.status();
    return RepoSignature(*repo);
  };

  // The expected pre (round 1) and post (round 2) states come from a
  // fault-free twin run: DiffBatch is deterministic, XIDs
  // included, at threads = 1.
  const std::string expect_dir = directory + "/expect";
  const std::string live_dir = directory + "/live";
  std::vector<std::vector<std::string>> sig_pre, sig_post;
  {
    Warehouse expected;
    for (const std::vector<std::string>* round : {&v1_xml, &v2_xml}) {
      for (const auto& result : expected.DiffBatch(
               jobs_for(*round), make_pipeline(expect_dir, base_env))) {
        if (!result.ok()) return result.status();
      }
    }
    for (size_t i = 0; i < kCrashSlots; ++i) {
      Result<std::vector<std::string>> sig =
          slot_signature(expect_dir, i, base_env);
      if (!sig.ok()) return sig.status();
      sig_pre.push_back(std::move(*sig));
    }
    for (const auto& result : expected.DiffBatch(
             jobs_for(v3_xml), make_pipeline(expect_dir, base_env))) {
      if (!result.ok()) return result.status();
    }
    for (size_t i = 0; i < kCrashSlots; ++i) {
      Result<std::vector<std::string>> sig =
          slot_signature(expect_dir, i, base_env);
      if (!sig.ok()) return sig.status();
      sig_post.push_back(std::move(*sig));
    }
  }

  // The live run: two fault-free rounds, then a seed-chosen fault lands
  // somewhere in round 3's store stage.
  FaultInjectionEnv env(base_env);
  Warehouse live;
  for (const std::vector<std::string>* round : {&v1_xml, &v2_xml}) {
    for (const auto& result :
         live.DiffBatch(jobs_for(*round), make_pipeline(live_dir, &env))) {
      if (!result.ok()) return result.status();
    }
  }
  env.Reset();  // Disk state stands; forget counters and durable images.
  Rng rng(seed * 0x100000001b3ULL + 17);
  const std::optional<Context> cancel_context = ArmFault(&rng, &env, 256);
  // Per-slot statuses are irrelevant here — under an armed fault slots
  // legitimately degrade, fail, or report kCancelled; the contract under
  // test is the disk.
  Warehouse::PipelineOptions faulted = make_pipeline(live_dir, &env);
  if (cancel_context) faulted.context = &*cancel_context;
  live.DiffBatch(jobs_for(v3_xml), faulted);
  if (Status s = env.DropUnsyncedData(); !s.ok()) return s;
  if (Status s = RecoverRepositoryBatch(live_dir, base_env); !s.ok()) {
    return s;
  }

  for (size_t i = 0; i < kCrashSlots; ++i) {
    Result<std::vector<std::string>> sig =
        slot_signature(live_dir, i, base_env);
    if (!sig.ok()) {
      return Status::Corruption("slot " + urls[i] +
                                " failed to reopen after the crash: " +
                                sig.status().ToString());
    }
    if (*sig != sig_pre[i] && *sig != sig_post[i]) {
      return Status::Corruption("slot " + urls[i] +
                                " reopened as neither its round-1 nor its "
                                "round-2 state (hybrid state)");
    }
  }
  return Status::OK();
}

FuzzSummary RunFuzz(const FuzzOptions& options) {
  FuzzSummary summary;
  Env* env = options.env != nullptr ? options.env : Env::Default();
  const auto started = std::chrono::steady_clock::now();
  const auto out_of_time = [&]() {
    if (options.time_budget_ms <= 0) return false;
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started)
            .count();
    return elapsed >= options.time_budget_ms;
  };

  std::vector<const FuzzProfile*> profiles;
  if (options.profiles.empty()) {
    for (const FuzzProfile& profile : FuzzProfiles()) {
      profiles.push_back(&profile);
    }
  } else {
    for (const std::string& name : options.profiles) {
      const FuzzProfile* profile = FindFuzzProfile(name);
      if (profile == nullptr) {
        summary.failures.push_back(
            {"config", name, 0, 0, "unknown profile '" + name + "'", ""});
      } else {
        profiles.push_back(profile);
      }
    }
  }

  for (const FuzzProfile* profile : profiles) {
    summary.profiles_run.push_back(profile->name);
    for (size_t t = 0; t < options.trials_per_profile; ++t) {
      if (out_of_time()) {
        summary.time_exhausted = true;
        break;
      }
      const uint64_t seed = options.seed_start + t;
      FuzzTrial trial = GenerateTrial(*profile, seed, options.size);
      ++summary.trials;
      if (trial.v1.has_value()) {
        ++summary.accepted;
      } else {
        ++summary.rejected;
      }
      const std::string trial_scratch =
          options.scratch_directory.empty()
              ? std::string()
              : options.scratch_directory + "/config-" + profile->name +
                    "-" + std::to_string(seed);
      OracleReport report =
          CheckTrialOracles(trial, options.oracles, trial_scratch);
      summary.oracle_checks += report.checks;
      if (report.ok()) continue;

      FuzzFailure failure;
      failure.kind = "oracle";
      failure.profile = profile->name;
      failure.seed = seed;
      failure.size = options.size;
      failure.detail = report.ToString();
      failure.repro = trial.ReproLine();
      if (options.shrink) {
        // Minimize while the SAME oracle keeps failing; a candidate that
        // fails differently is a different bug, not a smaller repro.
        const std::string first_oracle = report.failures.front().oracle;
        ShrinkSpec spec;
        spec.size = options.size;
        spec.sim = profile->sim;
        spec = MinimizeFailure(spec, [&](const ShrinkSpec& candidate) {
          FuzzTrial retry =
              GenerateTrial(*profile, seed, candidate.size, candidate.sim);
          OracleReport judged =
              CheckTrialOracles(retry, options.oracles, trial_scratch);
          return !judged.ok() &&
                 judged.failures.front().oracle == first_oracle;
        });
        failure.repro += "  shrunk: " + spec.ToString();
      }
      PersistFailure(env, options, trial, &failure);
      summary.failures.push_back(std::move(failure));
    }
    if (summary.time_exhausted) break;
  }

  if (options.crash_interleaving && !options.scratch_directory.empty()) {
    struct CrashMode {
      const char* name;
      Status (*run)(uint64_t, const std::string&, Env*);
    };
    const CrashMode modes[] = {
        {"crash-batch-save", &RunCrashBatchSaveTrial},
        {"crash-diff-batch", &RunCrashDiffBatchTrial},
    };
    for (const CrashMode& mode : modes) {
      for (size_t t = 0; t < options.crash_trials; ++t) {
        if (out_of_time()) {
          summary.time_exhausted = true;
          break;
        }
        const uint64_t seed = options.seed_start + t;
        const std::string dir = options.scratch_directory + "/" + mode.name +
                                "-" + std::to_string(seed);
        ++summary.trials;
        ++summary.crash_trials;
        Status s = env->CreateDirs(dir);
        if (s.ok()) s = mode.run(seed, dir, options.env);
        if (!s.ok()) {
          summary.failures.push_back({mode.name, mode.name, seed, 0,
                                      s.ToString(),
                                      "seed=" + std::to_string(seed) +
                                          " mode=" + mode.name});
        }
      }
      if (summary.time_exhausted) break;
    }
  }
  return summary;
}

}  // namespace xydiff
