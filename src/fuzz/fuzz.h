#ifndef XYDIFF_FUZZ_FUZZ_H_
#define XYDIFF_FUZZ_FUZZ_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/oracles.h"
#include "util/env.h"
#include "util/status.h"

namespace xydiff {

/// One fuzzing campaign: which grammars, how many trials each, and
/// where failing inputs are persisted. Everything is deterministic in
/// `seed_start` — two runs with the same options visit byte-identical
/// trials in the same order.
struct FuzzOptions {
  /// Profile names to run; empty means the whole catalog.
  std::vector<std::string> profiles;
  size_t trials_per_profile = 30;
  /// Document byte target per trial.
  size_t size = 1024;
  /// Trial t of every profile uses seed `seed_start + t`.
  uint64_t seed_start = 1;

  /// Run the crash-interleaving modes (needs `scratch_directory`).
  bool crash_interleaving = true;
  /// Trials per crash mode (batched save, DiffBatch pipeline).
  size_t crash_trials = 12;
  /// Parent directory for crash-trial and configuration-oracle stores.
  /// Each trial writes under its own `<mode>-<seed>` (or
  /// `config-<profile>-<seed>`) subdirectory; the caller owns cleanup
  /// (Env has no recursive remove by design).
  std::string scratch_directory;

  /// When non-empty, every failing trial's input bytes and repro line
  /// are persisted here (created on demand).
  std::string corpus_directory;

  /// Env for corpus/scratch I/O and as the base the crash trials wrap
  /// with fault injection. nullptr = Env::Default().
  Env* env = nullptr;

  /// Soft wall-clock bound: no NEW trial starts after this many
  /// milliseconds (0 = unbounded). The summary says when a run was cut
  /// short. Trials themselves stay deterministic — the budget only
  /// decides how many of them run.
  int64_t time_budget_ms = 0;

  /// Minimize every failure with fuzz/shrink.h before reporting.
  bool shrink = true;

  OracleOptions oracles;
};

/// One finding. `repro` is everything needed to replay it:
/// the (seed, profile, size) triple, plus the shrunk spec when the
/// shrinker ran.
struct FuzzFailure {
  std::string kind;  ///< "oracle", "crash-batch-save", "crash-diff-batch",
                     ///< or "config".
  std::string profile;
  uint64_t seed = 0;
  size_t size = 0;
  std::string detail;
  std::string repro;
};

struct FuzzSummary {
  size_t trials = 0;         ///< Oracle + crash trials actually run.
  size_t oracle_checks = 0;  ///< Invariants evaluated across all trials.
  size_t accepted = 0;       ///< Trials whose input parsed into versions.
  size_t rejected = 0;       ///< Trials the parser (cleanly) rejected.
  size_t crash_trials = 0;
  bool time_exhausted = false;
  std::vector<std::string> profiles_run;
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
  /// Multi-line human-readable report (the fuzz_driver's output).
  std::string ToString() const;
};

/// Runs the campaign. Never throws; every divergence, hybrid state, or
/// setup problem is a FuzzFailure in the summary.
FuzzSummary RunFuzz(const FuzzOptions& options = {});

/// Replays one trial from its repro triple and re-judges it with the
/// oracles — the other half of the determinism contract.
OracleReport ReproduceTrial(std::string_view profile_name, uint64_t seed,
                            size_t size, const OracleOptions& oracles = {},
                            const std::string& scratch_directory = {});

/// One crash-interleaving trial against SaveRepositoryBatch: builds a
/// 3-slot corpus from `seed`, commits the pre state durably, then runs
/// the post save with a fuzzer-chosen fault (crash or torn write at a
/// seed-chosen operation index), "reboots" (drops un-synced data), runs
/// recovery, and reloads every slot. OK iff every slot reads back
/// bit-exactly pre- or post-batch with no torn group (and post when the
/// save reported success). `directory` must be private to this trial.
Status RunCrashBatchSaveTrial(uint64_t seed, const std::string& directory,
                              Env* base_env = nullptr);

/// Same contract driven through the full Warehouse::DiffBatch pipeline:
/// round 1 ingests three documents fault-free, a seed-chosen fault is
/// armed, round 2 ingests changed versions through DiffBatch's group
/// commit, then reboot + recovery. OK iff every
/// slot reloads as bit-exactly its round-1 or round-2 state — zero
/// hybrids. Expected round-2 bytes come from an identical fault-free
/// run in a sibling directory (the pipeline is deterministic).
Status RunCrashDiffBatchTrial(uint64_t seed, const std::string& directory,
                              Env* base_env = nullptr);

}  // namespace xydiff

#endif  // XYDIFF_FUZZ_FUZZ_H_
