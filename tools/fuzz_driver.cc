// fuzz_driver — command-line front end of the grammar-driven
// differential fuzzer (src/fuzz/). Generates adversarial documents,
// judges every trial with the oracle library (BULD vs the baselines,
// the delta-algebra laws, codec and checkout agreement), interleaves
// crashes into the batched store protocols, and exits non-zero on any
// divergence or hybrid state.
//
//   fuzz_driver [--profiles a,b,c] [--trials N] [--size BYTES]
//               [--seed-start S] [--scratch DIR] [--corpus DIR]
//               [--time-budget-ms MS] [--no-crash] [--no-shrink] [--list]
//   fuzz_driver [--scratch DIR] --repro PROFILE SEED SIZE
//
// Every failure is reported as a (seed, profile, size) triple that
// replays it exactly (--repro); the shrinker appends the minimized
// spec. Seeds are deterministic: there is no wall-clock or
// /dev/urandom anywhere in a trial, so two runs with the same flags
// are byte-identical. tools/run_fuzz.sh wraps this binary for longer
// campaigns and owns scratch-directory hygiene (Env has no recursive
// remove by design).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fuzz/fuzz.h"
#include "fuzz/grammar.h"
#include "fuzz/oracles.h"

namespace xydiff {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: fuzz_driver [--profiles a,b,c] [--trials N] [--size BYTES]\n"
      "                   [--seed-start S] [--scratch DIR] [--corpus DIR]\n"
      "                   [--time-budget-ms MS] [--no-crash] [--no-shrink]\n"
      "                   [--list]\n"
      "       fuzz_driver [--scratch DIR] --repro PROFILE SEED SIZE\n");
  return 2;
}

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) out.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int ListProfiles() {
  for (const FuzzProfile& profile : FuzzProfiles()) {
    std::printf("%-24s %s  (%s)\n", profile.name.c_str(),
                profile.kind == FuzzProfileKind::kTreePair ? "tree" : "raw ",
                profile.description.c_str());
  }
  return 0;
}

int Reproduce(const std::string& profile, uint64_t seed, size_t size,
              const std::string& scratch_directory) {
  const OracleReport report =
      ReproduceTrial(profile, seed, size, OracleOptions{}, scratch_directory);
  std::printf("repro seed=%llu profile=%s size=%zu: %s\n",
              static_cast<unsigned long long>(seed), profile.c_str(), size,
              report.ToString().c_str());
  return report.ok() ? 0 : 1;
}

int Run(int argc, char** argv) {
  FuzzOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list") return ListProfiles();
    if (arg == "--repro") {
      if (i + 3 >= argc) return Usage();
      const std::string profile = argv[i + 1];
      const uint64_t seed = std::strtoull(argv[i + 2], nullptr, 10);
      const size_t size = std::strtoull(argv[i + 3], nullptr, 10);
      return Reproduce(profile, seed, size, options.scratch_directory);
    }
    const char* value = nullptr;
    if (arg == "--profiles" && (value = next())) {
      options.profiles = SplitCommas(value);
    } else if (arg == "--trials" && (value = next())) {
      options.trials_per_profile = std::strtoull(value, nullptr, 10);
    } else if (arg == "--size" && (value = next())) {
      options.size = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seed-start" && (value = next())) {
      options.seed_start = std::strtoull(value, nullptr, 10);
    } else if (arg == "--scratch" && (value = next())) {
      options.scratch_directory = value;
    } else if (arg == "--corpus" && (value = next())) {
      options.corpus_directory = value;
    } else if (arg == "--time-budget-ms" && (value = next())) {
      options.time_budget_ms = std::strtoll(value, nullptr, 10);
    } else if (arg == "--crash-trials" && (value = next())) {
      options.crash_trials = std::strtoull(value, nullptr, 10);
    } else if (arg == "--no-crash") {
      options.crash_interleaving = false;
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n",
                   arg.c_str());
      return Usage();
    }
  }
  if (options.crash_interleaving && options.scratch_directory.empty()) {
    // Crash interleaving needs disk; default it off rather than fail so
    // `fuzz_driver` with no flags still runs the oracle campaign.
    options.crash_interleaving = false;
    std::fprintf(stderr,
                 "note: no --scratch directory, crash interleaving off\n");
  }

  const FuzzSummary summary = RunFuzz(options);
  std::fputs(summary.ToString().c_str(), stdout);
  return summary.ok() ? 0 : 1;
}

}  // namespace
}  // namespace xydiff

int main(int argc, char** argv) { return xydiff::Run(argc, argv); }
