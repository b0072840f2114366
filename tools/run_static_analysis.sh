#!/bin/sh
# Static-analysis driver for the xydiff tree.
#
#   tools/run_static_analysis.sh          # full pass: xylint + clang-tidy
#                                         # + xyverify + the `analyze`
#                                         # preset build (-Werror,
#                                         # -Wthread-safety on Clang,
#                                         # -fanalyzer on GCC) + its
#                                         # ctest suite
#   tools/run_static_analysis.sh --ctest  # fast pass for tier-1 ctest:
#                                         # xylint + clang-tidy (xyverify
#                                         # is its own ctest, static_arch;
#                                         # no build-inside-build)
#
# xyverify options (forwarded to tools/xyverify):
#   --json              emit SARIF JSON from the xyverify stage
#   --baseline FILE     use FILE instead of tools/xyverify_baseline.json
#   --update-baseline   rewrite the baseline to cover current findings
#                       (new entries are UNJUSTIFIED and still fail until
#                       a human writes real justifications)
#
# Tools that are not on the box are skipped with a notice, never failed:
# the container bakes in one toolchain, and the analysis must degrade
# gracefully (clang-tidy and Clang's -Wthread-safety are extra teeth
# where present, not a hard dependency).

set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo"

ctest_mode=0
xyverify_args=""
while [ "$#" -gt 0 ]; do
  case "$1" in
    --ctest) ctest_mode=1 ;;
    --json) xyverify_args="$xyverify_args --json" ;;
    --update-baseline) xyverify_args="$xyverify_args --update-baseline" ;;
    --baseline)
      shift
      xyverify_args="$xyverify_args --baseline $1" ;;
    *)
      echo "run_static_analysis: unknown option: $1" >&2
      exit 2 ;;
  esac
  shift
done

fail=0

echo "== xylint =="
if command -v python3 >/dev/null 2>&1; then
  python3 tools/xylint.py || fail=1
else
  echo "SKIP: python3 not found"
fi

echo "== clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1 && [ -f build/compile_commands.json ]
then
  # Project sources only; tests/bench inherit the idiom from src.
  find src tools -name '*.cc' | while read -r f; do
    clang-tidy --quiet -p build "$f" || exit 1
  done || fail=1
else
  echo "SKIP: clang-tidy or build/compile_commands.json not found"
fi

if [ "$ctest_mode" -eq 0 ]; then
  echo "== xyverify (layering, lock order, arena escape) =="
  if command -v python3 >/dev/null 2>&1; then
    # shellcheck disable=SC2086  # word-splitting the flag list is intended
    python3 -m tools.xyverify --stats $xyverify_args || fail=1
  else
    echo "SKIP: python3 not found"
  fi

  echo "== analyze build (-Werror; -Wthread-safety under Clang, -fanalyzer under GCC) =="
  cmake --preset analyze >/dev/null
  cmake --build --preset analyze -j "$(nproc 2>/dev/null || echo 4)" || fail=1
  echo "== analyze ctest (compile_fail negatives + full suite) =="
  ctest --preset analyze || fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "run_static_analysis: FAILED"
  exit 1
fi
echo "run_static_analysis: OK"
