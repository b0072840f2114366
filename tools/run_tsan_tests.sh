#!/bin/sh
# Builds the concurrency-relevant tests under ThreadSanitizer and runs
# them. TSan checks every memory access against the happens-before
# graph, so it exercises the pipeline's locking discipline (sharded
# document map, per-document mutexes, atomic XID allocation, the
# ParallelFor slot counter and the group-commit park) far beyond what an
# assertion can. The filter keeps the run to
# the tests that actually spawn threads — the single-threaded suite adds
# nothing under TSan and roughly 10x runtime.
#
# Usage: tools/run_tsan_tests.sh [builddir]
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DXYDIFF_TSAN=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R 'parallel_for|parallel_pipeline|warehouse|roundtrip_property|pipeline|site_diff|storage|fuzz|overload'
