#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it
# (bench/e2e/README.md). Run from anywhere inside a checkout:
#
#   bash bench/e2e/run.sh --workload pagerank --seed 7 --seconds 12 --trace 0
#   bash bench/e2e/run.sh --out=build-e2e/full.json   # all three, interleaved
#   bash bench/e2e/run.sh --smoke                      # build + schema ctest
#
# Every argument except --smoke goes to dmac_e2e unchanged. Build output goes
# to stderr, so the last line on stdout is the benchmark's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [ ! -f src/CMakeLists.txt ] || [ ! -f CALIBRATION.json ]; then
  echo "run.sh: no dmac sources under $root" >&2
  exit 1
fi

build=build-e2e
jobs="$(nproc)"
[ "$jobs" -gt 4 ] && jobs=4
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target dmac_e2e -j "$jobs" >&2

if [ "${1:-}" = "--smoke" ]; then
  cd "$build"
  ctest --output-on-failure >&2
  exit 0
fi
exec "$build/dmac_e2e" "$@"
