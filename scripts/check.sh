#!/usr/bin/env bash
# Full verification pass: configure, build, run the test suite, and
# print every paper exhibit.  Exits nonzero on any failure.
set -euo pipefail
cd "$(dirname "$0")/.."

# Reuse whatever generator an existing build tree was configured with;
# otherwise prefer Ninja when available and fall back to the CMake
# default (usually Unix Makefiles).
if [ -f build/CMakeCache.txt ]; then
    cmake -B build
elif command -v ninja >/dev/null 2>&1; then
    cmake -B build -G Ninja
else
    cmake -B build
fi
cmake --build build -j "$(nproc 2>/dev/null || echo 4)"

ctest --test-dir build --output-on-failure

for bench in build/bench/bench_*; do
    [ -x "$bench" ] || continue
    "$bench"
done

echo
echo "check.sh: build + ${0##*/} all green"
