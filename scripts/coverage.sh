#!/usr/bin/env bash
# List the uldma:: functions that no tier-1 test executes.
#
# Configures a Debug build with --coverage compile and link flags in
# its own build directory, builds it, runs the tier-1 suite (ctest),
# then reads every object's coverage (src, tools, tests) with gcov's
# JSON output.  A function counts as run if any object ran it, so an
# inline function instantiated in several objects is listed only when
# none of them executed it.  A function is a uldma:: function when its
# mangled name places it in namespace uldma (a lambda's body counts,
# a std:: template instantiated for a uldma:: type does not).  The
# list goes to stdout, one demangled name per line, sorted; progress
# goes to stderr.  Uses gcov and python3 only (no lcov or gcovr).
#
# Exits with ctest's status, so a failing test still prints the list
# but fails the script.
#
# Usage: scripts/coverage.sh [build-dir]
#   build-dir   defaults to 'build-coverage'
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build-coverage}"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "coverage.sh: configuring ${build_dir}" >&2
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage \
    >&2
cmake --build "$build_dir" -j "$jobs" >&2

# Counts from an earlier run in the same directory would add up.
find "$build_dir" -name '*.gcda' -delete
echo "coverage.sh: running tier 1" >&2
status=0
ctest --test-dir "$build_dir" -j "$jobs" >&2 || status=$?

echo "coverage.sh: reading coverage" >&2
python3 - "$build_dir" <<'EOF'
import json
import os
import re
import subprocess
import sys
import tempfile

build = os.path.abspath(sys.argv[1])
in_uldma = re.compile(r"_ZZ?NK?5uldma")
ran = {}      # mangled name -> executions summed over the objects
names = {}    # mangled name -> demangled name
notes = []
for top in ("src", "tools", "tests"):
    for dirpath, _, files in os.walk(os.path.join(build, top)):
        notes += [os.path.join(dirpath, f) for f in files
                  if f.endswith(".gcno")]

with tempfile.TemporaryDirectory() as scratch:
    for note in sorted(notes):
        out = subprocess.run(
            ["gcov", "--stdout", "--json-format", "--object-directory",
             os.path.dirname(note), note],
            cwd=scratch, capture_output=True, text=True, check=True).stdout
        for line in out.splitlines():
            if not line.startswith("{"):
                continue
            for source in json.loads(line)["files"]:
                for fn in source["functions"]:
                    if not in_uldma.match(fn["name"]):
                        continue
                    name = fn["name"]
                    names[name] = fn["demangled_name"]
                    ran[name] = ran.get(name, 0) + fn["execution_count"]

for name in sorted({names[n] for n, count in ran.items() if count == 0}):
    print(name)
EOF
exit "$status"
