#!/usr/bin/env bash
# List the uldma:: functions that no tier-1 test executes, and those
# that tier 1 executes but the shipped traffic never does.
#
# Configures a Debug build with --coverage compile and link flags in
# its own build directory and builds it.  It then runs the shipped
# traffic: every scenario through uldma_workload (once with every
# export, once with none, which takes the inline and poll fast-forward
# paths), uldma_run for every method under three flag sets, every
# bench, every example, the checker's explorer for every protocol and
# ring with the IOMMU, one swarm fuzz campaign, and the four weakened
# counterexamples, each written and replayed.  After reading that
# coverage it clears the counts and runs the tier-1 suite (ctest).
#
# Every object's coverage (src, tools, tests, bench, examples) is read
# with gcov's JSON output.  A function counts as run if any object ran
# it, so an inline function instantiated in several objects is listed
# only when none of them executed it.  A function is a uldma:: function
# when its mangled name places it in namespace uldma (a lambda's body
# counts, a std:: template instantiated for a uldma:: type does not).
#
# Two lists, one demangled name per line, sorted, are written into the
# build directory and printed to stdout, each after a '#' header line:
#   unexecuted_functions.txt   no tier-1 test executed them
#   tier1_only_functions.txt   tier 1 executed them, the traffic never
# Progress goes to stderr.  Uses gcov and python3 only (no lcov or
# gcovr).
#
# Exits with ctest's status, so a failing test still prints the lists
# but fails the script.  A traffic command that fails is reported on
# stderr and does not stop the script.
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

# One shell command per line: what a user of the shipped tools runs.
traffic_commands()
{
    local b="$1" out="$2" s n m e
    for s in scenarios/*.json; do
        n="$(basename "$s" .json)"
        echo "$b/tools/uldma_workload --scenario $s --seed 0 --quiet" \
             "--threads 2 --report $out/$n.report.json" \
             "--spans-json $out/$n.spans.json" \
             "--stats-json $out/$n.stats.json" \
             "--trace-json $out/$n.trace.json" \
             "--profile-json $out/$n.profile.json" \
             "--profile-collapsed $out/$n.collapsed.txt"
        echo "$b/tools/uldma_workload --scenario $s --seed 7 --quiet" \
             "--report $out/$n.fast.json"
    done
    for m in kernel shrimp1 shrimp2 flash pal key-based ext-shadow \
             repeated3 repeated4 repeated5; do
        echo "$b/tools/uldma_run --method=$m --iterations=200 --stats" \
             "--histogram --show-program --stats-json=$out/$m.run.json"
        echo "$b/tools/uldma_run --method=$m --iterations=200" \
             "--trace-out=$out/$m.trace.json" \
             "--spans-json=$out/$m.spans.json" \
             "--timeseries-json=$out/$m.ts.json --sample-interval=5"
        echo "$b/tools/uldma_run --method=$m --iterations=200" \
             "--profile-json=$out/$m.profile.json --bus=pci66" \
             "--cpu-mhz=200 --syscall-cycles=5000 --dcache --no-merge" \
             "--size=64 --slots=4"
    done
    for e in "$b"/bench/bench_*; do
        [ -x "$e" ] && echo "$e --json $out/$(basename "$e").json"
    done
    for e in quickstart pingpong shared_counter attack_demo \
             scatter_gather; do
        echo "$b/examples/$e"
    done
    for m in pal key-based ext-shadow repeated ring cap; do
        echo "$b/tools/uldma_check --protocol=$m --depth=2 --faults"
    done
    echo "$b/tools/uldma_check --protocol=ring --iommu --depth=2 --faults"
    echo "$b/tools/uldma_check --fuzz --swarm --seed=1" \
         "--budget-schedules=500 --batch-schedules=8" \
         "--fuzz-report $out/swarm.json"
    # The four weakened counterexamples, each found, written and
    # replayed from its file.
    while read -r n m; do
        echo "$b/tools/uldma_check --protocol=$m --faults" \
             "--expect-violation --report $out/$n.repro.json &&" \
             "$b/tools/uldma_check --replay $out/$n.repro.json"
    done <<'LIST'
check repeated --depth=2 --weaken
ring ring --depth=1 --weaken-ring
iommu ring --depth=1 --weaken-iommu
cap cap --depth=1 --weaken-cap
LIST
}

# Write {mangled name: [demangled name, executions, source file]} for
# every uldma:: function of every object in $1 to the JSON file $2.
read_counts()
{
    python3 - "$1" "$2" <<'EOF'
import json
import os
import re
import subprocess
import sys
import tempfile

build = os.path.abspath(sys.argv[1])
in_uldma = re.compile(r"_ZZ?NK?5uldma")
counts = {}   # mangled name -> [demangled name, executions, source]
notes = []
for top in ("src", "tools", "tests", "bench", "examples"):
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
                    entry = counts.setdefault(
                        fn["name"],
                        [fn["demangled_name"], 0,
                         os.path.relpath(source["file"])])
                    entry[1] += fn["execution_count"]

with open(sys.argv[2], "w") as f:
    json.dump(counts, f)
EOF
}

# Counts from an earlier run in the same directory would add up.
find "$build_dir" -name '*.gcda' -delete
traffic_dir="$build_dir/traffic"
rm -rf "$traffic_dir"
mkdir -p "$traffic_dir"
echo "coverage.sh: running the shipped traffic" >&2
traffic_commands "$build_dir" "$traffic_dir" > "$traffic_dir/commands.txt"
xargs -P "$jobs" -I{} sh -c '({}) > /dev/null 2>&1 || echo "FAILED: {}"' \
    < "$traffic_dir/commands.txt" > "$traffic_dir/failed.txt" || true
failed="$(grep -c '^FAILED' "$traffic_dir/failed.txt" || true)"
if [ "$failed" != 0 ]; then
    echo "coverage.sh: ${failed} traffic commands failed:" >&2
    cat "$traffic_dir/failed.txt" >&2
fi
echo "coverage.sh: reading the traffic's coverage" >&2
read_counts "$build_dir" "$build_dir/traffic_counts.json"

find "$build_dir" -name '*.gcda' -delete
echo "coverage.sh: running tier 1" >&2
status=0
ctest --test-dir "$build_dir" -j "$jobs" >&2 || status=$?

echo "coverage.sh: reading tier 1's coverage" >&2
read_counts "$build_dir" "$build_dir/tier1_counts.json"

python3 - "$build_dir" <<'EOF'
import json
import os
import sys

build = sys.argv[1]
traffic = json.load(open(os.path.join(build, "traffic_counts.json")))
tier1 = json.load(open(os.path.join(build, "tier1_counts.json")))
# A test's own functions run only under tier 1 by definition, so the
# second list leaves out what tests/ defines.
lists = {
    "unexecuted_functions.txt":
        {name for name, count, _ in tier1.values() if count == 0},
    "tier1_only_functions.txt":
        {name for mangled, (name, count, source) in tier1.items()
         if count > 0 and traffic[mangled][1] == 0
         and not source.startswith("tests" + os.sep)},
}
headers = {
    "unexecuted_functions.txt": "no tier-1 test executed",
    "tier1_only_functions.txt":
        "tier 1 executed, the shipped traffic never did",
}
for file, names in lists.items():
    text = "".join(n + "\n" for n in sorted(names))
    with open(os.path.join(build, file), "w") as f:
        f.write(text)
    print(f"# {file}: {len(names)} functions {headers[file]}")
    sys.stdout.write(text)
EOF
exit "$status"
