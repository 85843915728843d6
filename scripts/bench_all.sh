#!/usr/bin/env bash
# Run every bench binary's paper exhibit with --json and collect the
# machine-readable reports as BENCH_<name>.json at the repo root
# (schema uldma-bench-v1, see docs/OBSERVABILITY.md), then smoke-run
# the workload engine over the shipped scenarios.  The collected
# reports are also merged into one BENCH_summary.json
# (uldma-bench-summary-v1) so a CI artifact or a bench-diff baseline
# refresh is a single file.
#
# Fails fast: the first failing bench or workload run stops the run
# and is named, so CI logs point at the culprit instead of a generic
# nonzero exit.
#
# Usage: scripts/bench_all.sh [build-dir] [--seed=N]
#   build-dir   defaults to 'build'
#   --seed=N    base seed forwarded to every bench (bench_common.hh's
#               shared --seed flag); default 0 reproduces the
#               historical numbers
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="build"
seed=0
for arg in "$@"; do
    case "$arg" in
        --seed=*) seed="${arg#--seed=}" ;;
        --*) echo "bench_all.sh: unknown option '$arg'" >&2; exit 2 ;;
        *) build_dir="$arg" ;;
    esac
done
if [ ! -d "$build_dir/bench" ]; then
    echo "bench_all.sh: no '$build_dir/bench' directory;" \
         "build first (scripts/check.sh)" >&2
    exit 1
fi

trace_tool="$build_dir/tools/uldma_trace_tool"

written=()
walls=()
for bench in "$build_dir"/bench/bench_*; do
    [ -x "$bench" ] || continue
    name="$(basename "$bench")"
    suffix="${name#bench_}"
    out="BENCH_${suffix}.json"
    echo "== $name -> $out"
    t0=$(date +%s%N)
    if ! "$bench" --json "$out" --seed "$seed"; then
        echo "bench_all.sh: FAILED: $name;" \
             "stopping before remaining benches" >&2
        exit 1
    fi
    t1=$(date +%s%N)
    # Every report must carry a schema the trace tool knows: an
    # unregistered schema is a hard failure naming the culprit file,
    # not a silently-unvalidated artifact.
    if [ -x "$trace_tool" ] && ! "$trace_tool" validate "$out"; then
        echo "bench_all.sh: FAILED: $out does not validate" \
             "(unknown or malformed bench schema from $name)" >&2
        exit 1
    fi
    written+=("$out")
    walls+=("$(( (t1 - t0) / 1000000 ))e-3")
done

if [ "${#written[@]}" -eq 0 ]; then
    echo "bench_all.sh: no bench binaries in '$build_dir/bench'" >&2
    exit 1
fi

# Workload smoke runs.  `if ! ...` (not bare invocation under -e with
# command substitution or pipelines) so a non-zero exit from
# uldma_workload reliably stops the script with the culprit named.
workload="$build_dir/tools/uldma_workload"
if [ -x "$workload" ]; then
    for scenario in scenarios/*.json; do
        echo "== uldma_workload --check $scenario"
        if ! "$workload" --check --scenario "$scenario"; then
            echo "bench_all.sh: FAILED: workload check of $scenario" >&2
            exit 1
        fi
    done
    echo "== uldma_workload smoke -> BENCH_workload_smoke.json"
    t0=$(date +%s%N)
    if ! "$workload" --scenario scenarios/contended_4proc.json \
            --seed "$seed" --quiet --report BENCH_workload_smoke.json; then
        echo "bench_all.sh: FAILED: workload smoke run" >&2
        exit 1
    fi
    t1=$(date +%s%N)
    if [ -x "$trace_tool" ] \
       && ! "$trace_tool" validate BENCH_workload_smoke.json; then
        echo "bench_all.sh: FAILED: BENCH_workload_smoke.json does" \
             "not validate" >&2
        exit 1
    fi
    written+=("BENCH_workload_smoke.json")
    walls+=("$(( (t1 - t0) / 1000000 ))e-3")

    # Sharded-execution determinism smoke: the 4-shard scenario at
    # --threads 4 must reproduce the --threads 1 report byte for byte.
    echo "== uldma_workload --threads 4 determinism smoke"
    if ! "$workload" --scenario scenarios/parallel_shards.json \
            --seed "$seed" --quiet --threads 1 --report /tmp/uldma_t1.json \
       || ! "$workload" --scenario scenarios/parallel_shards.json \
            --seed "$seed" --quiet --threads 4 --report /tmp/uldma_t4.json \
       || ! cmp -s /tmp/uldma_t1.json /tmp/uldma_t4.json; then
        echo "bench_all.sh: FAILED: --threads 4 report differs from" \
             "--threads 1 (determinism contract)" >&2
        exit 1
    fi
    rm -f /tmp/uldma_t1.json /tmp/uldma_t4.json
else
    echo "bench_all.sh: warning: no '$workload'; skipping workload smoke" >&2
fi

echo
echo "bench_all.sh: wrote ${#written[@]} report(s):"

# One-line-per-report summary table (report name, schema, wall time,
# and a key metric pulled from the document), plus the merged
# uldma-bench-summary-v1 document embedding every report verbatim with
# the wall-clock seconds its producer took.
python3 - "$seed" "$(nproc)" "${#written[@]}" "${written[@]}" "${walls[@]}" <<'PYEOF'
import json, sys

seed = int(sys.argv[1])
host_cores = int(sys.argv[2])
count = int(sys.argv[3])
paths = sys.argv[4:4 + count]
walls = [float(w) for w in sys.argv[4 + count:4 + 2 * count]]
rows = []
# host_cores records the producing machine's parallelism so a
# bench-summary artifact is interpretable off-box (wall_s rows are
# host-dependent); the validator treats it as informational.
summary = {"schema": "uldma-bench-summary-v1", "seed": seed,
           "host_cores": host_cores, "reports": []}
for path, wall_s in zip(paths, walls):
    try:
        doc = json.load(open(path))
    except (OSError, ValueError) as err:
        rows.append((path, "?", 0.0, f"unreadable: {err}"))
        continue
    schema = doc.get("schema", "?")
    summary["reports"].append({"file": path, "document": doc,
                               "wall_s": wall_s})
    if schema == "uldma-bench-v1":
        records = doc.get("records", [])
        key = f"{len(records)} record(s)"
        if records and records[0].get("metrics"):
            name, value = next(iter(records[0]["metrics"].items()))
            key += f", {records[0].get('name', '?')}: {name}={value:g}"
        rows.append((path, schema, wall_s, key))
    elif schema == "uldma-workload-v1":
        key = (f"{doc.get('scenario', '?')}: "
               f"duration_us={doc.get('duration_us', 0):g}, "
               f"{len(doc.get('per_protocol', []))} protocol row(s)")
        rows.append((path, schema, wall_s, key))
    else:
        rows.append((path, schema, wall_s,
                     f"{len(doc)} top-level member(s)"))

width = max(len(r[0]) for r in rows)
swidth = max(len(r[1]) for r in rows)
for path, schema, wall_s, key in rows:
    print(f"  {path:<{width}}  {schema:<{swidth}}  {wall_s:7.3f}s  "
          f"{key}")

with open("BENCH_summary.json", "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")
total = sum(walls)
print(f"  BENCH_summary.json{'':<{max(0, width - 18)}}  "
      f"uldma-bench-summary-v1  {total:7.3f}s  "
      f"{len(summary['reports'])} report(s)")
PYEOF

# The merged summary must itself validate (wall_s rows included).
if [ -x "$trace_tool" ] && ! "$trace_tool" validate BENCH_summary.json; then
    echo "bench_all.sh: FAILED: BENCH_summary.json does not validate" >&2
    exit 1
fi
