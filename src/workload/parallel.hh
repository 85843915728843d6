/**
 * @file
 * Parallel sharded workload execution: run each shard of a
 * ShardPlan on its own std::thread — one Machine per shard, with
 * thread-local PRNG derivations, stats Registry, span Tracker and
 * trace EventRing, so no simulation state is shared — then merge the
 * per-shard results into one aggregate that is byte-identical
 * regardless of thread count.
 *
 * The determinism contract: the shard plan is a pure function of the
 * scenario (workload/shard.hh), per-shard execution is a pure
 * function of (shard scenario, seed, global seed-identity maps), and
 * the merge walks shards in plan order.  `threads` only sizes the
 * worker pool draining a fixed shard queue, so `--threads N` and
 * `--threads 1` serialise to the same bytes — the property
 * tests/test_parallel_workload.cpp pins for every shipped scenario.
 */

#ifndef ULDMA_WORKLOAD_PARALLEL_HH
#define ULDMA_WORKLOAD_PARALLEL_HH

#include "prof/profiler.hh"
#include "sim/span.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "workload/driver.hh"
#include "workload/report.hh"
#include "workload/shard.hh"

namespace uldma::workload {

/** Knobs of one parallel run. */
struct ParallelOptions
{
    /** Worker threads draining the shard queue (>= 1; more threads
     *  than shards is fine — the extras exit immediately). */
    unsigned threads = 1;

    /** Snapshot each shard's stats registry (for the merged
     *  uldma-stats-v1 export). */
    bool captureStats = false;

    /** Capture each shard's structured trace events (for the merged
     *  chrome://tracing export). */
    bool captureTrace = false;

    /** Capture each shard's scoped profile (prof::Profiler) for the
     *  merged uldma-profile-v1 export. */
    bool captureProfile = false;
};

/** Everything one shard produced. */
struct ShardOutput
{
    /** The shard driver's result; stream specs point into the plan's
     *  shard scenario, per-node rows carry shard-local node ids. */
    WorkloadResult result;
    /** Span capture, engine names rewritten to global node ids.  Once
     *  the pool joins, the spans themselves move to
     *  ParallelResult::shardSpans(); `shard` and `opened` stay. */
    span::ShardSpans spans;
    /** Stats snapshot (captureStats), group names rewritten to global
     *  node ids and tagged with the shard id. */
    std::vector<stats::GroupSnapshot> stats;
    /** Trace capture (captureTrace), component names rewritten. */
    trace::ShardTrace trace;
    /** Profile capture (captureProfile): this shard's scope tree. */
    prof::ProfileNode profile;
    /** Worker-pool thread (0-based) that executed this shard. */
    unsigned worker = 0;
    /** Host-clock shard window relative to pool launch (ns).  For the
     *  human busy/idle timeline only — never serialised. */
    std::uint64_t hostStartNs = 0;
    std::uint64_t hostEndNs = 0;
};

/** A parallel run: plan, per-shard outputs, deterministic aggregate. */
struct ParallelResult
{
    friend ParallelResult runParallelWorkload(const Scenario &,
                                              std::uint64_t,
                                              const ParallelOptions &);

    ShardPlan plan;
    std::vector<ShardOutput> shards;

    /** The merged aggregate, expressed against the original scenario:
     *  streams in global order with specs pointing into it, per-node
     *  rows keyed by global node id, duration the max over shards,
     *  finished the conjunction. */
    WorkloadResult merged;

    /** Shard summary rows for writeWorkloadReport's "shards" array. */
    std::vector<ShardReportInfo> shardInfos() const;

    /** Per-shard span captures in plan order (exportMergedSpansJson
     *  input). */
    const std::vector<span::ShardSpans> &shardSpans() const
    {
        return spans_;
    }

    /** Concatenated renamed stats snapshots in plan order
     *  (writeStatsJson input); empty without captureStats. */
    std::vector<stats::GroupSnapshot> mergedStats() const;

    /** Per-shard trace captures in plan order
     *  (exportMergedChromeTracing input); empty without
     *  captureTrace. */
    std::vector<trace::ShardTrace> shardTraces() const;

    /** Shard profiles folded in plan order (writeProfileJson input);
     *  an empty tree without captureProfile.  Deterministic for any
     *  thread count. */
    prof::ProfileNode mergedProfile() const;

    /** One row of the per-shard worker busy/idle timeline. */
    struct WorkerTimelineRow
    {
        unsigned shard = 0;
        unsigned worker = 0;
        double startMs = 0.0;  ///< host ms after pool launch
        double endMs = 0.0;
        double simUs = 0.0;    ///< simulated time the shard covered
    };

    /** Host-clock shard schedule across the worker pool, shard order.
     *  Human diagnostics only (wall clock!) — keep out of artifacts. */
    std::vector<WorkerTimelineRow> workerTimeline() const;

  private:
    std::vector<span::ShardSpans> spans_;
};

/**
 * Plan, execute and merge @p scenario under @p seed.  Deterministic:
 * the same (scenario, seed) yields the same ParallelResult — and
 * hence the same serialised artifacts — for every
 * @p options.threads.  The scenario must outlive the result (merged
 * stream specs point into it).
 */
ParallelResult runParallelWorkload(const Scenario &scenario,
                                   std::uint64_t seed,
                                   const ParallelOptions &options = {});

} // namespace uldma::workload

#endif // ULDMA_WORKLOAD_PARALLEL_HH
