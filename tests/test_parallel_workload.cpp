/**
 * @file
 * The sharded parallel workload runner: shard planning as a pure
 * function of the scenario (connected components of the remote_node
 * graph), and the determinism contract — for every shipped scenario,
 * `threads = 4` must serialise the merged report, spans, stats and
 * trace exports byte-identically to `threads = 1`, the inline CPU path
 * must export what the queue path exports, and the merged aggregate
 * must match what the unsharded single-machine driver produces for the
 * same (scenario, seed).
 *
 * Scenario files are read from ULDMA_SCENARIO_DIR (injected by
 * tests/CMakeLists.txt as the source-tree scenarios/ directory), so
 * adding a scenario file automatically widens this net.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "sim/span.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "workload/driver.hh"
#include "workload/parallel.hh"
#include "workload/report.hh"
#include "workload/scenario.hh"

namespace {

using namespace uldma;
using namespace uldma::workload;

Scenario
parse(const std::string &text)
{
    Scenario scenario;
    std::string error;
    EXPECT_TRUE(parseScenario(text, scenario, &error)) << error;
    return scenario;
}

Scenario
loadShipped(const std::string &name)
{
    Scenario scenario;
    std::string error;
    const std::string path =
        std::string(ULDMA_SCENARIO_DIR) + "/" + name + ".json";
    EXPECT_TRUE(loadScenarioFile(path, scenario, &error))
        << path << ": " << error;
    return scenario;
}

/** Every scenario file the repo ships (scenarios/README-worthy set). */
const std::vector<std::string> kShippedScenarios = {
    "table1_mix",        "contended_4proc", "multinode_scatter",
    "adversarial_mix",   "parallel_shards", "ring_pipeline",
    "multitenant_storm",
};

// ---------------------------------------------------------------------
// Shard planning
// ---------------------------------------------------------------------

TEST(ShardPlan, SingleNodeIsOneShard)
{
    const Scenario scenario = parse(R"({
      "schema": "uldma-scenario-v1", "name": "t", "nodes": 1,
      "streams": [{"name": "s", "node": 0, "protocol": "key-based",
                   "initiations": 5}]})");
    const ShardPlan plan = planShards(scenario);
    ASSERT_EQ(plan.shards.size(), 1u);
    EXPECT_EQ(plan.shards[0].id, 0u);
    EXPECT_EQ(plan.shards[0].nodes, std::vector<unsigned>{0});
    EXPECT_EQ(plan.shards[0].streams, std::vector<std::size_t>{0});
}

TEST(ShardPlan, IndependentNodesSplitIntoOneShardEach)
{
    const Scenario scenario = parse(R"({
      "schema": "uldma-scenario-v1", "name": "t", "nodes": 3,
      "streams": [
        {"name": "a", "node": 0, "protocol": "key-based",
         "initiations": 5},
        {"name": "b", "node": 1, "protocol": "ext-shadow",
         "initiations": 5},
        {"name": "c", "node": 2, "protocol": "kernel",
         "initiations": 5}]})");
    const ShardPlan plan = planShards(scenario);
    ASSERT_EQ(plan.shards.size(), 3u);
    for (unsigned k = 0; k < 3; ++k) {
        EXPECT_EQ(plan.shards[k].id, k);
        EXPECT_EQ(plan.shards[k].nodes, std::vector<unsigned>{k});
        EXPECT_EQ(plan.shards[k].streams, std::vector<std::size_t>{k});
        EXPECT_EQ(plan.shardOfNode[k], k);
        EXPECT_EQ(plan.localOfNode[k], 0u);
    }
}

TEST(ShardPlan, RemoteNodeEdgesMergeComponents)
{
    // 0 -> 2 via remote_node, 1 stays alone: two shards, ordered by
    // smallest member node ({0,2} first, then {1}).
    const Scenario scenario = parse(R"({
      "schema": "uldma-scenario-v1", "name": "t", "nodes": 3,
      "streams": [
        {"name": "a", "node": 0, "remote_node": 2,
         "protocol": "key-based", "initiations": 5},
        {"name": "b", "node": 1, "protocol": "ext-shadow",
         "initiations": 5}]})");
    const ShardPlan plan = planShards(scenario);
    ASSERT_EQ(plan.shards.size(), 2u);
    EXPECT_EQ(plan.shards[0].nodes, (std::vector<unsigned>{0, 2}));
    EXPECT_EQ(plan.shards[1].nodes, std::vector<unsigned>{1});
    EXPECT_EQ(plan.shardOfNode, (std::vector<unsigned>{0, 1, 0}));
    EXPECT_EQ(plan.localOfNode, (std::vector<unsigned>{0, 0, 1}));
    // The sub-scenario remaps stream endpoints to shard-local ids.
    ASSERT_EQ(plan.shards[0].scenario.streams.size(), 1u);
    EXPECT_EQ(plan.shards[0].scenario.streams[0].node, 0u);
    EXPECT_EQ(plan.shards[0].scenario.streams[0].remoteNode, 1);
    EXPECT_EQ(plan.shards[0].scenario.nodes, 2u);
    EXPECT_EQ(plan.shards[1].scenario.nodes, 1u);
}

TEST(ShardPlan, StreamlessNodeFormsItsOwnShard)
{
    const Scenario scenario = parse(R"({
      "schema": "uldma-scenario-v1", "name": "t", "nodes": 2,
      "streams": [{"name": "a", "node": 1, "protocol": "key-based",
                   "initiations": 5}]})");
    const ShardPlan plan = planShards(scenario);
    ASSERT_EQ(plan.shards.size(), 2u);
    EXPECT_EQ(plan.shards[0].nodes, std::vector<unsigned>{0});
    EXPECT_TRUE(plan.shards[0].streams.empty());
    EXPECT_EQ(plan.shards[1].nodes, std::vector<unsigned>{1});
    EXPECT_EQ(plan.shards[1].streams, std::vector<std::size_t>{0});
}

TEST(ShardPlan, ShippedScenarioShapes)
{
    // parallel_shards is the canonical 4-way split; multinode_scatter's
    // remote_node fan-out keeps all of its nodes in one component.
    EXPECT_EQ(planShards(loadShipped("parallel_shards")).shards.size(),
              4u);
    EXPECT_EQ(planShards(loadShipped("multinode_scatter")).shards.size(),
              1u);
}

// ---------------------------------------------------------------------
// Merged artifacts: byte identity across thread counts
// ---------------------------------------------------------------------

/** Every serialised artifact of one parallel run. */
struct Artifacts
{
    std::string report;
    std::string spans;
    std::string stats;
    std::string trace;
};

/** @p profile also captures the profiler, which keeps every CPU op on
 *  the event queue (Machine::run).  Without @p trace, nothing turns
 *  off the CPU's poll fast-forward, and the trace stays empty. */
Artifacts
artifactsFor(const Scenario &scenario, std::uint64_t seed,
             unsigned threads, bool profile = false, bool trace = true)
{
    ParallelOptions options;
    options.threads = threads;
    options.captureStats = true;
    options.captureTrace = trace;
    options.captureProfile = profile;
    const ParallelResult run =
        runParallelWorkload(scenario, seed, options);

    Artifacts out;
    {
        std::ostringstream os;
        const std::vector<ShardReportInfo> infos = run.shardInfos();
        writeWorkloadReport(os, scenario, run.merged, /*pretty=*/true,
                            &infos);
        out.report = os.str();
    }
    {
        std::ostringstream os;
        span::exportMergedSpansJson(os, run.shardSpans());
        out.spans = os.str();
    }
    {
        std::ostringstream os;
        stats::writeStatsJson(os, run.mergedStats());
        out.stats = os.str();
    }
    {
        std::ostringstream os;
        trace::exportMergedChromeTracing(os, run.shardTraces());
        out.trace = os.str();
    }
    return out;
}

TEST(ParallelDeterminism, EveryShippedScenarioIsThreadCountInvariant)
{
    for (const std::string &name : kShippedScenarios) {
        SCOPED_TRACE(name);
        const Scenario scenario = loadShipped(name);
        const Artifacts one = artifactsFor(scenario, 7, 1);
        const Artifacts four = artifactsFor(scenario, 7, 4);
        EXPECT_EQ(one.report, four.report);
        EXPECT_EQ(one.spans, four.spans);
        EXPECT_EQ(one.stats, four.stats);
        EXPECT_EQ(one.trace, four.trace);
    }
}

TEST(ParallelDeterminism, InlineAndQueuePathsExportTheSameBytes)
{
    // Without profile capture, Machine::run lets a CPU run its next op
    // in place; with it, every op goes through the event queue.  Both
    // paths must serialise every scenario file identically.  Trace
    // capture turns off the poll fast-forward (not inlining), so a
    // third run without it checks the skipped poll iterations too.
    std::vector<std::string> paths;
    for (const auto &entry :
         std::filesystem::directory_iterator(ULDMA_SCENARIO_DIR)) {
        if (entry.path().extension() == ".json")
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    ASSERT_FALSE(paths.empty());
    for (const std::string &path : paths) {
        Scenario scenario;
        std::string error;
        ASSERT_TRUE(loadScenarioFile(path, scenario, &error))
            << path << ": " << error;
        for (std::uint64_t seed : {0, 1}) {
            SCOPED_TRACE(path + " seed " + std::to_string(seed));
            const Artifacts inline_path = artifactsFor(scenario, seed, 1);
            const Artifacts queue_path =
                artifactsFor(scenario, seed, 1, /*profile=*/true);
            EXPECT_EQ(inline_path.report, queue_path.report);
            EXPECT_EQ(inline_path.spans, queue_path.spans);
            EXPECT_EQ(inline_path.stats, queue_path.stats);
            EXPECT_EQ(inline_path.trace, queue_path.trace);
            const Artifacts fast_forward = artifactsFor(
                scenario, seed, 1, /*profile=*/false, /*trace=*/false);
            EXPECT_EQ(fast_forward.report, queue_path.report);
            EXPECT_EQ(fast_forward.spans, queue_path.spans);
            EXPECT_EQ(fast_forward.stats, queue_path.stats);
        }
    }
}

TEST(ParallelDeterminism, MoreThreadsThanShardsAndNodes)
{
    // 16 workers over a 1-shard, 1-node scenario: extras must exit
    // without perturbing the output.
    const Scenario scenario = parse(R"({
      "schema": "uldma-scenario-v1", "name": "t", "nodes": 1,
      "streams": [{"name": "s", "count": 2, "node": 0,
                   "protocol": "key-based", "initiations": 20,
                   "pacing": {"kind": "closed", "think_us": 2}}]})");
    const Artifacts one = artifactsFor(scenario, 11, 1);
    const Artifacts many = artifactsFor(scenario, 11, 16);
    EXPECT_EQ(one.report, many.report);
    EXPECT_EQ(one.spans, many.spans);
    EXPECT_EQ(one.stats, many.stats);
    EXPECT_EQ(one.trace, many.trace);
}

TEST(ParallelDeterminism, RepeatedRunsAreIdentical)
{
    const Scenario scenario = loadShipped("parallel_shards");
    const Artifacts a = artifactsFor(scenario, 3, 4);
    const Artifacts b = artifactsFor(scenario, 3, 4);
    EXPECT_EQ(a.report, b.report);
    EXPECT_EQ(a.spans, b.spans);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.trace, b.trace);
}

// ---------------------------------------------------------------------
// Merge correctness: the aggregate matches the unsharded driver
// ---------------------------------------------------------------------

std::string
unshardedReport(const Scenario &scenario, std::uint64_t seed)
{
    const WorkloadResult result = runWorkload(scenario, seed);
    std::ostringstream os;
    writeWorkloadReport(os, scenario, result);
    return os.str();
}

std::string
mergedReportWithoutShardRows(const Scenario &scenario, std::uint64_t seed)
{
    const ParallelResult run = runParallelWorkload(scenario, seed);
    std::ostringstream os;
    // No shard rows: serialise the aggregate in the unsharded report's
    // exact shape so the two documents are directly comparable.
    writeWorkloadReport(os, scenario, run.merged);
    return os.str();
}

TEST(ParallelMerge, AggregateMatchesUnshardedDriver)
{
    for (const std::string &name : kShippedScenarios) {
        SCOPED_TRACE(name);
        const Scenario scenario = loadShipped(name);
        EXPECT_EQ(unshardedReport(scenario, 7),
                  mergedReportWithoutShardRows(scenario, 7));
    }
}

TEST(ParallelMerge, ShardRowsCoverThePlan)
{
    const Scenario scenario = loadShipped("parallel_shards");
    const ParallelResult run = runParallelWorkload(scenario, 7);
    const std::vector<ShardReportInfo> infos = run.shardInfos();
    ASSERT_EQ(infos.size(), run.plan.shards.size());
    std::size_t nodes = 0, streams = 0;
    double max_duration = 0.0;
    for (const ShardReportInfo &info : infos) {
        nodes += info.nodes.size();
        streams += info.streams.size();
        max_duration = std::max(max_duration, info.durationUs);
        EXPECT_TRUE(info.finished);
    }
    EXPECT_EQ(nodes, scenario.nodes);
    EXPECT_EQ(streams, scenario.streams.size());
    EXPECT_DOUBLE_EQ(max_duration, run.merged.durationUs);
}

TEST(ParallelMerge, SeedStillMatters)
{
    const Scenario scenario = loadShipped("parallel_shards");
    EXPECT_NE(mergedReportWithoutShardRows(scenario, 7),
              mergedReportWithoutShardRows(scenario, 8));
}

} // namespace
