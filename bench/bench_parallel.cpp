/**
 * @file
 * Parallel-scaling exhibit: wall-clock throughput of the sharded
 * workload runner as the worker-pool size grows.  A four-shard
 * scenario (four independent nodes, each a contended key-based pool
 * plus a kernel-channel syscaller — the shipped
 * scenarios/parallel_shards.json, embedded here so the bench is
 * self-contained) is executed at 1, 2 and 4 threads; the exhibit
 * reports wall time, speedup over one thread, scaling efficiency, and
 * completed transfers per host-second — and asserts that every thread
 * count produced the identical merged report, the determinism
 * contract the workload tests pin.
 *
 * Simulated results never change with the thread count; only the
 * host-side wall clock does.  That split is what lets the bench
 * trajectory (BENCH_parallel.json) track host scaling without
 * perturbing any simulated number.
 */

#include "bench_common.hh"

#include <chrono>
#include <sstream>
#include <thread>

#include "workload/parallel.hh"
#include "workload/report.hh"
#include "workload/scenario.hh"

namespace {

using namespace uldma;
using namespace uldma::workload;

/** One node's worth of the parallel_shards scenario. */
std::string
nodeStreams(unsigned node, unsigned initiations)
{
    std::ostringstream ss;
    ss << R"({"name": "keyed-n)" << node << R"(", "count": 4, "node": )"
       << node
       << R"(, "protocol": "key-based", "initiations": )" << initiations
       << R"(, "size": {"kind": "uniform", "min": 8, "max": 2048},)"
       << R"( "pacing": {"kind": "closed", "think_us": 5}},)"
       << R"({"name": "syscaller-n)" << node << R"(", "node": )" << node
       << R"(, "protocol": "kernel", "initiations": )"
       << (initiations / 5)
       << R"(, "size": {"kind": "fixed", "bytes": 512},)"
       << R"( "pacing": {"kind": "closed", "think_us": 50}})";
    return ss.str();
}

Scenario
buildScenario(unsigned nodes, unsigned initiations)
{
    std::ostringstream ss;
    ss << R"({"schema": "uldma-scenario-v1", "name": "parallel-shards",)"
       << R"("nodes": )" << nodes << R"(, "streams": [)";
    for (unsigned n = 0; n < nodes; ++n)
        ss << (n ? "," : "") << nodeStreams(n, initiations);
    ss << "]}";
    Scenario scenario;
    std::string error;
    const bool ok = parseScenario(ss.str(), scenario, &error);
    if (!ok) {
        std::fprintf(stderr, "bench_parallel: bad scenario: %s\n",
                     error.c_str());
        std::abort();
    }
    return scenario;
}

struct RunSample
{
    double wallS = 0.0;
    std::uint64_t completed = 0;
    std::string reportBytes;
};

RunSample
timedRun(const Scenario &scenario, std::uint64_t seed, unsigned threads)
{
    ParallelOptions options;
    options.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    const ParallelResult run = runParallelWorkload(scenario, seed, options);
    RunSample sample;
    sample.wallS =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    for (const ProtocolStats &row : run.merged.protocols)
        sample.completed += row.completed;
    std::ostringstream report;
    const std::vector<ShardReportInfo> infos = run.shardInfos();
    writeWorkloadReport(report, scenario, run.merged, /*pretty=*/true,
                        &infos);
    sample.reportBytes = report.str();
    return sample;
}

void
exhibit(benchutil::Reporter &reporter)
{
    benchutil::header(
        "Parallel sharded workload execution: wall-clock scaling of "
        "independent shards across worker threads");

    const unsigned nodes = 4;
    const unsigned initiations = 300;
    const std::uint64_t seed = 7 + benchutil::seedBase();
    const Scenario scenario = buildScenario(nodes, initiations);
    const unsigned host_cores = std::thread::hardware_concurrency();

    std::printf("host cores: %u (speedup tops out at "
                "min(shards, cores))\n\n", host_cores);
    std::printf("%-10s %12s %10s %12s %18s\n", "threads", "wall-ms",
                "speedup", "efficiency", "transfers/host-s");

    double base_wall = 0.0;
    std::string base_report;
    for (const unsigned threads : {1u, 2u, 4u}) {
        // Best of three: scheduling noise on shared CI hosts otherwise
        // drowns the scaling signal.
        RunSample best;
        for (int rep = 0; rep < 3; ++rep) {
            const RunSample sample = timedRun(scenario, seed, threads);
            if (rep == 0 || sample.wallS < best.wallS)
                best = sample;
        }
        if (threads == 1) {
            base_wall = best.wallS;
            base_report = best.reportBytes;
        } else if (best.reportBytes != base_report) {
            std::fprintf(stderr,
                         "bench_parallel: merged report changed with "
                         "thread count — determinism contract broken\n");
            std::abort();
        }
        const double speedup =
            best.wallS > 0.0 ? base_wall / best.wallS : 0.0;
        const double efficiency = speedup / threads;
        const double rate =
            best.wallS > 0.0 ? double(best.completed) / best.wallS : 0.0;
        std::printf("%-10u %12.2f %10.2f %12.2f %18.0f\n", threads,
                    best.wallS * 1e3, speedup, efficiency, rate);

        reporter.record("parallel_scaling")
            .config("scenario", "parallel-shards")
            .config("nodes", std::int64_t(nodes))
            .config("shards", std::int64_t(nodes))
            .config("threads", std::int64_t(threads))
            .config("initiations_per_worker", std::int64_t(initiations))
            // A metric, not a config key: bench-diff matches records on
            // exact config, and the host's core count must not make a
            // record unmatchable.  Its name keeps it ungated.
            .metric("host_cores", double(host_cores))
            .metric("wall_ms", best.wallS * 1e3)
            .metric("speedup_x", speedup)
            .metric("efficiency", efficiency)
            .metric("completed_transfers", double(best.completed))
            .metric("transfers_per_host_sec", rate);
    }
    std::printf("\nmerged reports byte-identical across all thread "
                "counts: yes\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return uldma::benchutil::benchMain(argc, argv, exhibit);
}
