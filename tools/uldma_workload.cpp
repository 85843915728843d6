/**
 * @file
 * uldma_workload — scenario-driven traffic generation.
 *
 * Loads a declarative uldma-scenario-v1 JSON file (see
 * docs/WORKLOADS.md), partitions it into independent shards, runs one
 * Machine per shard across --threads worker threads, prints an
 * offered-vs-achieved summary plus wall-clock throughput, and
 * optionally writes the merged uldma-workload-v1 report and the
 * merged stats / spans / trace exports (schemas in docs/SCHEMAS.md).
 *
 * Byte-deterministic: the same scenario and --seed always produce the
 * same report bytes, for every --threads value — the shard plan is a
 * pure function of the scenario, threads only size the worker pool.
 * Wall-clock numbers appear only in the human summary, never in the
 * JSON artifacts.
 *
 *   $ uldma_workload --scenario scenarios/table1_mix.json --seed 7 \
 *                    --threads 4 --report report.json
 *   $ uldma_workload --scenario scenarios/adversarial_mix.json --check
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "prof/profiler.hh"
#include "sim/span.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "util/options.hh"
#include "util/output.hh"
#include "workload/parallel.hh"
#include "workload/report.hh"
#include "workload/scenario.hh"

using namespace uldma;
using namespace uldma::workload;

int
main(int argc, char **argv)
{
    Options opts("uldma_workload: scenario-driven traffic generation");
    opts.addString("scenario", "", "uldma-scenario-v1 JSON file (required)");
    opts.addInt("seed", 1, "run seed; all stream randomness derives "
                           "from it");
    opts.addInt("threads", 1,
                "worker threads running independent shards in parallel; "
                "output bytes are identical for every value");
    opts.addString("report", "",
                   "write the merged uldma-workload-v1 report to this "
                   "file ('-' for stdout)");
    opts.addString("spans-json", "",
                   "write the merged per-initiation spans as a "
                   "uldma-spans-v1 file ('-' for stdout)");
    opts.addString("stats-json", "",
                   "write every shard's component stats as one merged "
                   "uldma-stats-v1 file ('-' for stdout)");
    opts.addString("trace-json", "",
                   "capture structured events and write the merged "
                   "chrome://tracing file ('-' for stdout)");
    opts.addString("profile-json", "",
                   "profile the simulator's own hot paths and write the "
                   "merged uldma-profile-v1 file ('-' for stdout)");
    opts.addString("profile-collapsed", "",
                   "also write the merged profile as collapsed-stack "
                   "text for flamegraph tools ('-' for stdout)");
    opts.addFlag("profile-host-time", false,
                 "include host wall-time attribution in the profile "
                 "exports (makes them non-deterministic)");
    opts.addInt("stall-watchdog-us", 0,
                "simulated-us window of the per-shard stall watchdog; "
                "0 disables.  Diagnostics go to stderr only");
    opts.addFlag("check", false,
                 "parse and validate the scenario, then exit without "
                 "running");
    opts.addFlag("quiet", false, "suppress the human-readable summary");
    if (!opts.parse(argc, argv))
        return 0;

    const std::string scenario_path = opts.getString("scenario");
    if (scenario_path.empty()) {
        std::fprintf(stderr, "uldma_workload: --scenario is required\n");
        return 2;
    }

    Scenario scenario;
    std::string error;
    if (!loadScenarioFile(scenario_path, scenario, &error)) {
        std::fprintf(stderr, "%s: %s\n", scenario_path.c_str(),
                     error.c_str());
        return 2;
    }
    if (opts.getFlag("check")) {
        const ShardPlan plan = planShards(scenario);
        std::printf("%s: ok (scenario '%s', %u node(s), %zu stream(s), "
                    "%zu shard(s))\n",
                    scenario_path.c_str(), scenario.name.c_str(),
                    scenario.nodes, scenario.streams.size(),
                    plan.shards.size());
        return 0;
    }

    const std::uint64_t seed =
        static_cast<std::uint64_t>(opts.getInt("seed"));
    const long threads_arg = opts.getInt("threads");
    if (threads_arg < 1) {
        std::fprintf(stderr, "uldma_workload: --threads must be >= 1\n");
        return 2;
    }

    const long stall_us = opts.getInt("stall-watchdog-us");
    if (stall_us < 0) {
        std::fprintf(stderr,
                     "uldma_workload: --stall-watchdog-us must be >= 0\n");
        return 2;
    }

    ParallelOptions par;
    par.threads = static_cast<unsigned>(threads_arg);
    par.captureStats = !opts.getString("stats-json").empty();
    par.captureTrace = !opts.getString("trace-json").empty();
    par.captureProfile = !opts.getString("profile-json").empty() ||
                         !opts.getString("profile-collapsed").empty();
    par.stallWindowUs = static_cast<double>(stall_us);

    const auto wall_start = std::chrono::steady_clock::now();
    const ParallelResult run = runParallelWorkload(scenario, seed, par);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    const WorkloadResult &result = run.merged;

    if (!opts.getFlag("quiet")) {
        std::uint64_t offered = 0, failures = 0;
        for (const StreamRuntime &s : result.streams) {
            offered += s.issued;
            failures += s.failures;
        }
        std::uint64_t achieved = 0, completed = 0;
        for (const ProtocolStats &row : result.protocols) {
            achieved += row.opened;
            completed += row.completed;
        }
        std::printf("scenario  : %s (seed %llu, %u node(s), %zu shard(s), "
                    "%u thread(s))\n",
                    scenario.name.c_str(),
                    static_cast<unsigned long long>(seed), scenario.nodes,
                    run.plan.shards.size(), par.threads);
        std::printf("duration  : %.1f us simulated%s\n", result.durationUs,
                    result.finished ? "" : "  [hit limit_us]");
        std::printf("offered   : %llu initiation(s)\n",
                    static_cast<unsigned long long>(offered));
        std::printf("achieved  : %llu seen by engines, %llu completed, "
                    "%llu failure status(es)\n",
                    static_cast<unsigned long long>(achieved),
                    static_cast<unsigned long long>(completed),
                    static_cast<unsigned long long>(failures));
        // Wall-clock throughput: how fast the host chewed through the
        // simulation.  Kept out of every JSON artifact — those stay
        // byte-deterministic.
        const double sim_s = result.durationUs / 1e6;
        std::printf("wall      : %.3f s host, %.0f completed "
                    "transfer(s)/host-sec, %.3f host-sec per "
                    "simulated-sec\n",
                    wall_s,
                    wall_s > 0.0 ? double(completed) / wall_s : 0.0,
                    sim_s > 0.0 ? wall_s / sim_s : 0.0);
        std::printf("\n%-14s %8s %8s %8s %8s %8s %10s\n", "protocol",
                    "offered", "seen", "complete", "rejected", "aborted",
                    "e2e-p50us");
        for (const ProtocolStats &row : result.protocols) {
            const double p50 = stats::percentileOfSorted(row.e2eUs, 50.0);
            std::printf("%-14s %8llu %8llu %8llu %8llu %8llu %10.3f\n",
                        row.protocol.c_str(),
                        static_cast<unsigned long long>(
                            row.offeredInitiations),
                        static_cast<unsigned long long>(row.opened),
                        static_cast<unsigned long long>(row.completed),
                        static_cast<unsigned long long>(row.rejected),
                        static_cast<unsigned long long>(row.aborted),
                        p50);
        }
        if (result.stallWindows > 0) {
            std::printf("\nWARNING: stall watchdog flagged %llu "
                        "no-progress window(s); diagnostics on stderr\n",
                        static_cast<unsigned long long>(
                            result.stallWindows));
        }
        // Worker busy/idle timeline: which pool thread ran which shard
        // and when (host clock — human diagnostics only, never
        // serialised into artifacts).
        if (run.plan.shards.size() > 1) {
            std::printf("\n%-6s %-6s %12s %12s %12s\n", "shard", "worker",
                        "start-ms", "busy-ms", "sim-us");
            for (const auto &row : run.workerTimeline()) {
                std::printf("%-6u %-6u %12.3f %12.3f %12.1f\n", row.shard,
                            row.worker, row.startMs,
                            row.endMs - row.startMs, row.simUs);
            }
        }
    }

    bool io_ok = true;
    const std::string report_path = opts.getString("report");
    if (!report_path.empty()) {
        const std::vector<ShardReportInfo> infos = run.shardInfos();
        io_ok &= writeOutput(report_path, [&](std::ostream &os) {
            writeWorkloadReport(os, scenario, result, /*pretty=*/true,
                                &infos);
        });
    }
    const std::string spans_path = opts.getString("spans-json");
    if (!spans_path.empty()) {
        io_ok &= writeOutput(spans_path, [&](std::ostream &os) {
            span::exportMergedSpansJson(os, run.shardSpans());
        });
    }
    const std::string stats_path = opts.getString("stats-json");
    if (!stats_path.empty()) {
        io_ok &= writeOutput(stats_path, [&](std::ostream &os) {
            stats::writeStatsJson(os, run.mergedStats());
        });
    }
    const std::string trace_path = opts.getString("trace-json");
    if (!trace_path.empty()) {
        io_ok &= writeOutput(trace_path, [&](std::ostream &os) {
            trace::exportMergedChromeTracing(os, run.shardTraces());
        });
    }
    const bool profile_host = opts.getFlag("profile-host-time");
    const std::string profile_path = opts.getString("profile-json");
    const std::string collapsed_path = opts.getString("profile-collapsed");
    if (!profile_path.empty() || !collapsed_path.empty()) {
        const prof::ProfileNode merged_profile = run.mergedProfile();
        if (!profile_path.empty()) {
            io_ok &= writeOutput(profile_path, [&](std::ostream &os) {
                prof::writeProfileJson(os, merged_profile, profile_host);
            });
        }
        if (!collapsed_path.empty()) {
            io_ok &= writeOutput(collapsed_path, [&](std::ostream &os) {
                prof::writeCollapsedProfile(os, merged_profile,
                                            profile_host);
            });
        }
    }

    if (!io_ok)
        return 2;
    return result.finished ? 0 : 1;
}
