/**
 * @file
 * Fuzzing-throughput exhibit: how many schedules per host-second the
 * coverage-guided fuzzer (docs/FUZZING.md) executes, and what a fixed
 * budget buys in coverage, for one representative config per engine
 * family plus a swarm campaign.  Every simulated number (execs,
 * coverage edges, corpus size, findings) is deterministic in the
 * --seed; only the host throughput metrics vary run to run, and their
 * names carry "host" so the bench-diff gate never tracks them
 * (docs/PERFORMANCE.md).
 */

#include "bench_common.hh"

#include <chrono>
#include <cstdio>

#include "check/fuzzer.hh"

namespace {

using namespace uldma;
using namespace uldma::check;

struct CampaignSpec
{
    const char *name;
    const char *protocol; ///< "" = swarm
    bool weakRing = false;
    bool weakCap = false;
    std::uint64_t budget = 250;
};

constexpr CampaignSpec kCampaigns[] = {
    {"fuzz/repeated", "repeated"},
    {"fuzz/ring_weakened", "ring", true, false},
    {"fuzz/cap_weakened", "cap", false, true},
    {"fuzz/swarm", ""},
};

FuzzConfig
campaignConfig(const CampaignSpec &spec, std::uint64_t budget)
{
    FuzzConfig config;
    config.seed = benchutil::seedBase();
    config.budgetSchedules = budget;
    config.maxPoints = 6;
    if (spec.protocol[0] == '\0') {
        config.swarm = true;
        return config;
    }
    config.runner.method = *protocolMethod(spec.protocol);
    config.runner.faults = true;
    config.runner.weakRing = spec.weakRing;
    config.runner.weakCap = spec.weakCap;
    return config;
}

struct CampaignSample
{
    FuzzReport report;
    double wallS = 0.0;
};

CampaignSample
runCampaign(const CampaignSpec &spec)
{
    CampaignSample sample;
    const auto start = std::chrono::steady_clock::now();
    sample.report = fuzz(campaignConfig(spec, spec.budget));
    sample.wallS =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return sample;
}

void
printExhibit(benchutil::Reporter &reporter)
{
    std::printf("Coverage-guided schedule fuzzing: fixed-budget "
                "campaigns (seed %llu)\n\n",
                static_cast<unsigned long long>(benchutil::seedBase()));
    std::printf("%-20s %8s %8s %8s %9s %14s\n", "campaign", "execs",
                "edges", "corpus", "findings", "host execs/s");
    for (const CampaignSpec &spec : kCampaigns) {
        const CampaignSample sample = runCampaign(spec);
        const FuzzReport &r = sample.report;
        const double perSec =
            sample.wallS > 0.0 ? static_cast<double>(r.execs) /
                                     sample.wallS
                               : 0.0;
        std::printf("%-20s %8llu %8llu %8llu %9llu %14.0f\n", spec.name,
                    static_cast<unsigned long long>(r.execs),
                    static_cast<unsigned long long>(r.coverageEdges),
                    static_cast<unsigned long long>(r.corpusSize),
                    static_cast<unsigned long long>(r.findings.size()),
                    perSec);

        auto &rec = reporter.record(spec.name);
        rec.config("protocol",
                   spec.protocol[0] == '\0' ? "swarm" : spec.protocol)
            .config("budget_schedules", std::to_string(spec.budget))
            .metric("execs", static_cast<double>(r.execs))
            .metric("coverage_edges",
                    static_cast<double>(r.coverageEdges))
            .metric("corpus", static_cast<double>(r.corpusSize))
            .metric("findings", static_cast<double>(r.findings.size()))
            .metric("expected_findings",
                    static_cast<double>(r.expectedFindings))
            .metric("host_execs_per_sec", perSec);
    }
    std::printf("\nSimulated columns are seed-deterministic; host "
                "execs/s is the only wall-clock number.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return uldma::benchutil::benchMain(argc, argv, printExhibit);
}
