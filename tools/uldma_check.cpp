/**
 * @file
 * uldma_check — the model-checker CLI (see docs/CHECKING.md).
 *
 * Explore mode: bounded-exhaustive search over preemption placements
 * for one protocol.  Exit 0 when every explored schedule upholds the
 * invariant catalog, exit 1 when a (shrunk) counterexample was found
 * — written to --report as a replayable uldma-schedule-v1 file.
 * --expect-violation inverts the verdict for fault-injection tests.
 *
 * Replay mode: --replay=FILE re-executes a recorded schedule and
 * compares the reproduced outcome against the recorded one; --report
 * re-serialises the reproduced document (byte-identical to the
 * original when the run reproduces).  A file whose boundary_space is
 * not the configuration's real one exits 2 before the run.
 *
 * Fuzz mode: --fuzz runs the coverage-guided mutational loop
 * (docs/FUZZING.md) instead of the exhaustive DFS; --swarm re-draws
 * protocol and fault flags every batch.  Findings are shrunk and the
 * first one is written to --report as a replayable repro;
 * --fuzz-report writes the strict uldma-fuzz-v1 campaign document.
 * Exit 0 unless a violation was found on a configuration with no
 * --weaken-* flag (a real bug); --expect-violation inverts: exit 0
 * iff at least one finding (for the seeded fault-injection soaks).
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

#include "check/explorer.hh"
#include "check/fuzzer.hh"
#include "check/runner.hh"
#include "check/schedule.hh"
#include "util/options.hh"
#include "util/output.hh"

namespace {

using namespace uldma;
using namespace uldma::check;

int
usageError(const std::string &msg)
{
    std::cerr << "uldma_check: " << msg << "\n";
    return 2;
}

/** "pal | key-based | ..." for the help and error text. */
std::string
protocolList()
{
    std::string list;
    for (const CheckedProtocol &p : checkedProtocols)
        list += (list.empty() ? "" : " | ") + std::string(p.token);
    return list;
}

bool
writeReport(const std::string &path, const Schedule &schedule,
            const Outcome &outcome)
{
    return writeOutput(path, [&](std::ostream &os) {
        writeScheduleJson(os, schedule, outcome);
    });
}

void
printViolations(const std::vector<Violation> &violations)
{
    for (const Violation &v : violations)
        std::cout << "  violated " << v.invariant << ": " << v.detail
                  << "\n";
}

int
replayMode(const std::string &path, const std::string &report)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return usageError("cannot read '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();

    Schedule schedule;
    Outcome recorded;
    std::string error;
    if (!parseScheduleJson(text.str(), schedule, recorded, &error))
        return usageError(path + ": " + error);

    // runSchedule asserts that every boundary lies inside the real
    // boundary space, so a file recording another one is refused
    // before the run (the empty schedule's run measures the space).
    const std::uint64_t space =
        runSchedule(schedule.config, {}).boundarySpace;
    if (space != schedule.boundarySpace) {
        return usageError(path + ": boundary_space " +
                          std::to_string(schedule.boundarySpace) +
                          " is not this configuration's " +
                          std::to_string(space));
    }
    const Outcome reproduced =
        runSchedule(schedule.config, schedule.preemptAfter).outcome;

    if (!report.empty() &&
        !writeReport(report, schedule, reproduced)) {
        return 2;
    }

    if (!(reproduced == recorded)) {
        std::cout << "replay DIVERGED from the recorded outcome\n";
        printViolations(reproduced.violations);
        return 1;
    }
    std::cout << "replay reproduced: "
              << protocolToken(schedule.config.method) << " with "
              << schedule.preemptAfter.size() << " preemption(s), "
              << reproduced.violations.size() << " violation(s)\n";
    printViolations(reproduced.violations);
    return 0;
}

int
fuzzMode(const FuzzConfig &config, const std::string &report,
         const std::string &fuzzReport, bool hostTime,
         bool expectViolation)
{
    const auto start = std::chrono::steady_clock::now();
    const FuzzReport result = fuzz(config);
    const auto wallNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());

    std::cout << (config.swarm ? "swarm" : "fuzz") << " seed "
              << config.seed << ": " << result.execs
              << " schedule(s) executed (+" << result.shrinkExecs
              << " shrinking), " << result.coverageEdges
              << " coverage edge(s), corpus " << result.corpusSize
              << ", " << result.configs.size() << " config(s)\n";
    for (const FuzzFinding &f : result.findings) {
        std::cout << (f.expected ? "expected" : "UNEXPECTED")
                  << " finding: "
                  << protocolToken(f.schedule.config.method)
                  << " at exec " << f.foundAtExec
                  << ", minimal schedule: preempt-after [";
        const std::vector<std::uint64_t> &pts = f.schedule.preemptAfter;
        for (std::size_t i = 0; i < pts.size(); ++i)
            std::cout << (i ? " " : "") << pts[i];
        std::cout << "]\n";
        printViolations(f.outcome.violations);
    }

    if (!fuzzReport.empty()) {
        const bool written = writeOutput(fuzzReport, [&](std::ostream &os) {
            if (hostTime) {
                const double perSec =
                    wallNs ? result.execs * 1e9 /
                                 static_cast<double>(wallNs)
                           : 0.0;
                writeFuzzJson(os, result, wallNs, perSec);
            } else {
                writeFuzzJson(os, result);
            }
        });
        if (!written)
            return 2;
        std::cout << "fuzz report written to " << fuzzReport << "\n";
    }
    if (!report.empty() && !result.findings.empty()) {
        const FuzzFinding &f = result.findings.front();
        if (!writeReport(report, f.schedule, f.outcome))
            return 2;
        std::cout << "repro written to " << report << "\n";
    }

    if (expectViolation)
        return result.findings.empty() ? 1 : 0;
    return result.unexpectedFindings > 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(
        "Systematic interleaving explorer for the DMA-initiation "
        "protocols (see docs/CHECKING.md).");
    opts.addString("protocol", "repeated", protocolList());
    opts.addInt("depth", 2, "max preemption points per schedule");
    opts.addFlag("faults", false,
                 "adversarial shadow traffic in every preemption gap");
    opts.addFlag("weaken", false,
                 "fault-inject a weakened sequence recognizer");
    opts.addFlag("weaken-ring", false,
                 "fault-inject a disabled ring frame check (requires "
                 "--protocol=ring)");
    opts.addFlag("iommu", false,
                 "route ring descriptors through the engine's IOMMU "
                 "(virtual-address descriptors)");
    opts.addFlag("weaken-iommu", false,
                 "fault-inject raw-address bypass on IOMMU faults "
                 "(implies --iommu)");
    opts.addFlag("weaken-cap", false,
                 "fault-inject a capability engine that starts "
                 "presentations without consulting the table "
                 "(requires --protocol=cap)");
    opts.addFlag("no-prune", false, "disable state-hash prefix pruning");
    opts.addInt("max-runs", 0, "cap on schedule executions (0 = none)");
    opts.addFlag("fuzz", false,
                 "coverage-guided mutational fuzzing instead of the "
                 "exhaustive DFS (docs/FUZZING.md)");
    opts.addInt("budget-schedules", 2000,
                "fuzz mode: total schedule executions");
    opts.addInt("seed", 0, "fuzz mode: PRNG seed (deterministic)");
    opts.addInt("max-points", 8,
                "fuzz mode: cap on preemption points per schedule");
    opts.addInt("batch-schedules", 64,
                "fuzz mode: schedules per (swarm) config batch");
    opts.addFlag("swarm", false,
                 "fuzz mode: re-draw protocol and fault flags every "
                 "batch");
    opts.addFlag("no-shrink", false,
                 "fuzz mode: skip greedy counterexample shrinking");
    opts.addString("fuzz-report", "",
                   "fuzz mode: write the uldma-fuzz-v1 campaign "
                   "report here");
    opts.addFlag("fuzz-host-time", false,
                 "fuzz mode: include wall_ns/execs_per_sec in the "
                 "fuzz report (breaks byte-determinism)");
    opts.addString("replay", "", "re-execute a uldma-schedule-v1 file");
    opts.addString("report", "",
                   "write the counterexample / reproduced schedule here");
    opts.addFlag("expect-violation", false,
                 "exit 0 iff a violation was found (for fault tests)");

    if (!opts.parse(argc, argv))
        return 2;
    if (!opts.positional().empty())
        return usageError("unexpected positional argument");

    const std::string replay = opts.getString("replay");
    const std::string report = opts.getString("report");
    if (!replay.empty()) {
        if (opts.getFlag("fuzz"))
            return usageError("--replay and --fuzz are exclusive");
        return replayMode(replay, report);
    }
    if (opts.getFlag("swarm") && !opts.getFlag("fuzz"))
        return usageError("--swarm requires --fuzz");

    const auto method = protocolMethod(opts.getString("protocol"));
    if (!method) {
        return usageError("unknown protocol '" +
                          opts.getString("protocol") + "' (" +
                          protocolList() + ")");
    }
    if (opts.getInt("depth") < 0)
        return usageError("depth must be >= 0");

    ExplorerConfig config;
    config.runner.method = *method;
    config.runner.faults = opts.getFlag("faults");
    config.runner.weakRecognizer = opts.getFlag("weaken");
    config.runner.weakRing = opts.getFlag("weaken-ring");
    config.runner.weakIommu = opts.getFlag("weaken-iommu");
    config.runner.useIommu =
        opts.getFlag("iommu") || config.runner.weakIommu;
    config.runner.weakCap = opts.getFlag("weaken-cap");
    if (const char *error = configFlagsError(config.runner))
        return usageError(error);

    if (opts.getFlag("fuzz")) {
        if (opts.getInt("budget-schedules") <= 0)
            return usageError("--budget-schedules must be > 0");
        if (opts.getInt("max-points") <= 0)
            return usageError("--max-points must be > 0");
        if (opts.getInt("batch-schedules") <= 0)
            return usageError("--batch-schedules must be > 0");
        if (opts.getInt("seed") < 0)
            return usageError("--seed must be >= 0");
        FuzzConfig fc;
        fc.runner = config.runner;
        fc.swarm = opts.getFlag("swarm");
        fc.seed = static_cast<std::uint64_t>(opts.getInt("seed"));
        fc.budgetSchedules =
            static_cast<std::uint64_t>(opts.getInt("budget-schedules"));
        fc.maxPoints =
            static_cast<unsigned>(opts.getInt("max-points"));
        fc.batchSchedules =
            static_cast<unsigned>(opts.getInt("batch-schedules"));
        fc.shrinkFindings = !opts.getFlag("no-shrink");
        return fuzzMode(fc, report, opts.getString("fuzz-report"),
                        opts.getFlag("fuzz-host-time"),
                        opts.getFlag("expect-violation"));
    }

    config.depth = static_cast<unsigned>(opts.getInt("depth"));
    config.prune = !opts.getFlag("no-prune");
    config.maxRuns = static_cast<std::uint64_t>(opts.getInt("max-runs"));

    const ExploreReport result = explore(config);

    std::cout << "protocol " << opts.getString("protocol") << ": "
              << result.runs << " schedule(s) executed, "
              << result.boundarySpace << " boundary position(s), depth "
              << config.depth << ", " << result.pruned
              << " prefix(es) pruned"
              << (result.exhausted ? "" : " [max-runs hit]") << "\n";

    const bool violated = result.counterexample.has_value();
    if (violated) {
        const Counterexample &cex = *result.counterexample;
        std::cout << "counterexample (shrunk to "
                  << cex.preemptAfter.size() << " preemption(s)):";
        for (std::uint64_t b : cex.preemptAfter)
            std::cout << " " << b;
        std::cout << "\n";
        printViolations(cex.result.outcome.violations);
        if (!report.empty()) {
            const Schedule schedule{config.runner, result.boundarySpace,
                                    cex.preemptAfter};
            if (!writeReport(report, schedule, cex.result.outcome))
                return 2;
            std::cout << "repro written to " << report << "\n";
        }
    } else {
        std::cout << "all explored schedules uphold the invariants\n";
    }

    if (opts.getFlag("expect-violation"))
        return violated ? 0 : 1;
    return violated ? 1 : 0;
}
