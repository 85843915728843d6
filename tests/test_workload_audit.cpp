/**
 * @file
 * Every shipped scenario audited against the paper's safety claims.
 * Each scenario file runs at seeds 0 and 1 through runWorkload; on
 * every node, the kernel's grant ledger and the engine's initiation
 * records (check::grantArtifacts) go through check::checkInvariants.
 * A workload declares no per-transfer intent and has no victim, so
 * intent-match and status-honesty are not read; every other invariant
 * must hold.  The same adversarial mix on the unsafe 3-access
 * repeated-passing protocol shows that the audit is not vacuous.
 *
 * Scenario files are read from ULDMA_SCENARIO_DIR (injected by
 * tests/CMakeLists.txt as the source-tree scenarios/ directory), so a
 * new scenario file is audited too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariants.hh"
#include "core/machine.hh"
#include "workload/driver.hh"
#include "workload/scenario.hh"

namespace uldma::check {
namespace {

/** Per-invariant violation counts of one run, over all its nodes,
 *  without the two invariants a workload cannot state. */
std::map<std::string, unsigned>
auditRun(const workload::Scenario &scenario, std::uint64_t seed)
{
    std::vector<RunArtifacts> nodes;
    workload::WorkloadOptions options;
    options.inspectMachine = [&](Machine &machine) {
        for (unsigned n = 0; n < machine.numNodes(); ++n) {
            Node &node = machine.node(static_cast<NodeId>(n));
            nodes.push_back(
                grantArtifacts(node.kernel(), node.dmaEngine()));
        }
    };
    const workload::WorkloadResult result =
        workload::runWorkload(scenario, seed, options);

    std::map<std::string, unsigned> counts;
    for (RunArtifacts &art : nodes) {
        art.machineFinished = result.finished;
        for (const Violation &v : checkInvariants(art))
            ++counts[v.invariant];
    }
    counts.erase("intent-match");
    counts.erase("status-honesty");
    return counts;
}

std::string
describe(const std::map<std::string, unsigned> &counts)
{
    std::ostringstream os;
    for (const auto &[invariant, n] : counts)
        os << " " << invariant << "=" << n;
    return os.str();
}

workload::Scenario
load(const std::string &path)
{
    workload::Scenario scenario;
    std::string error;
    EXPECT_TRUE(workload::loadScenarioFile(path, scenario, &error))
        << path << ": " << error;
    return scenario;
}

TEST(WorkloadAudit, EveryShippedScenarioHoldsTheInvariants)
{
    std::vector<std::string> paths;
    for (const auto &entry :
         std::filesystem::directory_iterator(ULDMA_SCENARIO_DIR)) {
        if (entry.path().extension() == ".json")
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    EXPECT_GE(paths.size(), 9u);
    for (const std::string &path : paths) {
        const workload::Scenario scenario = load(path);
        for (std::uint64_t seed : {0, 1}) {
            SCOPED_TRACE(path + " seed " + std::to_string(seed));
            const auto counts = auditRun(scenario, seed);
            EXPECT_TRUE(counts.empty()) << "violations:" << describe(counts);
        }
    }
}

TEST(WorkloadAudit, UnsafeRepeated3AdversarialMixIsCaught)
{
    // Figure 5's hazard as sustained traffic: the hijacker's shadow
    // loads complete the victim's half-done 3-access sequences, so
    // transfers start with mixed arguments and outside the
    // initiator's frames.
    workload::Scenario scenario =
        load(std::string(ULDMA_SCENARIO_DIR) + "/adversarial_mix.json");
    for (workload::StreamSpec &stream : scenario.streams)
        stream.method = DmaMethod::Repeated3;
    const auto counts = auditRun(scenario, 0);
    SCOPED_TRACE("violations:" + describe(counts));
    EXPECT_GT(counts.count("initiation-atomicity"), 0u);
    EXPECT_GT(counts.count("protection"), 0u);
}

} // namespace
} // namespace uldma::check
