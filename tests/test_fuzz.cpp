/**
 * @file
 * The coverage-guided schedule fuzzer checked (src/check/fuzzer.hh):
 * seed determinism down to report bytes, coverage accounting and
 * curve monotonicity, rediscovery of the seeded --weaken-ring and
 * --weaken-cap violations with replay-exact shrunk findings, clean
 * configs staying clean, swarm-mode config drawing, and the repro
 * round trip through the uldma-schedule-v1 serializer and parsers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "check/fuzzer.hh"
#include "check/runner.hh"
#include "check/schedule.hh"
#include "sim/json.hh"

namespace uldma::check {
namespace {

FuzzConfig
ringWeakConfig()
{
    FuzzConfig config;
    config.runner.method = DmaMethod::Ring;
    config.runner.faults = true;
    config.runner.weakRing = true;
    config.seed = 1;
    config.budgetSchedules = 300;
    config.maxPoints = 4;
    return config;
}

std::string
reportBytes(const FuzzReport &report)
{
    std::ostringstream os;
    writeFuzzJson(os, report);
    return os.str();
}

// ---------------------------------------------------------------------
// Determinism.
// ---------------------------------------------------------------------

TEST(Fuzzer, SameSeedSameReportBytes)
{
    const FuzzReport a = fuzz(ringWeakConfig());
    const FuzzReport b = fuzz(ringWeakConfig());
    EXPECT_EQ(reportBytes(a), reportBytes(b));
}

TEST(Fuzzer, DifferentSeedsDiverge)
{
    FuzzConfig config = ringWeakConfig();
    const FuzzReport a = fuzz(config);
    config.seed = 2;
    const FuzzReport b = fuzz(config);
    // Equal budgets, different schedules: the coverage trajectories
    // must differ (equal ones would mean the seed is ignored).
    EXPECT_NE(reportBytes(a), reportBytes(b));
}

TEST(Fuzzer, SwarmSameSeedSameReportBytes)
{
    FuzzConfig config;
    config.swarm = true;
    config.seed = 3;
    config.budgetSchedules = 200;
    const FuzzReport a = fuzz(config);
    const FuzzReport b = fuzz(config);
    EXPECT_EQ(reportBytes(a), reportBytes(b));
}

// ---------------------------------------------------------------------
// Coverage accounting.
// ---------------------------------------------------------------------

TEST(Fuzzer, BudgetAndCoverageAccounting)
{
    FuzzConfig config;
    config.runner.method = DmaMethod::Repeated5;
    config.runner.faults = true;
    config.seed = 2;
    config.budgetSchedules = 150;
    const FuzzReport r = fuzz(config);

    EXPECT_EQ(r.execs, config.budgetSchedules);
    EXPECT_GT(r.coverageEdges, 0u);
    EXPECT_GE(r.corpusSize, 1u);  // the probe schedule is always novel
    EXPECT_LE(r.corpusSize, r.coverageEdges);
    ASSERT_EQ(r.configs.size(), 1u);
    EXPECT_EQ(r.configs[0].execs, r.execs);
    EXPECT_EQ(r.configs[0].corpus, r.corpusSize);
    EXPECT_GT(r.configs[0].boundarySpace, 0u);

    // The strong recognizer under adversarial traffic stays clean.
    EXPECT_TRUE(r.findings.empty());
    EXPECT_EQ(r.expectedFindings, 0u);
    EXPECT_EQ(r.unexpectedFindings, 0u);
}

TEST(Fuzzer, CoverageCurveIsMonotonic)
{
    const FuzzReport r = fuzz(ringWeakConfig());
    ASSERT_FALSE(r.curve.empty());
    for (std::size_t i = 1; i < r.curve.size(); ++i) {
        EXPECT_GT(r.curve[i].execs, r.curve[i - 1].execs);
        EXPECT_GE(r.curve[i].edges, r.curve[i - 1].edges);
        EXPECT_GE(r.curve[i].corpus, r.curve[i - 1].corpus);
    }
    EXPECT_EQ(r.curve.back().execs, r.execs);
    EXPECT_EQ(r.curve.back().edges, r.coverageEdges);
    EXPECT_EQ(r.curve.back().corpus, r.corpusSize);
}

// ---------------------------------------------------------------------
// Rediscovery of the seeded fault injections.
// ---------------------------------------------------------------------

TEST(Fuzzer, RediscoversWeakenedRingViolation)
{
    const FuzzReport r = fuzz(ringWeakConfig());
    ASSERT_FALSE(r.findings.empty());
    const FuzzFinding &f = r.findings.front();
    EXPECT_TRUE(f.expected);
    EXPECT_EQ(r.expectedFindings, r.findings.size());
    EXPECT_EQ(r.unexpectedFindings, 0u);

    const auto &vs = f.outcome.violations;
    EXPECT_TRUE(std::any_of(vs.begin(), vs.end(), [](const Violation &v) {
        return v.invariant == "ring-isolation";
    }));

    // The shrunk schedule replays to exactly the recorded outcome.
    const RunResult replay =
        runSchedule(f.schedule.config, f.schedule.preemptAfter);
    EXPECT_EQ(replay.boundarySpace, f.schedule.boundarySpace);
    EXPECT_TRUE(replay.outcome == f.outcome);
}

TEST(Fuzzer, RediscoversWeakenedCapViolation)
{
    FuzzConfig config;
    config.runner.method = DmaMethod::Cap;
    config.runner.faults = true;
    config.runner.weakCap = true;
    config.seed = 7;
    config.budgetSchedules = 400;
    const FuzzReport r = fuzz(config);

    ASSERT_FALSE(r.findings.empty());
    bool capInvariant = false;
    for (const FuzzFinding &f : r.findings) {
        EXPECT_TRUE(f.expected);
        for (const Violation &v : f.outcome.violations)
            capInvariant = capInvariant ||
                           v.invariant.rfind("cap-", 0) == 0;
        const RunResult replay =
            runSchedule(f.schedule.config, f.schedule.preemptAfter);
        EXPECT_TRUE(replay.outcome == f.outcome);
    }
    EXPECT_TRUE(capInvariant);
}

TEST(Fuzzer, ShrunkFindingIsMinimal)
{
    const FuzzReport r = fuzz(ringWeakConfig());
    ASSERT_FALSE(r.findings.empty());
    const Schedule &s = r.findings.front().schedule;
    ASSERT_FALSE(s.preemptAfter.empty());
    // Single-point removal must not preserve the violation (greedy
    // shrinking ran to a fixed point) unless already at one point.
    if (s.preemptAfter.size() > 1) {
        for (std::size_t i = 0; i < s.preemptAfter.size(); ++i) {
            std::vector<std::uint64_t> trial = s.preemptAfter;
            trial.erase(trial.begin() +
                        static_cast<std::ptrdiff_t>(i));
            const RunResult probe = runSchedule(s.config, trial);
            EXPECT_TRUE(probe.outcome.violations.empty());
        }
    }
}

// ---------------------------------------------------------------------
// Repro round trip.
// ---------------------------------------------------------------------

TEST(Fuzzer, FindingScheduleRoundTripsAsScheduleV1)
{
    const FuzzReport r = fuzz(ringWeakConfig());
    ASSERT_FALSE(r.findings.empty());
    const FuzzFinding &f = r.findings.front();
    const Schedule &s = f.schedule;
    EXPECT_EQ(s.config.method, DmaMethod::Ring);
    EXPECT_TRUE(s.config.faults);
    EXPECT_TRUE(s.config.weakRing);

    std::ostringstream os1, os2;
    writeScheduleJson(os1, s, f.outcome);
    writeScheduleJson(os2, s, f.outcome);
    EXPECT_EQ(os1.str(), os2.str());

    Schedule parsed;
    Outcome parsedOutcome;
    std::string error;
    ASSERT_TRUE(parseScheduleJson(os1.str(), parsed, parsedOutcome,
                                  &error))
        << error;
    EXPECT_EQ(parsed.config.method, s.config.method);
    EXPECT_EQ(parsed.config.weakRing, s.config.weakRing);
    EXPECT_EQ(parsed.boundarySpace, s.boundarySpace);
    EXPECT_EQ(parsed.preemptAfter, s.preemptAfter);
    EXPECT_TRUE(parsedOutcome == f.outcome);

    // The finding's row in the campaign report carries the same
    // members, read back by the same parsers: it is the repro file in
    // embedded form.
    const json::Value row = json::parse(reportBytes(r))["findings"][0];
    Schedule fromRow;
    Outcome rowOutcome;
    ASSERT_TRUE(parseScheduleMembers(row, fromRow, &error)) << error;
    ASSERT_TRUE(parseOutcome(row["outcome"], rowOutcome, &error)) << error;
    std::ostringstream os3;
    writeScheduleJson(os3, fromRow, rowOutcome);
    EXPECT_EQ(os3.str(), os1.str());
}

// ---------------------------------------------------------------------
// Swarm mode.
// ---------------------------------------------------------------------

TEST(Fuzzer, SwarmDrawsMultipleConfigs)
{
    FuzzConfig config;
    config.swarm = true;
    config.seed = 5;
    config.budgetSchedules = 400;
    const FuzzReport r = fuzz(config);

    EXPECT_GT(r.configs.size(), 1u);
    std::uint64_t execSum = 0, corpusSum = 0;
    for (const FuzzConfigStats &c : r.configs) {
        execSum += c.execs;
        corpusSum += c.corpus;
        if (c.config.useIommu) {
            EXPECT_EQ(c.config.method, DmaMethod::Ring);
        }
        if (c.config.weakRing || c.config.weakIommu) {
            EXPECT_EQ(c.config.method, DmaMethod::Ring);
        }
        if (c.config.weakCap) {
            EXPECT_EQ(c.config.method, DmaMethod::Cap);
        }
    }
    EXPECT_EQ(execSum, r.execs);
    EXPECT_EQ(corpusSum, r.corpusSize);

    // Every swarm finding stems from a fault-injected draw: the
    // un-weakened protocols must never violate (that would be a real
    // bug, counted as unexpected).
    EXPECT_EQ(r.unexpectedFindings, 0u);
    for (const FuzzFinding &f : r.findings)
        EXPECT_TRUE(configWeakened(f.schedule.config));
}

TEST(Fuzzer, ConfigWeakenedCountsOnlyFlagsTheProtocolReads)
{
    // Only the repeated-passing recognizer reads weakRecognizer.
    for (DmaMethod method : {DmaMethod::PalCode, DmaMethod::KeyBased,
                             DmaMethod::ExtShadow, DmaMethod::Ring,
                             DmaMethod::Cap}) {
        RunnerConfig c;
        c.method = method;
        c.weakRecognizer = true;
        EXPECT_FALSE(configWeakened(c)) << protocolToken(method);
    }

    RunnerConfig repeated;
    repeated.method = DmaMethod::Repeated5;
    repeated.weakRecognizer = true;
    EXPECT_TRUE(configWeakened(repeated));

    RunnerConfig ring;
    ring.method = DmaMethod::Ring;
    ring.weakRing = true;
    EXPECT_TRUE(configWeakened(ring));
    ring.weakRing = false;
    ring.useIommu = true;
    ring.weakIommu = true;
    EXPECT_TRUE(configWeakened(ring));

    RunnerConfig cap;
    cap.method = DmaMethod::Cap;
    cap.weakCap = true;
    EXPECT_TRUE(configWeakened(cap));
}

// ---------------------------------------------------------------------
// Mutation invariants: every schedule the fuzzer executed respected
// the runner's contract (observable through the findings).
// ---------------------------------------------------------------------

TEST(Fuzzer, FindingsRespectBoundaryContract)
{
    FuzzConfig config = ringWeakConfig();
    config.maxPoints = 3;
    const FuzzReport r = fuzz(config);
    for (const FuzzFinding &f : r.findings) {
        const Schedule &s = f.schedule;
        EXPECT_LE(s.preemptAfter.size(), config.maxPoints);
        EXPECT_TRUE(std::is_sorted(s.preemptAfter.begin(),
                                   s.preemptAfter.end()));
        for (std::uint64_t b : s.preemptAfter)
            EXPECT_LT(b, s.boundarySpace);
    }
}

TEST(Fuzzer, HostTimeMembersAreOptIn)
{
    FuzzConfig config = ringWeakConfig();
    config.budgetSchedules = 40;
    const FuzzReport r = fuzz(config);
    const std::string plain = reportBytes(r);
    EXPECT_EQ(plain.find("wall_ns"), std::string::npos);
    EXPECT_EQ(plain.find("execs_per_sec"), std::string::npos);

    std::ostringstream os;
    writeFuzzJson(os, r, 123456789u, 8000.5);
    const std::string timed = os.str();
    EXPECT_NE(timed.find("\"wall_ns\": 123456789"), std::string::npos);
    EXPECT_NE(timed.find("execs_per_sec"), std::string::npos);
}

} // namespace
} // namespace uldma::check
