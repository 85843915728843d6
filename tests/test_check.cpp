/**
 * @file
 * The model checker checked: invariant-catalog unit tests on
 * hand-built artifacts, schedule-file round-tripping and strict
 * rejection, deterministic re-execution of single schedules, and
 * end-to-end exploration — clean protocols stay clean at a bounded
 * depth, and a weakened recognizer yields a shrunk counterexample
 * whose replay reproduces the recorded outcome exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "check/explorer.hh"
#include "check/invariants.hh"
#include "check/runner.hh"
#include "check/schedule.hh"

namespace uldma::check {
namespace {

// ---------------------------------------------------------------------
// Invariant catalog.
// ---------------------------------------------------------------------

/// A minimal clean run: the victim initiated exactly what it asked
/// for, inside its own frames, and the payload arrived.
RunArtifacts
cleanArtifacts()
{
    RunArtifacts a;
    a.method = DmaMethod::Repeated5;
    a.initiations.push_back(
        {0, EngineMode::Repeated5, 0x10000, 0x20000, 192, 0, false, false,
         {1}});
    a.allowed.push_back({1, 0x10000, 0x20000, 192});
    a.frames[1] = {{0x10000, 0x2000, true, true},
                   {0x20000, 0x2000, true, true}};
    a.ctxOwner[0] = 1;
    a.machineFinished = true;
    a.victimFinished = true;
    a.victimStatus = dmastatus::ok;
    a.payloadDelivered = true;
    return a;
}

bool
violates(const std::vector<Violation> &vs, const std::string &name)
{
    return std::any_of(vs.begin(), vs.end(), [&](const Violation &v) {
        return v.invariant == name;
    });
}

TEST(Invariants, CleanRunHasNoViolations)
{
    EXPECT_TRUE(checkInvariants(cleanArtifacts()).empty());
}

TEST(Invariants, MixedContributorsViolateAtomicity)
{
    RunArtifacts a = cleanArtifacts();
    a.initiations[0].contributors = {1, 1, 2, 2, 2};
    const auto vs = checkInvariants(a);
    EXPECT_TRUE(violates(vs, "initiation-atomicity"));
}

TEST(Invariants, TransferOutsideFramesViolatesProtection)
{
    RunArtifacts a = cleanArtifacts();
    a.initiations[0].dst = 0x700000;   // no frame there
    a.allowed[0].dst = 0x700000;       // even if "asked for"
    const auto vs = checkInvariants(a);
    EXPECT_TRUE(violates(vs, "protection"));
}

TEST(Invariants, UnrequestedTransferViolatesIntent)
{
    RunArtifacts a = cleanArtifacts();
    a.initiations[0].size = 48;        // nobody asked for 48 bytes
    const auto vs = checkInvariants(a);
    EXPECT_TRUE(violates(vs, "intent-match"));
}

TEST(Invariants, ForeignContextViolatesKeySecrecy)
{
    RunArtifacts a = cleanArtifacts();
    a.ctxOwner[0] = 2;                 // ctx 0 belongs to pid 2
    const auto vs = checkInvariants(a);
    EXPECT_TRUE(violates(vs, "key-secrecy"));
}

TEST(Invariants, SuccessWithoutPayloadViolatesStatusHonesty)
{
    RunArtifacts a = cleanArtifacts();
    a.payloadDelivered = false;
    const auto vs = checkInvariants(a);
    EXPECT_TRUE(violates(vs, "status-honesty"));
}

TEST(Invariants, FailureStatusNeedsNoPayload)
{
    RunArtifacts a = cleanArtifacts();
    a.initiations.clear();
    a.payloadDelivered = false;
    a.victimStatus = dmastatus::failure;   // honest failure
    EXPECT_TRUE(checkInvariants(a).empty());
}

TEST(Invariants, UnfinishedMachineViolatesProgress)
{
    RunArtifacts a = cleanArtifacts();
    a.machineFinished = false;
    const auto vs = checkInvariants(a);
    EXPECT_TRUE(violates(vs, "no-progress"));
}

TEST(Invariants, KernelInitiationsAreExempt)
{
    RunArtifacts a = cleanArtifacts();
    a.initiations[0].viaKernel = true;
    a.initiations[0].contributors = {1, 2};   // would violate atomicity
    a.allowed.clear();                        // and intent-match
    a.victimStatus = dmastatus::failure;
    EXPECT_TRUE(checkInvariants(a).empty());
}

// ---------------------------------------------------------------------
// Schedule files.
// ---------------------------------------------------------------------

TEST(ScheduleJson, RoundTripIsByteIdentical)
{
    Schedule s;
    s.config.method = DmaMethod::Repeated5;
    s.config.faults = true;
    s.config.weakRecognizer = true;
    s.boundarySpace = 12;
    s.preemptAfter = {2, 2, 7};
    Outcome o;
    o.finished = true;
    o.status = ~std::uint64_t(0);
    o.initiations = 2;
    o.stateHash = 0xdeadbeefcafef00dULL;
    o.violations = {{"initiation-atomicity", "mixed: pid1 pid2"}};

    std::ostringstream first;
    writeScheduleJson(first, s, o);

    Schedule s2;
    Outcome o2;
    std::string error;
    ASSERT_TRUE(parseScheduleJson(first.str(), s2, o2, &error)) << error;
    EXPECT_EQ(s2.config.method, s.config.method);
    EXPECT_EQ(s2.config.faults, s.config.faults);
    EXPECT_EQ(s2.config.weakRecognizer, s.config.weakRecognizer);
    EXPECT_EQ(s2.boundarySpace, s.boundarySpace);
    EXPECT_EQ(s2.preemptAfter, s.preemptAfter);
    EXPECT_EQ(o2, o);

    std::ostringstream second;
    writeScheduleJson(second, s2, o2);
    EXPECT_EQ(first.str(), second.str());
}

TEST(ScheduleJson, HexCoversFullRange)
{
    for (std::uint64_t v : {std::uint64_t(0), std::uint64_t(1),
                            std::uint64_t(0x123456789abcdef0ULL),
                            ~std::uint64_t(0)}) {
        std::uint64_t back = 0;
        ASSERT_TRUE(parseHex(toHex(v), back));
        EXPECT_EQ(back, v);
    }
    std::uint64_t v = 0;
    EXPECT_FALSE(parseHex("123", v));          // missing 0x
    EXPECT_FALSE(parseHex("0x", v));           // no digits
    EXPECT_FALSE(parseHex("0xZZ", v));         // not hex
    EXPECT_FALSE(parseHex("0x10000000000000000", v));   // overflow
    // More than 16 digits is refused even when the value would fit.
    EXPECT_FALSE(parseHex("0x00000000000000001", v));
    EXPECT_FALSE(parseHex("0x0000000000000000001", v));
}

std::string
validScheduleText()
{
    Schedule s;
    s.config.method = DmaMethod::Repeated5;
    s.boundarySpace = 12;
    s.preemptAfter = {2};
    std::ostringstream os;
    writeScheduleJson(os, s, Outcome{});
    return os.str();
}

TEST(ScheduleJson, RejectsMalformedDocuments)
{
    Schedule s;
    Outcome o;
    std::string error;

    // Wrong / suffixed schema strings.
    for (const char *schema :
         {"uldma-spans-v1", "uldma-schedule-v1x", "uldma-schedule-v2"}) {
        std::string text = validScheduleText();
        const std::string from = "\"uldma-schedule-v1\"";
        text.replace(text.find(from), from.size(),
                     std::string("\"") + schema + "\"");
        EXPECT_FALSE(parseScheduleJson(text, s, o, &error)) << schema;
    }

    // Unknown protocol.
    {
        std::string text = validScheduleText();
        const std::string from = "\"repeated\"";
        text.replace(text.find(from), from.size(), "\"telepathy\"");
        EXPECT_FALSE(parseScheduleJson(text, s, o, &error));
    }

    // Decreasing boundaries (the writer serialises whatever it is
    // given; the parser must refuse).
    {
        Schedule bad;
        bad.config.method = DmaMethod::Repeated5;
        bad.boundarySpace = 12;
        bad.preemptAfter = {5, 2};
        std::ostringstream os;
        writeScheduleJson(os, bad, Outcome{});
        EXPECT_FALSE(parseScheduleJson(os.str(), s, o, &error));
    }

    // Boundary outside the recorded space.
    {
        Schedule bad;
        bad.config.method = DmaMethod::Repeated5;
        bad.boundarySpace = 2;
        bad.preemptAfter = {99};
        std::ostringstream os;
        writeScheduleJson(os, bad, Outcome{});
        EXPECT_FALSE(parseScheduleJson(os.str(), s, o, &error));
    }

    // Counts must be non-negative integers that fit in uint64_t: a
    // fraction would be truncated, and casting a negative or too
    // large double is undefined.  2^64 itself is one past the range.
    const auto withField = [](const std::string &from,
                              const std::string &to) {
        std::string text = validScheduleText();
        const std::size_t at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return text.replace(at, from.size(), to);
    };
    for (const char *v : {"12.5", "-1", "1e30", "18446744073709551616"}) {
        EXPECT_FALSE(parseScheduleJson(
            withField("\"boundary_space\": 12",
                      std::string("\"boundary_space\": ") + v),
            s, o, &error))
            << "boundary_space " << v;
        EXPECT_FALSE(parseScheduleJson(
            withField("\"initiations\": 0",
                      std::string("\"initiations\": ") + v),
            s, o, &error))
            << "initiations " << v;
    }
    for (const char *v : {"2.5", "-1", "-0.5", "1e30"}) {
        EXPECT_FALSE(parseScheduleJson(
            withField("\"preempt_after\": [\n    2",
                      std::string("\"preempt_after\": [\n    ") + v),
            s, o, &error))
            << "preempt_after " << v;
    }
    // Unknown members are refused at every level, a misspelled
    // optional flag included.
    for (const auto &[from, to] :
         {std::pair<std::string, std::string>{
              "\"faults\"", "\"weakend_ring\": false,\n  \"faults\""},
          {"\"finished\"", "\"extra\": 1,\n    \"finished\""}}) {
        EXPECT_FALSE(parseScheduleJson(withField(from, to), s, o, &error))
            << to;
        EXPECT_NE(error.find("unknown member"), std::string::npos) << error;
    }
    {
        Outcome with_violation;
        with_violation.violations = {{"protection", "detail"}};
        Schedule good;
        good.config.method = DmaMethod::Repeated5;
        good.boundarySpace = 12;
        std::ostringstream os;
        writeScheduleJson(os, good, with_violation);
        std::string text = os.str();
        const std::string from = "\"detail\": \"detail\"";
        text.replace(text.find(from), from.size(), from + ", \"x\": 1");
        EXPECT_FALSE(parseScheduleJson(text, s, o, &error));
        EXPECT_NE(error.find("unknown member"), std::string::npos) << error;
    }

    // Every schedule file has faults and weakened_recognizer; the flags
    // that postdate them may be absent and read as false.
    EXPECT_FALSE(parseScheduleJson(withField("\"faults\": false,\n  ", ""),
                                   s, o, &error));
    ASSERT_TRUE(parseScheduleJson(
        withField("\"weakened_cap\": false,\n  ", ""), s, o, &error))
        << error;
    EXPECT_FALSE(s.config.weakCap);

    // The largest double below 2^64 still fits.
    ASSERT_TRUE(parseScheduleJson(
        withField("\"initiations\": 0",
                  "\"initiations\": 18446744073709549568"),
        s, o, &error))
        << error;
    EXPECT_EQ(o.initiations, 18446744073709549568ULL);

    EXPECT_FALSE(parseScheduleJson("not json at all", s, o, &error));
    EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------
// Runner determinism.
// ---------------------------------------------------------------------

TEST(CheckRunner, SameScheduleReproducesExactly)
{
    RunnerConfig config;
    config.method = DmaMethod::Repeated5;
    config.faults = true;
    const std::vector<std::uint64_t> pts = {2, 5};

    const RunResult a = runSchedule(config, pts);
    const RunResult b = runSchedule(config, pts);
    EXPECT_TRUE(a.outcome.finished);
    EXPECT_EQ(a.boundarySpace, b.boundarySpace);
    EXPECT_EQ(a.boundaryHashes, b.boundaryHashes);
    EXPECT_EQ(a.outcome, b.outcome);
    // Both preemptions were actually delivered and hashed.
    EXPECT_EQ(a.boundaryHashes.size(), pts.size());
}

TEST(CheckRunner, BoundarySpaceMatchesInitiationLength)
{
    // Repeated5 emits an 11-op initiation sequence, so the checker has
    // 12 distinct preemption positions (before op 0 .. after op 10).
    RunnerConfig config;
    config.method = DmaMethod::Repeated5;
    const RunResult r = runSchedule(config, {});
    EXPECT_EQ(r.boundarySpace, 12u);
    EXPECT_TRUE(r.outcome.finished);
    EXPECT_TRUE(r.outcome.violations.empty());
    EXPECT_EQ(r.outcome.initiations, 1u);
    EXPECT_EQ(r.outcome.status, dmastatus::ok);
}

TEST(CheckRunner, SoloRunsOfAllProtocolsAreClean)
{
    for (const auto &[token, method] : checkedProtocols) {
        EXPECT_EQ(protocolMethod(token), method);
        EXPECT_STREQ(protocolToken(method), token);
        RunnerConfig config;
        config.method = method;
        const RunResult r = runSchedule(config, {});
        EXPECT_TRUE(r.outcome.finished) << token;
        EXPECT_TRUE(r.outcome.violations.empty()) << token;
        EXPECT_EQ(r.outcome.initiations, 1u) << token;
    }
}

// ---------------------------------------------------------------------
// Exploration.
// ---------------------------------------------------------------------

TEST(Explorer, RepeatedProtocolCleanUnderAdversary)
{
    ExplorerConfig config;
    config.runner.method = DmaMethod::Repeated5;
    config.runner.faults = true;
    config.depth = 2;
    const ExploreReport report = explore(config);
    EXPECT_TRUE(report.exhausted);
    EXPECT_FALSE(report.counterexample.has_value());
    EXPECT_GT(report.runs, report.boundarySpace);
}

TEST(Explorer, PruningOnlySkipsRedundantRuns)
{
    ExplorerConfig pruned;
    pruned.runner.method = DmaMethod::KeyBased;
    pruned.runner.faults = true;
    pruned.depth = 2;
    ExplorerConfig full = pruned;
    full.prune = false;

    const ExploreReport a = explore(pruned);
    const ExploreReport b = explore(full);
    EXPECT_EQ(a.counterexample.has_value(), b.counterexample.has_value());
    EXPECT_LE(a.runs, b.runs);
    EXPECT_EQ(b.pruned, 0u);
}

TEST(Explorer, MaxRunsStopsTheSearch)
{
    ExplorerConfig config;
    config.runner.method = DmaMethod::Repeated5;
    config.depth = 3;
    config.maxRuns = 5;
    const ExploreReport report = explore(config);
    EXPECT_FALSE(report.exhausted);
    EXPECT_LE(report.runs, 5u);
}

TEST(Explorer, WeakenedRecognizerYieldsMinimalCounterexample)
{
    ExplorerConfig config;
    config.runner.method = DmaMethod::Repeated5;
    config.runner.faults = true;
    config.runner.weakRecognizer = true;
    config.depth = 2;
    const ExploreReport report = explore(config);
    ASSERT_TRUE(report.counterexample.has_value());
    const Counterexample &cex = *report.counterexample;

    // Shrinking got it down to a single preemption point.
    EXPECT_EQ(cex.preemptAfter.size(), 1u);
    EXPECT_FALSE(cex.result.outcome.violations.empty());

    // The recorded outcome replays exactly.
    const RunResult replay = runSchedule(config.runner, cex.preemptAfter);
    EXPECT_EQ(replay.outcome, cex.result.outcome);
    EXPECT_TRUE(violates(replay.outcome.violations, "initiation-atomicity"));
    EXPECT_TRUE(violates(replay.outcome.violations, "intent-match"));

    // ...and serialises to the same bytes both times.
    const Schedule schedule{config.runner, cex.result.boundarySpace,
                            cex.preemptAfter};
    std::ostringstream first, second;
    writeScheduleJson(first, schedule, cex.result.outcome);
    writeScheduleJson(second, schedule, replay.outcome);
    EXPECT_EQ(first.str(), second.str());
}

TEST(Explorer, StrongRecognizerSurvivesTheSameSchedules)
{
    // The exact configuration that breaks the weakened recognizer is
    // harmless against the real §3.3 recognizer.
    ExplorerConfig config;
    config.runner.method = DmaMethod::Repeated5;
    config.runner.faults = true;
    config.depth = 2;
    const ExploreReport report = explore(config);
    EXPECT_FALSE(report.counterexample.has_value());
}

} // namespace
} // namespace uldma::check
