/**
 * @file
 * The model checker checked: invariant-catalog unit tests on
 * hand-built artifacts, the artifacts the kernel's grant ledger
 * yields, schedule-file round-tripping and strict
 * rejection, deterministic re-execution of single schedules, and
 * end-to-end exploration — clean protocols stay clean at a bounded
 * depth, and a weakened recognizer yields a shrunk counterexample
 * whose replay reproduces the recorded outcome exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "check/explorer.hh"
#include "check/invariants.hh"
#include "check/runner.hh"
#include "check/schedule.hh"
#include "core/machine.hh"
#include "core/methods.hh"
#include "sim/ticks.hh"

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
// The kernel's grant ledger, turned into artifacts.
// ---------------------------------------------------------------------

using Span = std::tuple<Addr, Addr, bool, bool>;

std::vector<Span>
spans(const std::vector<FrameSpan> &in)
{
    std::vector<Span> out;
    for (const FrameSpan &s : in)
        out.emplace_back(s.base, s.bytes, s.read, s.write);
    return out;
}

MachineConfig
nodeConfig(DmaMethod method)
{
    MachineConfig config;
    configureNode(config.node, method);
    return config;
}

TEST(GrantArtifacts, FramesAndContextsComeFromTheLedger)
{
    MachineConfig config = nodeConfig(DmaMethod::ExtShadow);
    config.numNodes = 2;
    Machine machine(config);
    Kernel &kernel = machine.node(0).kernel();
    Process &a = kernel.createProcess("a");
    Process &b = kernel.createProcess("b");
    ASSERT_TRUE(kernel.grantShadowContext(a));
    ASSERT_TRUE(kernel.grantShadowContext(b));
    const Addr buf = kernel.allocate(a, 2 * pageSize, Rights::ReadWrite);
    const Addr paddr = kernel.translateFor(a, buf, Rights::Read).paddr;
    kernel.mapShared(a, buf + pageSize, pageSize, b, Rights::Read);
    const Addr window = kernel.mapRemoteWindow(b, 1, 0x40000, pageSize,
                                               Rights::Write);
    const Addr window_paddr =
        kernel.translateFor(b, window, Rights::Write).paddr;

    const RunArtifacts art =
        grantArtifacts(kernel, machine.node(0).dmaEngine());
    EXPECT_EQ(spans(art.frames.at(a.pid())),
              (std::vector<Span>{{paddr, 2 * pageSize, true, true}}));
    EXPECT_EQ(spans(art.frames.at(b.pid())),
              (std::vector<Span>{{paddr + pageSize, pageSize, true, false},
                                 {window_paddr, pageSize, false, true}}));
    EXPECT_EQ(art.ctxOwner,
              (std::map<unsigned, Pid>{{0, a.pid()}, {1, b.pid()}}));
    EXPECT_TRUE(art.ringFrames.empty());
    EXPECT_FALSE(art.iommuEnabled);
    EXPECT_FALSE(art.capEnabled);
    EXPECT_TRUE(art.initiations.empty());
}

TEST(GrantArtifacts, RingAndIommuFramesComeFromTheLedger)
{
    MachineConfig config = nodeConfig(DmaMethod::Ring);
    config.node.dma.iommu.enabled = true;
    Machine machine(config);
    Kernel &kernel = machine.node(0).kernel();
    Process &p = kernel.createProcess("p");
    ASSERT_TRUE(kernel.setupRing(p, 4));
    const unsigned ctx = *p.dmaGrant().keyContext;
    const Addr buf = kernel.allocate(p, pageSize, Rights::Read);
    const Addr paddr = kernel.translateFor(p, buf, Rights::Read).paddr;
    kernel.authorizeRingDma(p, buf, pageSize);
    EXPECT_TRUE(kernel.iommuMapRange(p, buf, pageSize, /*pin=*/false));

    const RunArtifacts art =
        grantArtifacts(kernel, machine.node(0).dmaEngine());
    EXPECT_TRUE(art.iommuEnabled);
    EXPECT_EQ(art.ctxOwner.at(ctx), p.pid());
    // setupRing authorizes and maps the descriptor and completion
    // pages first; the buffer comes last, with its own rights in the
    // I/O page table.
    ASSERT_EQ(art.ringFrames.at(ctx).size(), 3u);
    EXPECT_EQ(spans(art.ringFrames.at(ctx)).back(),
              (Span{paddr, pageSize, true, true}));
    ASSERT_EQ(art.iommuFrames.at(ctx).size(), 3u);
    EXPECT_EQ(spans(art.iommuFrames.at(ctx)).back(),
              (Span{paddr, pageSize, true, false}));
}

TEST(GrantArtifacts, CapabilityGrantsComeFromTheLedger)
{
    MachineConfig config = nodeConfig(DmaMethod::Cap);
    config.node.dma.cap.maxSpansPerSlot = 2;
    Machine machine(config);
    Kernel &kernel = machine.node(0).kernel();
    const DmaEngine &engine = machine.node(0).dmaEngine();
    Process &owner = kernel.createProcess("owner");
    Process &other = kernel.createProcess("other");
    const Addr src = kernel.allocate(owner, pageSize, Rights::ReadWrite);
    const Addr dst = kernel.allocate(owner, pageSize, Rights::ReadWrite);
    const Addr third = kernel.allocate(owner, pageSize, Rights::ReadWrite);
    const int granted = kernel.capGrant(owner, src, pageSize, 0);
    ASSERT_GE(granted, 0);
    const unsigned slot = static_cast<unsigned>(granted);
    ASSERT_TRUE(kernel.capExtend(owner, slot, dst, pageSize));

    // Refused grants and a refused extension record nothing: a bad
    // rate class, a range running into the unmapped guard page (the
    // rollback path), and a span past maxSpansPerSlot.
    const std::size_t before = kernel.grants().size();
    EXPECT_EQ(kernel.capGrant(owner, src, pageSize, 99), -1);
    EXPECT_EQ(kernel.capGrant(owner, src, 2 * pageSize, 0), -1);
    EXPECT_FALSE(kernel.capExtend(owner, slot, third, pageSize));
    EXPECT_EQ(kernel.grants().size(), before);

    ASSERT_TRUE(kernel.capDelegate(owner, slot, other));
    RunArtifacts art = grantArtifacts(kernel, engine);
    EXPECT_TRUE(art.capEnabled);
    EXPECT_EQ(art.capSlotOwner,
              (std::map<unsigned, Pid>{{slot, owner.pid()}}));
    const Addr src_p = kernel.translateFor(owner, src, Rights::Read).paddr;
    const Addr dst_p = kernel.translateFor(owner, dst, Rights::Read).paddr;
    EXPECT_EQ(spans(art.capSpans.at(slot)),
              (std::vector<Span>{{src_p, pageSize, true, true},
                                 {dst_p, pageSize, true, true}}));
    EXPECT_EQ(art.capDelegates.at(slot), std::vector<Pid>{other.pid()});
    EXPECT_TRUE(art.capRevoked.empty());

    // A revocation strikes the delegates and marks the slot.
    ASSERT_TRUE(kernel.capRevoke(owner, slot));
    art = grantArtifacts(kernel, engine);
    EXPECT_TRUE(art.capDelegates.empty());
    EXPECT_EQ(art.capRevoked, std::vector<unsigned>{slot});
    EXPECT_EQ(art.capSlotOwner.at(slot), owner.pid());
}

TEST(GrantArtifacts, ContextGrantedToTwoProcessesPanics)
{
    Machine machine(nodeConfig(DmaMethod::KeyBased));
    Kernel &kernel = machine.node(0).kernel();
    Process &a = kernel.createProcess("a");
    Process &b = kernel.createProcess("b");
    ASSERT_TRUE(kernel.grantKeyContext(a));
    kernel.revokeKeyContext(a);
    ASSERT_TRUE(kernel.grantKeyContext(b));   // the same register context
    EXPECT_DEATH(grantArtifacts(kernel, machine.node(0).dmaEngine()),
                 "context id 0 was granted to pid1 and to pid2");
}

TEST(GrantArtifacts, KeyContextAndContextIdOfTwoProcessesPanics)
{
    // ctxOwner is one map for both kinds of context.
    Machine machine(nodeConfig(DmaMethod::KeyBased));
    Kernel &kernel = machine.node(0).kernel();
    Process &a = kernel.createProcess("a");
    Process &b = kernel.createProcess("b");
    ASSERT_TRUE(kernel.grantKeyContext(a));
    ASSERT_TRUE(kernel.grantShadowContext(b));
    EXPECT_DEATH(grantArtifacts(kernel, machine.node(0).dmaEngine()),
                 "context id 0 was granted to pid1 and to pid2");
}

TEST(GrantArtifacts, CapabilitySlotGrantedToTwoProcessesPanics)
{
    // Exit-time reaping frees the slot, and the ledger keeps the
    // first owner, so a later grant of the same slot is a second one.
    Machine machine(nodeConfig(DmaMethod::Cap));
    Kernel &kernel = machine.node(0).kernel();
    Process &a = kernel.createProcess("a");
    const Addr abuf = kernel.allocate(a, pageSize, Rights::ReadWrite);
    ASSERT_EQ(kernel.capGrant(a, abuf, pageSize, 0), 0);
    Program prog;
    prog.exit();
    kernel.launch(a, std::move(prog));
    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));

    Process &b = kernel.createProcess("b");
    const Addr bbuf = kernel.allocate(b, pageSize, Rights::ReadWrite);
    ASSERT_EQ(kernel.capGrant(b, bbuf, pageSize, 0), 0);
    EXPECT_DEATH(grantArtifacts(kernel, machine.node(0).dmaEngine()),
                 "capability slot 0 was granted to pid1 and to pid2");
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
