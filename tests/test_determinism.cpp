/**
 * @file
 * Determinism regression tests: the simulator must produce *bit-equal*
 * results across repeated runs with the same configuration and seed —
 * timings, initiation counts, attack outcomes, and stats.  This is
 * what makes every number in EXPERIMENTS.md reproducible.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/attack.hh"
#include "core/experiment.hh"
#include "sim/json.hh"
#include "sim/span.hh"
#include "sim/trace.hh"
#include "workload/driver.hh"
#include "workload/report.hh"
#include "workload/scenario.hh"

namespace uldma {
namespace {

TEST(Determinism, InitiationMeasurementIsExactlyRepeatable)
{
    MeasureConfig config;
    config.method = DmaMethod::KeyBased;
    config.iterations = 200;

    const InitiationMeasurement a = measureInitiation(config);
    const InitiationMeasurement b = measureInitiation(config);
    EXPECT_EQ(a.avgUs, b.avgUs);
    EXPECT_EQ(a.minUs, b.minUs);
    EXPECT_EQ(a.maxUs, b.maxUs);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.uncachedAccesses, b.uncachedAccesses);
}

TEST(Determinism, UserLevelInitiationHasZeroJitter)
{
    // A single process on a quiet machine: every initiation takes the
    // same number of ticks (after the first-touch TLB warmup, which
    // the slot cycling spreads over the first lap).
    MeasureConfig config;
    config.method = DmaMethod::ExtShadow;
    config.iterations = 300;
    const InitiationMeasurement m = measureInitiation(config);
    // min and max within the TLB-warmup spread.
    EXPECT_LT(m.maxUs - m.minUs, 1.0);
    // The bulk is flat: mean is within 10% of min.
    EXPECT_LT(m.avgUs, m.minUs * 1.10);
}

TEST(Determinism, RandomizedAttackIsSeedStable)
{
    RandomAttackConfig config;
    config.method = DmaMethod::Repeated3;
    config.seed = 17;
    config.legitIterations = 10;
    config.malOps = 40;
    config.malProcesses = 2;

    const RandomAttackResult a = runRandomizedAttack(config);
    const RandomAttackResult b = runRandomizedAttack(config);
    EXPECT_EQ(a.initiations, b.initiations);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.legitSuccesses, b.legitSuccesses);
    EXPECT_EQ(a.intendedTransfers, b.intendedTransfers);
}

TEST(Determinism, FigureAttacksAreStable)
{
    const AttackOutcome a = runFigure5Attack();
    const AttackOutcome b = runFigure5Attack();
    EXPECT_EQ(a.initiations, b.initiations);
    EXPECT_EQ(a.wrongSrc, b.wrongSrc);
    EXPECT_EQ(a.wrongDst, b.wrongDst);
    EXPECT_EQ(a.legitStatus, b.legitStatus);
}

TEST(Determinism, StatsDumpIsIdenticalAcrossRuns)
{
    auto run_once = []() {
        MachineConfig config;
        configureNode(config.node, DmaMethod::KeyBased);
        Machine machine(config);
        prepareMachine(machine, DmaMethod::KeyBased);
        Kernel &kernel = machine.node(0).kernel();
        Process &p = kernel.createProcess("p");
        prepareProcess(kernel, p, DmaMethod::KeyBased);
        const Addr src = kernel.allocate(p, pageSize, Rights::ReadWrite);
        const Addr dst = kernel.allocate(p, pageSize, Rights::ReadWrite);
        kernel.createShadowMappings(p, src, pageSize);
        kernel.createShadowMappings(p, dst, pageSize);
        Program prog;
        emitInitiation(prog, kernel, p, DmaMethod::KeyBased, src, dst,
                       256);
        prog.exit();
        kernel.launch(p, std::move(prog));
        machine.start();
        machine.run(tickPerSec);
        std::ostringstream os;
        machine.dumpStats(os);
        return os.str();
    };

    EXPECT_EQ(run_once(), run_once());
}

namespace {

/** One KeyBased burst; returns {stats JSON, chrome trace JSON}. */
std::pair<std::string, std::string>
runObservedOnce()
{
    trace::eventRing().enable(1024);

    MachineConfig config;
    configureNode(config.node, DmaMethod::KeyBased);
    Machine machine(config);
    prepareMachine(machine, DmaMethod::KeyBased);
    Kernel &kernel = machine.node(0).kernel();
    Process &p = kernel.createProcess("p");
    prepareProcess(kernel, p, DmaMethod::KeyBased);
    const Addr src = kernel.allocate(p, pageSize, Rights::ReadWrite);
    const Addr dst = kernel.allocate(p, pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(p, src, pageSize);
    kernel.createShadowMappings(p, dst, pageSize);
    Program prog;
    for (int i = 0; i < 4; ++i)
        emitInitiation(prog, kernel, p, DmaMethod::KeyBased, src, dst,
                       256);
    prog.exit();
    kernel.launch(p, std::move(prog));
    machine.start();
    machine.run(tickPerSec);

    std::ostringstream stats_os;
    machine.dumpStatsJson(stats_os);
    std::ostringstream trace_os;
    trace::eventRing().exportChromeTracing(trace_os);
    trace::eventRing().disable();
    return {stats_os.str(), trace_os.str()};
}

} // namespace

TEST(Determinism, StatsJsonIsByteIdenticalAcrossRuns)
{
    const auto a = runObservedOnce();
    const auto b = runObservedOnce();
    EXPECT_EQ(a.first, b.first);
    EXPECT_TRUE(json::valid(a.first));
}

TEST(Determinism, ChromeTraceIsByteIdenticalAcrossRuns)
{
    const auto a = runObservedOnce();
    const auto b = runObservedOnce();
    EXPECT_EQ(a.second, b.second);
    EXPECT_TRUE(json::valid(a.second));

    // The trace actually recorded events (initiations hit the engine).
    json::Value root = json::parse(a.second);
    EXPECT_GT(root["traceEvents"].size(), 0u);
}

namespace {

/** One ExtShadow burst with spans + sampling on; {spans, timeseries}. */
std::pair<std::string, std::string>
runSpannedOnce()
{
    span::tracker().enable();

    MachineConfig config;
    configureNode(config.node, DmaMethod::ExtShadow);
    Machine machine(config);
    prepareMachine(machine, DmaMethod::ExtShadow);
    machine.enableSampling(2 * tickPerUs);
    Kernel &kernel = machine.node(0).kernel();
    Process &p = kernel.createProcess("p");
    prepareProcess(kernel, p, DmaMethod::ExtShadow);
    const Addr src = kernel.allocate(p, 4 * pageSize, Rights::ReadWrite);
    const Addr dst = kernel.allocate(p, 4 * pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(p, src, 4 * pageSize);
    kernel.createShadowMappings(p, dst, 4 * pageSize);
    Program prog;
    for (int i = 0; i < 4; ++i)
        emitInitiation(prog, kernel, p, DmaMethod::ExtShadow,
                       src + i * pageSize, dst + i * pageSize, 256);
    prog.exit();
    kernel.launch(p, std::move(prog));
    machine.start();
    machine.run(tickPerSec);

    std::ostringstream spans_os;
    span::tracker().exportJson(spans_os);
    span::tracker().disable();
    std::ostringstream ts_os;
    machine.dumpTimeseriesJson(ts_os);
    return {spans_os.str(), ts_os.str()};
}

} // namespace

TEST(Determinism, SpansJsonIsByteIdenticalAcrossRuns)
{
    const auto a = runSpannedOnce();
    const auto b = runSpannedOnce();
    EXPECT_EQ(a.first, b.first);
    ASSERT_TRUE(json::valid(a.first));

    // And the capture is not vacuous: four completed spans.
    const json::Value root = json::parse(a.first);
    EXPECT_EQ(root["spans"].size(), 4u);
}

TEST(Determinism, TimeseriesJsonIsByteIdenticalAcrossRuns)
{
    const auto a = runSpannedOnce();
    const auto b = runSpannedOnce();
    EXPECT_EQ(a.second, b.second);
    ASSERT_TRUE(json::valid(a.second));

    const json::Value root = json::parse(a.second);
    EXPECT_EQ(root["schema"].asString(), "uldma-timeseries-v1");
    EXPECT_GT(root["samples"].size(), 0u);
}

namespace {

/** One batched ring drain with spans on; {spans JSON, stats dump}. */
std::pair<std::string, std::string>
runRingOnce()
{
    span::tracker().enable();

    MachineConfig config;
    configureNode(config.node, DmaMethod::Ring);
    Machine machine(config);
    prepareMachine(machine, DmaMethod::Ring);
    Kernel &kernel = machine.node(0).kernel();
    Process &p = kernel.createProcess("p");
    EXPECT_TRUE(kernel.setupRing(p, 4));
    const Addr src = kernel.allocate(p, 4 * pageSize, Rights::ReadWrite);
    const Addr dst = kernel.allocate(p, 4 * pageSize, Rights::ReadWrite);
    kernel.authorizeRingDma(p, src, 4 * pageSize);
    kernel.authorizeRingDma(p, dst, 4 * pageSize);

    Program prog;
    std::vector<RingTransfer> batch;
    for (int i = 0; i < 8; ++i) {
        batch.push_back({src + (i % 4) * pageSize,
                         dst + (i % 4) * pageSize, 256});
        if (batch.size() == 4) {
            emitRingBatch(prog, kernel, p, batch);
            batch.clear();
        }
    }
    prog.exit();
    kernel.launch(p, std::move(prog));
    machine.start();
    machine.run(tickPerSec);

    std::ostringstream spans_os;
    span::tracker().exportJson(spans_os);
    span::tracker().disable();
    std::ostringstream stats_os;
    machine.dumpStats(stats_os);
    return {spans_os.str(), stats_os.str()};
}

} // namespace

TEST(Determinism, RingBatchSpansAreByteIdenticalAcrossRuns)
{
    const auto a = runRingOnce();
    const auto b = runRingOnce();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
    ASSERT_TRUE(json::valid(a.first));

    // Not vacuous: all eight descriptors completed under the ring's
    // own protocol label.
    const json::Value root = json::parse(a.first);
    EXPECT_EQ(root["spans"].size(), 8u);
    for (const json::Value &s : root["spans"].asArray()) {
        EXPECT_EQ(s["protocol"].asString(), "ring");
        EXPECT_EQ(s["outcome"].asString(), "completed");
    }
}

TEST(Determinism, RingWorkloadReportIsByteIdenticalAcrossRuns)
{
    workload::Scenario scenario;
    std::string error;
    ASSERT_TRUE(workload::parseScenario(R"({
      "schema": "uldma-scenario-v1", "name": "ring-det", "nodes": 1,
      "streams": [
        {"name": "deep", "node": 0, "protocol": "ring",
         "queue_depth": 8, "initiations": 32,
         "size": {"kind": "uniform", "min": 8, "max": 512},
         "pacing": {"kind": "closed", "think_us": 1}},
        {"name": "keyed", "node": 0, "protocol": "key-based",
         "initiations": 16}]})",
                                        scenario, &error))
        << error;

    auto report_once = [&]() {
        const workload::WorkloadResult result =
            workload::runWorkload(scenario, 19);
        std::ostringstream os;
        workload::writeWorkloadReport(os, scenario, result);
        return os.str();
    };
    const std::string a = report_once();
    const std::string b = report_once();
    EXPECT_EQ(a, b);
    ASSERT_TRUE(json::valid(a));

    // The ring stream actually ran as ring traffic (no fallback).
    const json::Value root = json::parse(a);
    bool saw_ring = false;
    for (const json::Value &row : root["per_protocol"].asArray()) {
        if (row["protocol"].asString() != "ring")
            continue;
        saw_ring = true;
        EXPECT_EQ(row["completed"].asNumber(), 32.0);
    }
    EXPECT_TRUE(saw_ring);
    for (const json::Value &s : root["streams"].asArray()) {
        if (s["name"].asString() == "deep") {
            EXPECT_EQ(s["kernel_fallbacks"].asNumber(), 0.0);
        }
    }
}

TEST(Determinism, DisassemblyIsStable)
{
    MachineConfig config;
    configureNode(config.node, DmaMethod::Repeated5);
    Machine machine(config);
    prepareMachine(machine, DmaMethod::Repeated5);
    Kernel &kernel = machine.node(0).kernel();
    Process &p = kernel.createProcess("p");
    const Addr src = kernel.allocate(p, pageSize, Rights::ReadWrite);
    const Addr dst = kernel.allocate(p, pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(p, src, pageSize);
    kernel.createShadowMappings(p, dst, pageSize);

    Program prog;
    emitInitiation(prog, kernel, p, DmaMethod::Repeated5, src, dst, 64);
    const std::string listing = prog.disassemble();

    // Spot-check the figure-7 shape: two stores to the same shadow
    // destination, loads of the shadow source, barriers, branches.
    EXPECT_NE(listing.find("store"), std::string::npos);
    EXPECT_NE(listing.find("membar"), std::string::npos);
    EXPECT_NE(listing.find("beq"), std::string::npos);
    EXPECT_NE(listing.find("1: store shadow(dst)"), std::string::npos);
    EXPECT_NE(listing.find("5: load shadow(dst)"), std::string::npos);
    // 5 memory accesses + 3 membars + 3 branches = 11 lines.
    EXPECT_EQ(std::count(listing.begin(), listing.end(), '\n'), 11);
}

} // namespace
} // namespace uldma
