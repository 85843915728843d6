/**
 * @file
 * Tests for the core public API: method traits, the DmaSession facade,
 * the experiment drivers (which the Table-1 bench builds on), the
 * wire-time model used by the crossover exhibit, and Machine::run's
 * inline CPU path and its poll fast-forward.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <vector>

#include "core/experiment.hh"
#include "core/machine.hh"
#include "core/methods.hh"
#include "prof/profiler.hh"
#include "sim/trace.hh"

namespace uldma {
namespace {

// ---------------------------------------------------------------------
// Method traits.
// ---------------------------------------------------------------------

TEST(MethodTraits, KernelModificationFlags)
{
    // The paper's central claim: only the SHRIMP-2 and FLASH baselines
    // need the kernel changed.
    for (DmaMethod m : allMethods) {
        const bool needs_mod = requiresKernelModification(m);
        EXPECT_EQ(needs_mod,
                  m == DmaMethod::Shrimp2 || m == DmaMethod::Flash)
            << toString(m);
    }
}

TEST(MethodTraits, UserLevelFlags)
{
    for (DmaMethod m : allMethods)
        EXPECT_EQ(isUserLevel(m), m != DmaMethod::Kernel) << toString(m);
}

TEST(MethodTraits, AccessCountsMatchThePaper)
{
    // Abstract: "a DMA operation can be initiated in 2 to 5 assembly
    // instructions" — these are the shadow/register accesses.
    EXPECT_EQ(initiationAccessCount(DmaMethod::ExtShadow), 2u);
    EXPECT_EQ(initiationAccessCount(DmaMethod::PalCode), 2u);
    EXPECT_EQ(initiationAccessCount(DmaMethod::KeyBased), 4u);
    EXPECT_EQ(initiationAccessCount(DmaMethod::Repeated5), 5u);
    EXPECT_EQ(initiationAccessCount(DmaMethod::Shrimp1), 1u);
    for (DmaMethod m : allMethods) {
        if (isUserLevel(m)) {
            EXPECT_GE(initiationAccessCount(m), 1u);
            EXPECT_LE(initiationAccessCount(m), 5u);
        }
    }
}

TEST(MethodTraits, EngineModesAreConsistent)
{
    EXPECT_EQ(engineModeFor(DmaMethod::KeyBased), EngineMode::KeyBased);
    EXPECT_EQ(engineModeFor(DmaMethod::ExtShadow),
              EngineMode::ShadowPair);
    EXPECT_EQ(engineModeFor(DmaMethod::Shrimp1), EngineMode::MappedOut);
    EXPECT_EQ(engineModeFor(DmaMethod::Repeated5),
              EngineMode::Repeated5);

    NodeConfig config;
    configureNode(config, DmaMethod::ExtShadow);
    EXPECT_EQ(config.dma.ctxIdBits, 2u);
    configureNode(config, DmaMethod::Flash);
    EXPECT_TRUE(config.dma.flashTagCheck);
    configureNode(config, DmaMethod::KeyBased);
    EXPECT_FALSE(config.dma.flashTagCheck);
}

// ---------------------------------------------------------------------
// DmaSession facade.
// ---------------------------------------------------------------------

TEST(DmaSession, EndToEnd)
{
    MachineConfig config;
    configureNode(config.node, DmaMethod::KeyBased);
    Machine machine(config);
    prepareMachine(machine, DmaMethod::KeyBased);

    Kernel &kernel = machine.node(0).kernel();
    Process &proc = kernel.createProcess("app");
    DmaSession session(machine, 0, proc, DmaMethod::KeyBased);
    ASSERT_TRUE(session.ready());

    const Addr src = session.allocBuffer(pageSize);
    const Addr dst = session.allocBuffer(pageSize);

    const Addr src_paddr =
        kernel.translateFor(proc, src, Rights::Read).paddr;
    machine.node(0).memory().fill(src_paddr, 0x21, 64);

    std::uint64_t status = 0;
    Program prog;
    session.emitDma(prog, src, dst, 64);
    prog.callback([&status](ExecContext &ctx) {
        status = ctx.reg(reg::v0);
    });
    prog.exit();
    kernel.launch(proc, std::move(prog));
    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));

    EXPECT_NE(status, dmastatus::failure);
    const Addr dst_paddr =
        kernel.translateFor(proc, dst, Rights::Write).paddr;
    EXPECT_EQ(machine.node(0).memory().readInt(dst_paddr, 1), 0x21u);
}

TEST(DmaSession, NotReadyWhenASpanIsRefused)
{
    MachineConfig config;
    configureNode(config.node, DmaMethod::Cap);
    config.node.dma.cap.maxSpansPerSlot = 1;
    Machine machine(config);
    prepareMachine(machine, DmaMethod::Cap);

    Process &proc = machine.node(0).kernel().createProcess("app");
    DmaSession session(machine, 0, proc, DmaMethod::Cap);
    session.allocBuffer(pageSize);
    EXPECT_TRUE(session.ready());
    session.allocBuffer(pageSize);   // a second span: past the limit
    EXPECT_FALSE(session.ready());
}

/** A second prepareProcess for the same method grants nothing: one
 *  Context ledger entry, and every other context stays grantable. */
class OneContextPerProcess : public ::testing::TestWithParam<DmaMethod>
{};

TEST_P(OneContextPerProcess, SecondGrantGrantsNothing)
{
    const DmaMethod method = GetParam();
    MachineConfig config;
    configureNode(config.node, method);
    Machine machine(config);
    prepareMachine(machine, method);
    Kernel &kernel = machine.node(0).kernel();

    Process &holder = kernel.createProcess("holder");
    ASSERT_TRUE(prepareProcess(kernel, holder, method));
    const DmaGrant first = holder.dmaGrant();
    ASSERT_TRUE(prepareProcess(kernel, holder, method));
    EXPECT_EQ(holder.dmaGrant().keyContext, first.keyContext);
    EXPECT_EQ(holder.dmaGrant().shadowContext, first.shadowContext);
    EXPECT_EQ(holder.dmaGrant().key, first.key);

    std::size_t contexts = 0;
    for (const Grant &g : kernel.grants())
        contexts += g.kind == Grant::Kind::Context;
    EXPECT_EQ(contexts, 1u);

    const DmaEngineParams &dma = machine.node(0).dmaEngine().params();
    const unsigned total = method == DmaMethod::KeyBased
                               ? dma.numContexts
                               : 1u << dma.ctxIdBits;
    for (unsigned i = 1; i < total; ++i) {
        Process &other = kernel.createProcess("other");
        EXPECT_TRUE(prepareProcess(kernel, other, method)) << i;
    }
    Process &late = kernel.createProcess("late");
    EXPECT_FALSE(prepareProcess(kernel, late, method));
}

INSTANTIATE_TEST_SUITE_P(
    ContextMethods, OneContextPerProcess,
    ::testing::Values(DmaMethod::KeyBased, DmaMethod::ExtShadow),
    [](const ::testing::TestParamInfo<DmaMethod> &info) {
        return std::string(info.param == DmaMethod::KeyBased ? "key_based"
                                                             : "ext_shadow");
    });

TEST(DmaSession, NotReadyWhenContextsExhausted)
{
    MachineConfig config;
    configureNode(config.node, DmaMethod::KeyBased);
    config.node.dma.numContexts = 1;
    Machine machine(config);

    Kernel &kernel = machine.node(0).kernel();
    Process &first = kernel.createProcess("first");
    Process &second = kernel.createProcess("second");
    DmaSession s1(machine, 0, first, DmaMethod::KeyBased);
    DmaSession s2(machine, 0, second, DmaMethod::KeyBased);
    EXPECT_TRUE(s1.ready());
    EXPECT_FALSE(s2.ready());   // must fall back to kernel DMA
}

// ---------------------------------------------------------------------
// Experiment drivers.
// ---------------------------------------------------------------------

TEST(Experiment, InitiationMeasurementSanity)
{
    MeasureConfig config;
    config.method = DmaMethod::ExtShadow;
    config.iterations = 100;
    const InitiationMeasurement m = measureInitiation(config);

    EXPECT_EQ(m.iterations, 100u);
    EXPECT_EQ(m.successes, 100u);
    EXPECT_EQ(m.initiationsStarted, 100u);
    EXPECT_GT(m.avgUs, 0.5);
    EXPECT_LT(m.avgUs, 3.0);
    EXPECT_GE(m.minUs, 0.1);
    EXPECT_GE(m.maxUs, m.minUs);
    // Two shadow accesses per initiation (plus nothing else uncached).
    EXPECT_NEAR(m.uncachedAccesses, 2.0, 0.01);
}

TEST(Experiment, SamplesReduceToTheMeasurement)
{
    MeasureConfig config;
    config.method = DmaMethod::Repeated5;
    config.iterations = 50;
    InitiationExperiment experiment(config);
    experiment.machine().enableSampling(10 * tickPerUs);
    const InitiationMeasurement m = experiment.run();

    ASSERT_TRUE(m.finished);
    ASSERT_EQ(m.samplesUs.size(), 50u);
    double sum = 0.0;
    for (double us : m.samplesUs)
        sum += us;
    EXPECT_EQ(sum / 50, m.avgUs);   // summed in the same order
    EXPECT_EQ(*std::min_element(m.samplesUs.begin(), m.samplesUs.end()),
              m.minUs);
    EXPECT_EQ(*std::max_element(m.samplesUs.begin(), m.samplesUs.end()),
              m.maxUs);
    EXPECT_EQ(m.initiationsStarted, 50u);
    EXPECT_EQ(m.simulatedTicks, experiment.machine().now());
    std::ostringstream timeseries;
    experiment.machine().dumpTimeseriesJson(timeseries);
    EXPECT_NE(timeseries.str().find("\"tick\""), std::string::npos);

    // The wrapper measures the same run.
    const InitiationMeasurement again = measureInitiation(config);
    EXPECT_EQ(again.samplesUs, m.samplesUs);
    EXPECT_EQ(again.avgUs, m.avgUs);
}

TEST(Experiment, FirstInitiationIsTheTimedSequence)
{
    MeasureConfig config;
    config.method = DmaMethod::KeyBased;
    InitiationExperiment experiment(config);
    const Program one = experiment.firstInitiation();
    EXPECT_EQ(one.size(), 4u);   // three keyed stores and the status load
    EXPECT_EQ(one.at(one.size() - 1).kind, OpKind::Load);
}

TEST(Experiment, RunLimitLeavesTheRunUnfinished)
{
    MeasureConfig config;
    config.method = DmaMethod::Kernel;
    config.iterations = 1;
    config.kernel.syscallOverheadCycles = 1'000'000'000'000ULL;   // ~2 h
    InitiationExperiment experiment(config);
    const InitiationMeasurement m = experiment.run();
    EXPECT_FALSE(m.finished);
    EXPECT_TRUE(m.samplesUs.empty());
}

TEST(ExperimentDeathTest, NeedsAnIteration)
{
    MeasureConfig config;
    config.iterations = 0;
    EXPECT_DEATH({ InitiationExperiment experiment(config); },
                 "needs an iteration");
}

TEST(Experiment, KernelCostsAnOrderOfMagnitudeMore)
{
    MeasureConfig user;
    user.method = DmaMethod::ExtShadow;
    user.iterations = 100;
    MeasureConfig kern;
    kern.method = DmaMethod::Kernel;
    kern.iterations = 100;

    const double user_us = measureInitiation(user).avgUs;
    const double kernel_us = measureInitiation(kern).avgUs;
    // The paper's headline: user-level is ~an order of magnitude
    // cheaper (18.6 vs 1.1-2.6 us).
    EXPECT_GT(kernel_us / user_us, 6.0);
}

TEST(Experiment, Table1OrderingHolds)
{
    const auto rows = measureTable1(/*iterations=*/200);
    ASSERT_EQ(rows.size(), 4u);
    const double kernel = rows[0].avgUs;
    const double ext = rows[1].avgUs;
    const double rep = rows[2].avgUs;
    const double key = rows[3].avgUs;

    // Qualitative shape of Table 1.
    EXPECT_GT(kernel, rep);
    EXPECT_GT(kernel, key);
    EXPECT_GT(rep, ext);
    EXPECT_GT(key, ext);
    // Within 35% of the paper's absolute numbers.
    EXPECT_NEAR(kernel, 18.6, 18.6 * 0.35);
    EXPECT_NEAR(ext, 1.1, 1.1 * 0.35);
    EXPECT_NEAR(rep, 2.6, 2.6 * 0.35);
    EXPECT_NEAR(key, 2.3, 2.3 * 0.35);
}

TEST(Experiment, FasterBusShrinksUserInitiation)
{
    MeasureConfig tc;
    tc.method = DmaMethod::KeyBased;
    tc.iterations = 100;
    MeasureConfig pci = tc;
    pci.bus = BusParams::pci66();

    const double tc_us = measureInitiation(tc).avgUs;
    const double pci_us = measureInitiation(pci).avgUs;
    // §3.4: "user-level DMA can achieve quite better performance in
    // modern systems, that use faster buses."
    EXPECT_LT(pci_us, tc_us / 2.0);
}

TEST(Experiment, PaperTable1Values)
{
    EXPECT_DOUBLE_EQ(paperTable1Us(DmaMethod::Kernel), 18.6);
    EXPECT_DOUBLE_EQ(paperTable1Us(DmaMethod::ExtShadow), 1.1);
    EXPECT_DOUBLE_EQ(paperTable1Us(DmaMethod::Repeated5), 2.6);
    EXPECT_DOUBLE_EQ(paperTable1Us(DmaMethod::KeyBased), 2.3);
    EXPECT_DOUBLE_EQ(paperTable1Us(DmaMethod::PalCode), 0.0);
}

TEST(Experiment, WireTimeModel)
{
    // 1 KiB at 155 Mb/s ATM ~= 52.9 us; at 1 Gb/s ~= 8.2 us.
    EXPECT_NEAR(wireTimeUs(1024, 155'000'000), 52.85, 0.2);
    EXPECT_NEAR(wireTimeUs(1024, 1'000'000'000), 8.19, 0.05);
    // Monotone in size, inverse in bandwidth.
    EXPECT_GT(wireTimeUs(2048, 155'000'000),
              wireTimeUs(1024, 155'000'000));
}

TEST(Experiment, AtomicUserBeatsKernel)
{
    AtomicMeasureConfig user;
    user.op = AtomicOp::Add;
    user.userLevel = true;
    user.iterations = 100;
    AtomicMeasureConfig kern = user;
    kern.userLevel = false;

    const AtomicMeasurement mu = measureAtomic(user);
    const AtomicMeasurement mk = measureAtomic(kern);
    EXPECT_EQ(mu.executed, 100u);
    EXPECT_EQ(mk.executed, 100u);
    // §3.5: kernel-initiated atomics carry the syscall overhead.
    EXPECT_GT(mk.avgUs / mu.avgUs, 5.0);
}

TEST(Experiment, MergeBufferAblationBreaksRepeated5)
{
    // Footnote 6 in reverse: with collapsing/merging hardware present
    // and NO barriers the protocol would hang; our emission includes
    // the barriers, so it works.  With merging hardware *disabled*
    // entirely, it must also work and be slightly faster.
    MeasureConfig with;
    with.method = DmaMethod::Repeated5;
    with.iterations = 50;
    MeasureConfig without = with;
    without.cpu.mergeBuffer.collapseStores = false;
    without.cpu.mergeBuffer.mergeLoads = false;

    const InitiationMeasurement a = measureInitiation(with);
    const InitiationMeasurement b = measureInitiation(without);
    EXPECT_EQ(a.successes, 50u);
    EXPECT_EQ(b.successes, 50u);
}

// ---------------------------------------------------------------------
// Machine::run: the inline and queue paths stop at the same boundary.
// ---------------------------------------------------------------------

/** Architectural state at the point a run stopped. */
struct RunStop
{
    bool finished = false;
    Tick now = 0;
    std::uint64_t retired = 0;
    std::vector<std::uint64_t> regs;
    std::vector<int> pcs;

    bool operator==(const RunStop &) const = default;
};

/** Creates and launches the processes a run test observes. */
using ProcessSetup = std::function<std::vector<Process *>(Machine &)>;

/** Where each run() of a test stopped, the stats at the end, and the
 *  poll iterations the CPU skipped. */
struct RunEnd
{
    std::vector<RunStop> stops;
    std::string stats;
    std::uint64_t skipped = 0;
};

/**
 * Run @p setup's processes on one @p node to each of @p limits in
 * turn.  @p queue_path captures the profiler, which keeps every CPU
 * op on the event queue (so no poll fast-forward either); without it
 * the CPU runs ops in place.
 */
RunEnd
runMachine(const NodeConfig &node, const ProcessSetup &setup,
           const std::vector<Tick> &limits, bool queue_path)
{
    MachineConfig config;
    config.node = node;
    Machine machine(config);
    const std::vector<Process *> procs = setup(machine);
    if (queue_path)
        prof::profiler().enable();
    machine.start();
    RunEnd end;
    for (Tick until : limits) {
        RunStop stop;
        stop.finished = machine.run(until);
        stop.now = machine.now();
        stop.retired = machine.node(0).cpu().instructionsRetired();
        for (Process *p : procs) {
            for (unsigned r = 0; r < numRegs; ++r)
                stop.regs.push_back(p->context().reg(static_cast<int>(r)));
            stop.pcs.push_back(p->context().pc());
        }
        end.stops.push_back(stop);
        // The inline horizon does not outlive the run.
        EXPECT_FALSE(machine.eventq().advanceInline(machine.now() + 1));
    }
    if (queue_path)
        prof::profiler().disable();
    std::ostringstream os;
    machine.dumpStatsJson(os);
    end.stats = os.str();
    end.skipped = machine.node(0).cpu().pollIterationsSkipped();
    return end;
}

/**
 * Two processes under a 2 us round-robin quantum, each looping over
 * compute, register and cached-memory ops around a user-level DMA
 * initiation: the state after run(@p limit) and after a run to the
 * end.
 */
std::vector<RunStop>
runStops(Tick limit, bool queue_path)
{
    const DmaMethod method = DmaMethod::ExtShadow;
    NodeConfig node;
    configureNode(node, method);
    node.makeScheduler = []() {
        return std::make_unique<RoundRobinScheduler>(2 * tickPerUs);
    };
    const ProcessSetup setup = [method](Machine &machine) {
        prepareMachine(machine, method);
        Kernel &kernel = machine.node(0).kernel();
        std::vector<Process *> procs;
        for (const char *name : {"a", "b"}) {
            Process &p = kernel.createProcess(name);
            EXPECT_TRUE(prepareProcess(kernel, p, method));
            const Addr src =
                kernel.allocate(p, pageSize, Rights::ReadWrite);
            const Addr dst =
                kernel.allocate(p, pageSize, Rights::ReadWrite);
            kernel.createShadowMappings(p, src, pageSize);
            kernel.createShadowMappings(p, dst, pageSize);

            Program prog;
            prog.move(reg::t0, 0);
            const int loop = prog.here();
            emitInitiation(prog, kernel, p, method, src, dst, 64);
            prog.membar();
            prog.addImm(reg::t0, reg::t0, 1);
            prog.storeReg(src + 8, reg::t0);
            prog.load(reg::t1, src + 8);
            prog.compute(7);
            prog.branchNe(reg::t0, 40, loop);
            prog.exit();
            kernel.launch(p, std::move(prog));
            procs.push_back(&p);
        }
        return procs;
    };
    return runMachine(node, setup, {limit, maxTick}, queue_path).stops;
}

TEST(MachineRun, LimitStopsInlineAndQueuePathsAtTheSameBoundary)
{
    // Limits between op boundaries, early and late in the programs.
    for (Tick limit : {3 * tickPerUs + 1234, 41 * tickPerUs + 7}) {
        SCOPED_TRACE(limit);
        const std::vector<RunStop> inline_path = runStops(limit, false);
        const std::vector<RunStop> queue_path = runStops(limit, true);
        ASSERT_EQ(inline_path.size(), 2u);
        EXPECT_FALSE(inline_path[0].finished);
        EXPECT_LE(inline_path[0].now, limit);
        EXPECT_GT(inline_path[0].retired, 0u);
        EXPECT_TRUE(inline_path[1].finished);
        EXPECT_EQ(inline_path, queue_path);
    }
}

// ---------------------------------------------------------------------
// Poll fast-forward: skipping whole iterations of a status poll stops
// in the same state as running each one.
// ---------------------------------------------------------------------

/** What slices the CPU while processes spin. */
enum class Slicing { Long, TimeQuantum, InstrQuantum };

NodeConfig
pollNode(DmaMethod method, Slicing slicing)
{
    NodeConfig node;
    configureNode(node, method);
    if (slicing == Slicing::TimeQuantum) {
        node.makeScheduler = []() {
            return std::make_unique<RoundRobinScheduler>(20 * tickPerUs);
        };
    } else if (slicing == Slicing::InstrQuantum) {
        node.makeScheduler = []() {
            return std::make_unique<RandomScheduler>(7, 250);
        };
    }
    return node;
}

/** Emit `Load v0 <- [vaddr]; Membar; Compute; Branch back`: spin while
 *  v0 == @p value, or (@p while_equal false) while it differs. */
void
emitPoll(Program &prog, Addr vaddr, std::uint64_t value, bool while_equal)
{
    const int poll = prog.here();
    prog.load(reg::v0, vaddr);
    prog.membar();
    prog.compute(8);
    if (while_equal)
        prog.branchEq(reg::v0, value, poll);
    else
        prog.branchNe(reg::v0, value, poll);
    EXPECT_TRUE(prog.at(static_cast<std::size_t>(poll)).pollHead);
}

/** Both paths stop in the same state; @return the fast path's skips. */
std::uint64_t
expectSamePollEnd(const NodeConfig &node, const ProcessSetup &setup,
                  const std::vector<Tick> &limits)
{
    const RunEnd fast = runMachine(node, setup, limits, false);
    const RunEnd queue = runMachine(node, setup, limits, true);
    EXPECT_EQ(fast.stops, queue.stops);
    EXPECT_EQ(fast.stats, queue.stats);
    EXPECT_EQ(queue.skipped, 0u);
    return fast.skipped;
}

/** Two capability tenants, each presenting a one-page transfer and
 *  polling its slot's status word until it leaves `pending`. */
std::vector<Process *>
capPollers(Machine &machine)
{
    prepareMachine(machine, DmaMethod::Cap);
    Kernel &kernel = machine.node(0).kernel();
    std::vector<Process *> procs;
    for (const char *name : {"a", "b"}) {
        Process &p = kernel.createProcess(name);
        DmaSession session(machine, 0, p, DmaMethod::Cap);
        EXPECT_TRUE(session.ready());
        const Addr src = session.allocBuffer(pageSize);
        const Addr dst = session.allocBuffer(pageSize);
        Program prog;
        session.emitDma(prog, src, dst, pageSize);
        EXPECT_TRUE(prog.at(prog.size() - 4).pollHead);
        prog.exit();
        kernel.launch(p, std::move(prog));
        procs.push_back(&p);
    }
    return procs;
}

/** One process per entry of @p write_at, each spinning on a zeroed
 *  word of its own DRAM until a lambda stores 1 there at that tick. */
ProcessSetup
dramPollers(std::vector<Tick> write_at)
{
    return [write_at](Machine &machine) {
        Kernel &kernel = machine.node(0).kernel();
        std::vector<Process *> procs;
        for (Tick when : write_at) {
            Process &p = kernel.createProcess("p");
            const Addr word =
                kernel.allocate(p, pageSize, Rights::ReadWrite);
            const Addr paddr =
                kernel.translateFor(p, word, Rights::Read).paddr;
            Program prog;
            emitPoll(prog, word, 0, /*while_equal=*/true);
            prog.exit();
            kernel.launch(p, std::move(prog));
            machine.eventq().scheduleLambda(
                "write", when, [&machine, paddr]() {
                    machine.node(0).memory().writeInt(paddr, 1, 8);
                });
            procs.push_back(&p);
        }
        return procs;
    };
}

/** The ticks at which a lone DRAM poller, on the queue path, starts
 *  its first @p n iterations. */
std::vector<Tick>
dramPollHeadTimes(std::size_t n)
{
    MachineConfig config;
    Machine machine(config);
    const std::vector<Process *> procs =
        dramPollers({maxTick - 1})(machine);
    const ExecContext &ctx = procs[0]->context();
    std::vector<Tick> heads;
    // A run hook keeps every op on the queue; after the branch, the
    // CPU's tick for the next head is the earliest entry.
    machine.setRunHook([&](Tick) {
        if (ctx.pc() == 0 && machine.node(0).cpu().currentContext() ==
                                 &procs[0]->context()) {
            const Tick next = machine.eventq().nextEventTick();
            if (heads.empty() || heads.back() != next)
                heads.push_back(next);
        }
        return heads.size() < n;
    });
    machine.start();
    machine.run();
    return heads;
}

TEST(PollFastForward, CapStatusPollStopsWhereTheQueuePathStops)
{
    // A run limit mid-spin, then a run to the end, under a long
    // quantum, a 20 us time quantum and random instruction quanta.
    for (Slicing slicing : {Slicing::Long, Slicing::TimeQuantum,
                            Slicing::InstrQuantum}) {
        SCOPED_TRACE(static_cast<int>(slicing));
        const std::uint64_t skipped = expectSamePollEnd(
            pollNode(DmaMethod::Cap, slicing), capPollers,
            {30 * tickPerUs + 1234, maxTick});
        EXPECT_GT(skipped, 0u);
    }
}

TEST(PollFastForward, DramPollStopsWhereTheQueuePathStops)
{
    const std::vector<Tick> heads = dramPollHeadTimes(200);
    ASSERT_EQ(heads.size(), 200u);
    // The write lands on an iteration's first tick, one tick before
    // it, and one after: the skip must end before the write's entry
    // whichever way it falls.
    for (Tick write : {heads[150], heads[150] - 1, heads[150] + 1}) {
        SCOPED_TRACE(write);
        for (Slicing slicing : {Slicing::Long, Slicing::TimeQuantum,
                                Slicing::InstrQuantum}) {
            SCOPED_TRACE(static_cast<int>(slicing));
            // A run limit on an iteration's first tick, then mid-spin.
            for (Tick limit : {heads[60], heads[90] + 777}) {
                const std::uint64_t skipped = expectSamePollEnd(
                    pollNode(DmaMethod::Kernel, slicing),
                    dramPollers({write, write + 5 * tickPerUs}),
                    {limit, maxTick});
                EXPECT_GT(skipped, 0u);
            }
        }
    }
}

TEST(PollFastForward, IterationsThatEnterTheKernelAreNotReplayed)
{
    // Slices of 6, 4 and 4 instructions expire inside the second,
    // third and fourth iterations, each time re-picking the one
    // process; then the script runs out and the slice is unlimited.
    // Two iterations that each entered the kernel look alike, but the
    // iterations after them would not.
    NodeConfig node = pollNode(DmaMethod::Kernel, Slicing::Long);
    node.makeScheduler = []() {
        return std::make_unique<ScriptedScheduler>(
            std::vector<ScriptedScheduler::Slice>{{1, 6}, {1, 4}, {1, 4}});
    };
    EXPECT_GT(expectSamePollEnd(node, dramPollers({100 * tickPerUs}),
                                {maxTick}),
              0u);
}

TEST(PollFastForward, TracingAndDcacheKeepEveryIteration)
{
    const ProcessSetup setup = dramPollers({20 * tickPerUs});
    NodeConfig node = pollNode(DmaMethod::Kernel, Slicing::Long);
    EXPECT_GT(expectSamePollEnd(node, setup, {maxTick}), 0u);

    // A skipped bus read would have recorded a trace event.
    const NodeConfig cap = pollNode(DmaMethod::Cap, Slicing::Long);
    EXPECT_GT(runMachine(cap, capPollers, {maxTick}, false).skipped, 0u);
    trace::eventRing().enable(16);
    EXPECT_EQ(runMachine(cap, capPollers, {maxTick}, false).skipped, 0u);
    trace::eventRing().disable();

    node.cpu.dcache.enabled = true;
    EXPECT_EQ(expectSamePollEnd(node, setup, {maxTick}), 0u);
}

TEST(PollFastForward, LoadsWithSideEffectsAreNeverSkipped)
{
    // The same loop shape over a context page (a load there starts or
    // reports a key-based transfer) and over a shadow window (a load
    // there drives the pair recognizer): every iteration runs.
    const std::vector<Tick> limits = {20 * tickPerUs + 7,
                                      45 * tickPerUs + 3};
    for (DmaMethod method : {DmaMethod::KeyBased, DmaMethod::ExtShadow}) {
        SCOPED_TRACE(toString(method));
        const ProcessSetup setup = [method](Machine &machine) {
            prepareMachine(machine, method);
            Kernel &kernel = machine.node(0).kernel();
            Process &p = kernel.createProcess("p");
            EXPECT_TRUE(prepareProcess(kernel, p, method));
            const Addr src =
                kernel.allocate(p, pageSize, Rights::ReadWrite);
            const Addr dst =
                kernel.allocate(p, pageSize, Rights::ReadWrite);
            kernel.createShadowMappings(p, src, pageSize);
            kernel.createShadowMappings(p, dst, pageSize);
            Program prog;
            Addr polled = kernel.shadowVaddrFor(p, src);
            if (method == DmaMethod::KeyBased) {
                emitInitiation(prog, kernel, p, method, src, dst,
                               pageSize);
                polled = p.dmaGrant().contextPageVaddr;
            }
            // Spins for good: no load returns this.
            emitPoll(prog, polled, 0xfeedULL, /*while_equal=*/false);
            prog.exit();
            kernel.launch(p, std::move(prog));
            return std::vector<Process *>{&p};
        };
        EXPECT_EQ(expectSamePollEnd(pollNode(method, Slicing::Long),
                                    setup, limits),
                  0u);
    }
}

TEST(PollFastForward, OnlyCapPagesReadWithoutSideEffects)
{
    MachineConfig config;
    configureNode(config.node, DmaMethod::Cap);
    Machine machine(config);
    const Bus &bus = machine.node(0).bus();
    const auto pure = [&bus](Addr paddr) {
        return bus.deviceAt(paddr)->sideEffectFreeRead(paddr);
    };
    const DmaEngine &engine = machine.node(0).dmaEngine();
    EXPECT_TRUE(pure(engine.capPageAddr(0)));
    EXPECT_TRUE(pure(engine.capPageAddr(1) + 8));
    EXPECT_FALSE(pure(engine.contextPageAddr(0)));
    EXPECT_FALSE(pure(dmaShadowBase));
    EXPECT_FALSE(pure(dmaKernelRegsBase));
    EXPECT_FALSE(pure(0x1000));   // DRAM on the bus
}

TEST(PollFastForward, ProgramMarksOnlyTheExactLoopShape)
{
    Program p;
    emitPoll(p, 0x1000, 0, true);
    Program indirect;
    const int head = indirect.loadIndirect(reg::v0, reg::t0, 0);
    indirect.membar();
    indirect.compute(8);
    indirect.branchEq(reg::v0, 0, head);
    EXPECT_FALSE(indirect.at(0).pollHead);
    Program other_reg;
    other_reg.load(reg::v0, 0x1000);
    other_reg.membar();
    other_reg.compute(8);
    other_reg.branchEq(reg::t0, 0, 0);
    EXPECT_FALSE(other_reg.at(0).pollHead);
    Program patched;
    patched.load(reg::v0, 0x1000);
    patched.membar();
    patched.compute(8);
    const int br = patched.branchEq(reg::v0, 0, 3);
    EXPECT_FALSE(patched.at(0).pollHead);
    patched.setTarget(br, 0);
    EXPECT_TRUE(patched.at(0).pollHead);
    Program appended;
    appended.exit();
    appended.append(patched);
    EXPECT_TRUE(appended.at(1).pollHead);
}

// ---------------------------------------------------------------------
// A program emitted a block at a time (Program::setSource) runs like
// the same ops unrolled.
// ---------------------------------------------------------------------

/** What a block-source run saw. */
struct SourceProbe
{
    /** now() at each refill of the first process: the tick its
     *  block's last op started at. */
    std::vector<Tick> refills;
    /** The first context switch's tick. */
    Tick firstSwitch = maxTick;
    /** A switch left the first process on a fresh block: its quantum
     *  expired on the op whose refill came first. */
    bool switchedAtRefill = false;
};

/**
 * Two capability tenants, each running @p blocks blocks: a compute of
 * a block-dependent length, then an @p size -byte presentation that
 * polls its status at the same index of every block; exit() ends the
 * last.  Unrolled with Program::append, or (@p sourced) emitted a
 * block per refill.
 */
ProcessSetup
capBlocks(unsigned blocks, bool sourced, Addr size = pageSize,
          SourceProbe *probe = nullptr)
{
    return [=](Machine &machine) {
        prepareMachine(machine, DmaMethod::Cap);
        Kernel &kernel = machine.node(0).kernel();
        std::vector<Process *> procs;
        for (const char *name : {"a", "b"}) {
            Process &p = kernel.createProcess(name);
            DmaSession session(machine, 0, p, DmaMethod::Cap);
            EXPECT_TRUE(session.ready());
            const Addr src = session.allocBuffer(pageSize);
            const Addr dst = session.allocBuffer(pageSize);
            const auto emit = [&kernel, &p, src, dst, size,
                               blocks](Program &prog, unsigned k) {
                prog.compute(40 + 13 * k);
                emitInitiation(prog, kernel, p, DmaMethod::Cap, src, dst,
                               size);
                if (k + 1 == blocks)
                    prog.exit();
            };
            Program prog;
            if (sourced) {
                emit(prog, 0);
                const bool first = procs.empty();
                prog.setSource([=, &machine, k = 1u](Program &next) mutable {
                    if (probe != nullptr && first)
                        probe->refills.push_back(machine.now());
                    if (k == blocks)
                        return false;
                    emit(next, k++);
                    return true;
                });
            } else {
                for (unsigned k = 0; k < blocks; ++k) {
                    Program block;
                    emit(block, k);
                    prog.append(block);
                }
            }
            kernel.launch(p, std::move(prog));
            procs.push_back(&p);
        }
        if (probe != nullptr) {
            const Process *first = procs.front();
            kernel.setContextSwitchObserver(
                [probe, first](Tick when, Process *previous, Process *) {
                    probe->firstSwitch = std::min(probe->firstSwitch, when);
                    if (previous == first && !previous->finished() &&
                        previous->context().pc() == 0 &&
                        previous->context().instructionsRetired() > 0)
                        probe->switchedAtRefill = true;
                });
        }
        return procs;
    };
}

/** The runs ended alike: every stop's time, retired count and
 *  registers, the stats, and the poll iterations skipped.  The PCs
 *  differ: a block's count from its own first op. */
void
expectSameEnd(const RunEnd &unrolled, const RunEnd &sourced)
{
    ASSERT_EQ(unrolled.stops.size(), sourced.stops.size());
    for (std::size_t i = 0; i < unrolled.stops.size(); ++i) {
        EXPECT_EQ(unrolled.stops[i].finished, sourced.stops[i].finished);
        EXPECT_EQ(unrolled.stops[i].now, sourced.stops[i].now);
        EXPECT_EQ(unrolled.stops[i].retired, sourced.stops[i].retired);
        EXPECT_EQ(unrolled.stops[i].regs, sourced.stops[i].regs);
    }
    EXPECT_EQ(unrolled.stats, sourced.stats);
    EXPECT_EQ(unrolled.skipped, sourced.skipped);
}

TEST(ProgramSource, BlocksRunLikeTheUnrolledOps)
{
    // Three blocks whose status polls sit at the same index: a refill
    // must not let the next block's poll inherit the last one's
    // iterations.  A run limit mid-way, then a run to the end, on the
    // inline and the queue path, under each slicing.
    for (Slicing slicing : {Slicing::Long, Slicing::TimeQuantum,
                            Slicing::InstrQuantum}) {
        SCOPED_TRACE(static_cast<int>(slicing));
        const NodeConfig node = pollNode(DmaMethod::Cap, slicing);
        const std::vector<Tick> limits = {25 * tickPerUs + 321, maxTick};
        for (bool queue_path : {false, true}) {
            SCOPED_TRACE(queue_path);
            const RunEnd unrolled =
                runMachine(node, capBlocks(3, false), limits, queue_path);
            const RunEnd sourced =
                runMachine(node, capBlocks(3, true), limits, queue_path);
            expectSameEnd(unrolled, sourced);
            EXPECT_TRUE(sourced.stops.back().finished);
            if (!queue_path && slicing == Slicing::Long) {
                EXPECT_GT(sourced.skipped, 0u);
            }
        }
    }
}

TEST(ProgramSource, RefillOnAQuantumExpiryRunsLikeTheUnrolledOps)
{
    // Time the first tenant's first block under a quantum it does not
    // reach, then size a round-robin quantum to expire on that block's
    // last op: the CPU refills the program and the kernel switches
    // away at the same op boundary.
    const Addr size = 256;
    NodeConfig node = pollNode(DmaMethod::Cap, Slicing::Long);
    node.makeScheduler = []() {
        return std::make_unique<RoundRobinScheduler>(1000 * tickPerUs);
    };
    SourceProbe timing;
    runMachine(node, capBlocks(3, true, size, &timing), {maxTick}, false);
    ASSERT_EQ(timing.refills.size(), 3u);   // two blocks, then none
    ASSERT_LT(timing.firstSwitch, timing.refills[0]);
    const Tick quantum = timing.refills[0] + 1 - timing.firstSwitch;

    node.makeScheduler = [quantum]() {
        return std::make_unique<RoundRobinScheduler>(quantum);
    };
    for (bool queue_path : {false, true}) {
        SCOPED_TRACE(queue_path);
        SourceProbe probe;
        const RunEnd sourced = runMachine(
            node, capBlocks(3, true, size, &probe), {maxTick}, queue_path);
        EXPECT_TRUE(probe.switchedAtRefill);
        EXPECT_EQ(probe.refills.front(), timing.refills.front());
        const RunEnd unrolled = runMachine(
            node, capBlocks(3, false, size), {maxTick}, queue_path);
        expectSameEnd(unrolled, sourced);
        EXPECT_TRUE(sourced.stops.back().finished);
    }
}

} // namespace
} // namespace uldma
