/**
 * @file
 * Unit tests for the os module: kernel memory services, shadow-mapping
 * construction, key/context granting, schedulers, syscall costs, and
 * the kernel-modification hooks the SHRIMP-2/FLASH baselines need.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "core/machine.hh"
#include "core/methods.hh"
#include "sim/ticks.hh"

namespace uldma {
namespace {

/** Fixture assembling a one-node machine in KeyBased engine mode. */
class OsTest : public ::testing::Test
{
  protected:
    OsTest()
    {
        MachineConfig config;
        config.node.dma.mode = EngineMode::KeyBased;
        machine_ = std::make_unique<Machine>(config);
    }

    Kernel &kernel() { return machine_->node(0).kernel(); }
    Node &node() { return machine_->node(0); }

    std::unique_ptr<Machine> machine_;
};

// ---------------------------------------------------------------------
// Memory services.
// ---------------------------------------------------------------------

TEST_F(OsTest, AllocateMapsFreshContiguousFrames)
{
    Process &p = kernel().createProcess("p");
    const Addr v1 = kernel().allocate(p, 3 * pageSize, Rights::ReadWrite);

    // Pages contiguous physically, all rw.
    const Translation t0 = kernel().translateFor(p, v1, Rights::Write);
    ASSERT_TRUE(t0.ok());
    for (Addr i = 1; i < 3; ++i) {
        const Translation t =
            kernel().translateFor(p, v1 + i * pageSize, Rights::Write);
        ASSERT_TRUE(t.ok());
        EXPECT_EQ(t.paddr, t0.paddr + i * pageSize);
    }

    // A second allocation gets different frames.
    const Addr v2 = kernel().allocate(p, pageSize, Rights::Read);
    const Translation t2 = kernel().translateFor(p, v2, Rights::Read);
    ASSERT_TRUE(t2.ok());
    EXPECT_NE(t2.paddr, t0.paddr);
}

TEST_F(OsTest, AllocationsAreProcessPrivate)
{
    Process &a = kernel().createProcess("a");
    Process &b = kernel().createProcess("b");
    const Addr va = kernel().allocate(a, pageSize, Rights::ReadWrite);
    EXPECT_TRUE(kernel().translateFor(a, va, Rights::Read).ok());
    EXPECT_FALSE(kernel().translateFor(b, va, Rights::Read).ok());
}

TEST_F(OsTest, MapSharedGrantsLimitedRights)
{
    Process &owner = kernel().createProcess("owner");
    Process &peer = kernel().createProcess("peer");
    const Addr vo = kernel().allocate(owner, pageSize, Rights::ReadWrite);
    const Addr vp =
        kernel().mapShared(owner, vo, pageSize, peer, Rights::Read);

    const Translation to = kernel().translateFor(owner, vo, Rights::Write);
    const Translation tp = kernel().translateFor(peer, vp, Rights::Read);
    ASSERT_TRUE(to.ok());
    ASSERT_TRUE(tp.ok());
    EXPECT_EQ(to.paddr, tp.paddr);   // same physical page
    // Read-only for the peer.
    EXPECT_FALSE(kernel().translateFor(peer, vp, Rights::Write).ok());
}

// ---------------------------------------------------------------------
// Shadow mappings (paper §2.3).
// ---------------------------------------------------------------------

TEST_F(OsTest, ShadowMappingPointsIntoShadowWindow)
{
    Process &p = kernel().createProcess("p");
    const Addr v = kernel().allocate(p, pageSize, Rights::ReadWrite);
    kernel().createShadowMappings(p, v, pageSize);

    const Addr sv = kernel().shadowVaddrFor(p, v + 0x123);
    const Translation st = kernel().translateFor(p, sv, Rights::Write);
    ASSERT_TRUE(st.ok());
    EXPECT_TRUE(st.uncacheable);

    const auto &dma = node().dmaEngine().params();
    Addr target = 0;
    unsigned ctx = 99;
    dma.decodeShadow(st.paddr, target, ctx);
    const Translation ut = kernel().translateFor(p, v + 0x123,
                                                 Rights::Read);
    EXPECT_EQ(target, ut.paddr);   // shadow^-1(shadow(p)) == p
    EXPECT_EQ(ctx, 0u);
}

TEST_F(OsTest, ShadowRightsMirrorUserRights)
{
    Process &p = kernel().createProcess("p");
    const Addr v = kernel().allocate(p, pageSize, Rights::Read);
    kernel().createShadowMappings(p, v, pageSize);
    const Addr sv = kernel().shadowVaddrFor(p, v);
    EXPECT_TRUE(kernel().translateFor(p, sv, Rights::Read).ok());
    EXPECT_FALSE(kernel().translateFor(p, sv, Rights::Write).ok());
}

TEST_F(OsTest, ShadowMappingUsesGrantedContextId)
{
    MachineConfig config;
    config.node.dma.mode = EngineMode::ShadowPair;
    config.node.dma.ctxIdBits = 2;
    Machine machine(config);
    Kernel &k = machine.node(0).kernel();

    Process &p1 = k.createProcess("p1");
    Process &p2 = k.createProcess("p2");
    ASSERT_TRUE(k.grantShadowContext(p1));
    ASSERT_TRUE(k.grantShadowContext(p2));
    EXPECT_NE(*p1.dmaGrant().shadowContext, *p2.dmaGrant().shadowContext);

    const Addr v1 = k.allocate(p1, pageSize, Rights::ReadWrite);
    k.createShadowMappings(p1, v1, pageSize);
    const Translation st =
        k.translateFor(p1, k.shadowVaddrFor(p1, v1), Rights::Write);
    ASSERT_TRUE(st.ok());

    Addr target = 0;
    unsigned ctx = 99;
    machine.node(0).dmaEngine().params().decodeShadow(st.paddr, target,
                                                      ctx);
    EXPECT_EQ(ctx, *p1.dmaGrant().shadowContext);
}

// ---------------------------------------------------------------------
// Key contexts (paper §3.1).
// ---------------------------------------------------------------------

TEST_F(OsTest, GrantKeyContextProgramsEngine)
{
    Process &p = kernel().createProcess("p");
    ASSERT_TRUE(kernel().grantKeyContext(p));
    const auto &grant = p.dmaGrant();
    ASSERT_TRUE(grant.keyContext.has_value());

    // The engine holds the same key the process was given.
    EXPECT_EQ(node().dmaEngine().contextKey(*grant.keyContext),
              grant.key);
    EXPECT_NE(grant.key, 0u);

    // The context page is mapped rw + uncached.
    const Translation t = kernel().translateFor(
        p, grant.contextPageVaddr, Rights::ReadWrite);
    ASSERT_TRUE(t.ok());
    EXPECT_TRUE(t.uncacheable);
    EXPECT_EQ(t.paddr,
              node().dmaEngine().contextPageAddr(*grant.keyContext));
}

TEST_F(OsTest, KeyContextsExhaust)
{
    const unsigned total = node().dmaEngine().params().numContexts;
    for (unsigned i = 0; i < total; ++i) {
        Process &p = kernel().createProcess("p");
        EXPECT_TRUE(kernel().grantKeyContext(p));
    }
    Process &extra = kernel().createProcess("unlucky");
    // All contexts taken: fall back to kernel DMA (paper §3.1/§3.2).
    EXPECT_FALSE(kernel().grantKeyContext(extra));
}

TEST_F(OsTest, RevokeFreesContext)
{
    Process &a = kernel().createProcess("a");
    ASSERT_TRUE(kernel().grantKeyContext(a));
    const unsigned ctx = *a.dmaGrant().keyContext;
    kernel().revokeKeyContext(a);
    EXPECT_FALSE(a.dmaGrant().keyContext.has_value());

    Process &b = kernel().createProcess("b");
    ASSERT_TRUE(kernel().grantKeyContext(b));
    EXPECT_EQ(*b.dmaGrant().keyContext, ctx);   // slot reused
}

TEST_F(OsTest, KeysAreDistinctAcrossProcesses)
{
    Process &a = kernel().createProcess("a");
    Process &b = kernel().createProcess("b");
    ASSERT_TRUE(kernel().grantKeyContext(a));
    ASSERT_TRUE(kernel().grantKeyContext(b));
    EXPECT_NE(a.dmaGrant().key, b.dmaGrant().key);
}

TEST_F(OsTest, ShadowContextsExhaustAtCtxIdSpace)
{
    MachineConfig config;
    config.node.dma.mode = EngineMode::ShadowPair;
    config.node.dma.ctxIdBits = 1;   // two CONTEXT_IDs
    Machine machine(config);
    Kernel &k = machine.node(0).kernel();

    Process &a = k.createProcess("a");
    Process &b = k.createProcess("b");
    Process &c = k.createProcess("c");
    EXPECT_TRUE(k.grantShadowContext(a));
    EXPECT_TRUE(k.grantShadowContext(b));
    EXPECT_FALSE(k.grantShadowContext(c));   // "go through the kernel"
}

// ---------------------------------------------------------------------
// Syscalls and their costs.
// ---------------------------------------------------------------------

TEST_F(OsTest, EmptySyscallCostsThousandsOfCycles)
{
    Process &p = kernel().createProcess("p");
    Program prog;
    prog.syscall(sys::noop);
    prog.exit();
    kernel().launch(p, std::move(prog));
    machine_->start();
    ASSERT_TRUE(machine_->run(tickPerSec));

    // 2,300 cycles at 150 MHz is ~15.3 us; allow headroom for the
    // instruction itself and the final context switch.
    const double us = ticksToUs(machine_->now());
    EXPECT_GT(us, 14.0);
    EXPECT_LT(us, 30.0);
}

TEST_F(OsTest, KernelDmaRejectsBadArguments)
{
    Process &p = kernel().createProcess("p");
    const Addr src = kernel().allocate(p, pageSize, Rights::ReadWrite);

    std::uint64_t status = 0;
    Program prog;
    // Destination never mapped.
    prog.move(reg::a0, src);
    prog.move(reg::a1, 0xDEAD'0000);
    prog.move(reg::a2, 64);
    prog.syscall(sys::dma);
    prog.callback([&status](ExecContext &ctx) {
        status = ctx.reg(reg::v0);
    });
    prog.exit();
    kernel().launch(p, std::move(prog));
    machine_->start();
    ASSERT_TRUE(machine_->run(tickPerSec));

    EXPECT_EQ(status, ~std::uint64_t(0));
    EXPECT_EQ(node().dmaEngine().numInitiations(), 0u);
}

TEST_F(OsTest, KernelDmaChecksWholeRange)
{
    Process &p = kernel().createProcess("p");
    // Source: two pages, but the second is read-only... allocate rw
    // then a hole after one page by allocating only one page.
    const Addr src = kernel().allocate(p, pageSize, Rights::ReadWrite);
    const Addr dst = kernel().allocate(p, 2 * pageSize, Rights::ReadWrite);

    std::uint64_t status = 0;
    Program prog;
    // Transfer crosses past the end of the 1-page source mapping.
    prog.move(reg::a0, src + pageSize - 64);
    prog.move(reg::a1, dst);
    prog.move(reg::a2, 128);
    prog.syscall(sys::dma);
    prog.callback([&status](ExecContext &ctx) {
        status = ctx.reg(reg::v0);
    });
    prog.exit();
    kernel().launch(p, std::move(prog));
    machine_->start();
    ASSERT_TRUE(machine_->run(tickPerSec));
    EXPECT_EQ(status, ~std::uint64_t(0));
}

TEST_F(OsTest, FaultingProcessIsKilledOthersContinue)
{
    Process &bad = kernel().createProcess("bad");
    Process &good = kernel().createProcess("good");

    Program bad_prog;
    bad_prog.load(reg::t0, 0xBAD0'0000);   // unmapped
    bad_prog.exit();

    bool good_ran = false;
    Program good_prog;
    good_prog.callback([&good_ran](ExecContext &) { good_ran = true; });
    good_prog.exit();

    kernel().launch(bad, std::move(bad_prog));
    kernel().launch(good, std::move(good_prog));
    machine_->start();
    ASSERT_TRUE(machine_->run(tickPerSec));

    EXPECT_EQ(bad.state(), RunState::Faulted);
    EXPECT_EQ(good.state(), RunState::Exited);
    EXPECT_TRUE(good_ran);
    EXPECT_EQ(kernel().numFaultedProcesses(), 1u);
}

// ---------------------------------------------------------------------
// Scheduling.
// ---------------------------------------------------------------------

TEST(Schedulers, RoundRobinInterleavesByQuantum)
{
    MachineConfig config;
    config.node.makeScheduler = []() {
        return std::make_unique<RoundRobinScheduler>(50 * tickPerUs);
    };
    Machine machine(config);
    Kernel &k = machine.node(0).kernel();

    std::vector<Pid> order;
    auto make_prog = [&order](int work) {
        Program p;
        for (int i = 0; i < work; ++i) {
            p.callback([&order](ExecContext &ctx) {
                if (order.empty() || order.back() != ctx.pid())
                    order.push_back(ctx.pid());
            });
            p.compute(3000);   // 20 us at 150 MHz
        }
        p.exit();
        return p;
    };

    Process &a = k.createProcess("a");
    Process &b = k.createProcess("b");
    k.launch(a, make_prog(10));
    k.launch(b, make_prog(10));
    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));

    // Both ran, and control bounced between them at least twice.
    EXPECT_GE(order.size(), 4u);
    EXPECT_GT(k.numContextSwitches(), 2u);
}

TEST(Schedulers, ScriptedSlicesAreExact)
{
    std::vector<ScriptedScheduler::Slice> script = {
        {1, 2}, {2, 3}, {1, 1}};
    MachineConfig config;
    config.node.makeScheduler = [&script]() {
        return std::make_unique<ScriptedScheduler>(script);
    };
    Machine machine(config);
    Kernel &k = machine.node(0).kernel();

    std::vector<std::pair<Pid, int>> trace;   // (pid, op index)
    auto make_prog = [&trace](int n) {
        Program p;
        for (int i = 0; i < n; ++i) {
            const int index = i;
            p.callback([&trace, index](ExecContext &ctx) {
                trace.emplace_back(ctx.pid(), index);
            });
        }
        p.exit();
        return p;
    };

    Process &a = k.createProcess("a");   // pid 1
    Process &b = k.createProcess("b");   // pid 2
    k.launch(a, make_prog(4));
    k.launch(b, make_prog(4));
    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));

    // Script: a runs ops 0,1; b runs ops 0,1,2; a runs op 2; then the
    // drain phase finishes both.
    ASSERT_GE(trace.size(), 6u);
    EXPECT_EQ(trace[0], (std::pair<Pid, int>{1, 0}));
    EXPECT_EQ(trace[1], (std::pair<Pid, int>{1, 1}));
    EXPECT_EQ(trace[2], (std::pair<Pid, int>{2, 0}));
    EXPECT_EQ(trace[3], (std::pair<Pid, int>{2, 1}));
    EXPECT_EQ(trace[4], (std::pair<Pid, int>{2, 2}));
    EXPECT_EQ(trace[5], (std::pair<Pid, int>{1, 2}));
}

// ---------------------------------------------------------------------
// Kernel-modification hooks (the baselines' requirement).
// ---------------------------------------------------------------------

TEST(KernelHooks, UnmodifiedKernelRunsNoHooks)
{
    // The paper's title claim, on the built machine: prepareMachine
    // modifies the kernel exactly for the methods that declare it
    // (SHRIMP-2 and FLASH), and for every other method a two-process
    // run never enters the context-switch hook path.
    std::vector<DmaMethod> methods(std::begin(allMethods),
                                   std::end(allMethods));
    methods.push_back(DmaMethod::Ring);
    methods.push_back(DmaMethod::Cap);
    ASSERT_EQ(methods.size(), 12u);
    for (DmaMethod m : methods) {
        SCOPED_TRACE(toString(m));
        MachineConfig config;
        configureNode(config.node, m);
        Machine machine(config);
        prepareMachine(machine, m);
        Kernel &k = machine.node(0).kernel();
        EXPECT_EQ(k.kernelModified(), requiresKernelModification(m));

        Process &a = k.createProcess("a");
        Process &b = k.createProcess("b");
        ASSERT_TRUE(prepareProcess(k, a, m));
        ASSERT_TRUE(prepareProcess(k, b, m));
        Program pa, pb;
        pa.compute(100);
        pa.yield();
        pa.exit();
        pb.compute(100);
        pb.exit();
        k.launch(a, std::move(pa));
        k.launch(b, std::move(pb));
        machine.start();
        ASSERT_TRUE(machine.run(tickPerSec));

        EXPECT_GT(k.numContextSwitches(), 0u);
        if (k.kernelModified()) {
            EXPECT_GT(k.hookInvocations(), 0u);
        } else {
            EXPECT_EQ(k.hookInvocations(), 0u)
                << "the paper's methods must not touch the context "
                   "switch path";
        }
    }
}

TEST(KernelHooks, FlashHookTagsEverySwitch)
{
    MachineConfig config;
    configureNode(config.node, DmaMethod::Flash);
    Machine machine(config);
    prepareMachine(machine, DmaMethod::Flash);
    Kernel &k = machine.node(0).kernel();
    EXPECT_TRUE(k.kernelModified());

    Process &a = k.createProcess("a");
    Program pa;
    pa.compute(100);
    pa.exit();
    k.launch(a, std::move(pa));
    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));

    EXPECT_GT(k.hookInvocations(), 0u);
}

TEST(KernelHooks, Shrimp2HookInvalidatesLatch)
{
    MachineConfig config;
    configureNode(config.node, DmaMethod::Shrimp2);
    Machine machine(config);
    prepareMachine(machine, DmaMethod::Shrimp2);
    Kernel &k = machine.node(0).kernel();
    DmaEngine &engine = machine.node(0).dmaEngine();

    Process &p = k.createProcess("p");
    const Addr src = k.allocate(p, pageSize, Rights::ReadWrite);
    const Addr dst = k.allocate(p, pageSize, Rights::ReadWrite);
    k.createShadowMappings(p, src, pageSize);
    k.createShadowMappings(p, dst, pageSize);

    // Store half of the pair, then yield (context switch), then load.
    std::uint64_t status = 0;
    Program prog;
    prog.store(k.shadowVaddrFor(p, dst), 64);
    prog.membar();   // force the store to the engine before the switch
    prog.yield();
    prog.load(reg::v0, k.shadowVaddrFor(p, src));
    prog.callback([&status](ExecContext &ctx) {
        status = ctx.reg(reg::v0);
    });
    prog.exit();
    k.launch(p, std::move(prog));
    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));

    // The hook aborted the half-initiated DMA: the load reports
    // failure and nothing started (the SHRIMP-2 guarantee, §2.5).
    EXPECT_EQ(status, dmastatus::failure);
    EXPECT_EQ(engine.numInitiations(), 0u);
}

TEST(KernelLaunch, RelaunchingTheRunningProcessAborts)
{
    // The CPU executes the current op by reference, so a hook must not
    // replace the program it is running from.
    EXPECT_DEATH(
        {
            Machine machine(MachineConfig{});
            Kernel &kernel = machine.node(0).kernel();
            Process &p = kernel.createProcess("p");
            Program prog;
            prog.callback([&kernel, &p](ExecContext &) {
                Program again;
                again.exit();
                kernel.launch(p, std::move(again));
            });
            prog.exit();
            kernel.launch(p, std::move(prog));
            machine.start();
            machine.run();
        },
        "relaunching running process");
}

// ---------------------------------------------------------------------
// Frame runs: authorizeRingDma, capGrant and capExtend program one
// frame span per physically contiguous run of a virtual range.
// ---------------------------------------------------------------------

/** @p n fresh frames, no two adjacent: each one is followed by a frame
 *  nothing maps. */
std::vector<Addr>
scatteredFrames(Kernel &kernel, unsigned n)
{
    std::vector<Addr> frames;
    for (unsigned i = 0; i < n; ++i)
        frames.push_back(kernel.allocFrames(2));
    return frames;
}

/** Map one read-write page per entry of @p frames at @p p's
 *  allocation cursor, page i on frame frames[i]; a 0 entry leaves that
 *  page unmapped.  @return the virtual address of the first page. */
Addr
mapFrames(Process &p, const std::vector<Addr> &frames)
{
    const Addr vaddr = p.allocCursor();
    for (std::size_t i = 0; i < frames.size(); ++i) {
        if (frames[i] != 0) {
            p.pageTable().mapPage(vaddr + i * pageSize, frames[i],
                                  Rights::ReadWrite);
        }
    }
    p.setAllocCursor(vaddr + (frames.size() + 1) * pageSize);
    return vaddr;
}

/** A one-node capability machine with one process. */
struct CapKernel
{
    Machine machine;
    Kernel &kernel;
    Process &p;

    static MachineConfig
    makeConfig()
    {
        MachineConfig config;
        configureNode(config.node, DmaMethod::Cap);
        return config;
    }

    CapKernel()
        : machine(makeConfig()), kernel(machine.node(0).kernel()),
          p(kernel.createProcess("p"))
    {
        prepareMachine(machine, DmaMethod::Cap);
    }

    CapTable &table() { return *machine.node(0).dmaEngine().cap(); }
};

TEST(FrameRuns, CapGrantOverAnUnmappedPageLeavesNoSpan)
{
    CapKernel rig;
    // Two runs, then a hole: the first run is programmed before the
    // walk reaches the hole, so the grant must roll it back.
    const std::vector<Addr> frames = scatteredFrames(rig.kernel, 2);
    const Addr v = mapFrames(rig.p, {frames[0], frames[1], 0});
    EXPECT_EQ(rig.kernel.capGrant(rig.p, v, 3 * pageSize, 0), -1);
    EXPECT_FALSE(rig.table().valid(0));
    EXPECT_TRUE(rig.table().spans(0).empty());
    EXPECT_TRUE(rig.p.dmaGrant().capSlots.empty());

    // The slot stayed free: the next grant gets it.
    const Addr ok = rig.kernel.allocate(rig.p, pageSize, Rights::ReadWrite);
    EXPECT_EQ(rig.kernel.capGrant(rig.p, ok, pageSize, 0), 0);
    EXPECT_EQ(rig.table().spans(0).size(), 1u);
}

TEST(FrameRuns, CapGrantTakesOneSpanPerRunUpToTheLimit)
{
    CapKernel rig;
    const unsigned max_spans = rig.table().params().maxSpansPerSlot;
    ASSERT_EQ(max_spans, 8u);

    const std::vector<Addr> eight = scatteredFrames(rig.kernel, max_spans);
    const Addr v8 = mapFrames(rig.p, eight);
    const int slot =
        rig.kernel.capGrant(rig.p, v8, max_spans * pageSize, 0);
    ASSERT_EQ(slot, 0);
    const std::vector<CapSpan> &spans = rig.table().spans(0);
    ASSERT_EQ(spans.size(), max_spans);
    for (unsigned i = 0; i < max_spans; ++i) {
        EXPECT_EQ(spans[i].base, eight[i]);
        EXPECT_EQ(spans[i].limit, eight[i] + pageSize);
    }

    // One run more than a slot holds: refused, and nothing is left.
    const Addr v9 =
        mapFrames(rig.p, scatteredFrames(rig.kernel, max_spans + 1));
    EXPECT_EQ(rig.kernel.capGrant(rig.p, v9, (max_spans + 1) * pageSize, 0),
              -1);
    EXPECT_FALSE(rig.table().valid(1));
    EXPECT_TRUE(rig.table().spans(1).empty());
    EXPECT_EQ(rig.p.dmaGrant().capSlots.size(), 1u);
}

TEST(FrameRuns, CapExtendPastTheSpanLimitFails)
{
    CapKernel rig;
    const unsigned max_spans = rig.table().params().maxSpansPerSlot;
    const Addr v = mapFrames(rig.p, scatteredFrames(rig.kernel,
                                                    max_spans - 1));
    const int slot =
        rig.kernel.capGrant(rig.p, v, (max_spans - 1) * pageSize, 0);
    ASSERT_GE(slot, 0);
    const unsigned s = static_cast<unsigned>(slot);

    const Addr last = mapFrames(rig.p, scatteredFrames(rig.kernel, 1));
    EXPECT_TRUE(rig.kernel.capExtend(rig.p, s, last, pageSize));
    EXPECT_EQ(rig.table().spans(s).size(), max_spans);

    const Addr extra = mapFrames(rig.p, scatteredFrames(rig.kernel, 1));
    EXPECT_FALSE(rig.kernel.capExtend(rig.p, s, extra, pageSize));
    EXPECT_EQ(rig.table().spans(s).size(), max_spans);
    // An unmapped page is refused the same way.
    const Addr hole = mapFrames(rig.p, {0});
    EXPECT_FALSE(rig.kernel.capExtend(rig.p, s, hole, pageSize));
}

TEST(FrameRuns, ReadOnlyPageDropsWriteFromTheSlot)
{
    CapKernel rig;
    const std::vector<Addr> frames = scatteredFrames(rig.kernel, 2);
    const Addr v = rig.p.allocCursor();
    rig.p.pageTable().mapPage(v, frames[0], Rights::ReadWrite);
    rig.p.pageTable().mapPage(v + pageSize, frames[1], Rights::Read);
    rig.p.setAllocCursor(v + 3 * pageSize);
    const int ro = rig.kernel.capGrant(rig.p, v, 2 * pageSize, 0);
    ASSERT_GE(ro, 0);
    const std::uint64_t ro_word = rig.p.dmaGrant().capWords.back();

    // The same frames, writable throughout, in another process.
    Process &q = rig.kernel.createProcess("q");
    const Addr w = mapFrames(q, frames);
    const int rw = rig.kernel.capGrant(q, w, 2 * pageSize, 0);
    ASSERT_GE(rw, 0);
    const std::uint64_t rw_word = q.dmaGrant().capWords.back();

    EXPECT_EQ(rig.table().check(static_cast<unsigned>(rw), rw_word,
                                frames[1], frames[0], 64),
              CapFault::None);
    EXPECT_EQ(rig.table().check(static_cast<unsigned>(ro), ro_word,
                                frames[1], frames[0], 64),
              CapFault::SpanDenied);
}

TEST(FrameRuns, RingFramesFollowPhysicalRuns)
{
    MachineConfig config;
    configureNode(config.node, DmaMethod::Ring);
    Machine machine(config);
    prepareMachine(machine, DmaMethod::Ring);
    Kernel &kernel = machine.node(0).kernel();
    Process &p = kernel.createProcess("p");
    ASSERT_TRUE(kernel.setupRing(p, 4));

    // Three frames back to back.  The process maps the outer two as
    // one virtual range, and the middle one on a page of its own that
    // is never authorized.
    const Addr f0 = kernel.allocFrames(3);
    const Addr f1 = f0 + pageSize;
    const Addr f2 = f0 + 2 * pageSize;
    const Addr v = mapFrames(p, {f0, f2});
    const Addr vmid = mapFrames(p, {f1});
    kernel.authorizeRingDma(p, v, 2 * pageSize);

    Program prog;
    emitRingBatch(prog, kernel, p,
                  {{v, v + pageSize, 64},
                   {v + pageSize + 128, v + 128, 64},
                   {vmid, v, 64}});
    prog.exit();
    kernel.launch(p, std::move(prog));
    machine.start();
    ASSERT_TRUE(machine.run(60 * tickPerSec));

    const DmaEngine &engine = machine.node(0).dmaEngine();
    ASSERT_EQ(engine.initiations().size(), 2u);
    EXPECT_EQ(engine.initiations()[0].src, f0);
    EXPECT_EQ(engine.initiations()[0].dst, f2);
    EXPECT_EQ(engine.initiations()[1].src, f2 + 128);
    EXPECT_EQ(engine.initiations()[1].dst, f0 + 128);
    EXPECT_EQ(engine.numRingRejects(), 1u);
}

} // namespace
} // namespace uldma
