/**
 * @file
 * Security edge cases beyond the headline attacks:
 *
 *  - a process cannot reach shadow addresses for pages it does not
 *    own (the page table is the protection boundary of §2.3);
 *  - extended shadow addressing: a process cannot forge another
 *    CONTEXT_ID because the kernel bakes the id into the only shadow
 *    PTEs the process has (§3.2);
 *  - kernel DMA refuses transfers the caller lacks rights for;
 *  - figure 8(a): five cooperating processes of ONE application can
 *    legitimately contribute one access each to a 5-instruction
 *    sequence (the paper's point that write-sharing implies consent);
 *  - kernel register block is unreachable from user space;
 *  - an atomic shadow mapping whose CONTEXT_ID does not fit the atomic
 *    unit's window is refused rather than aliased.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "core/methods.hh"

namespace uldma {
namespace {

TEST(SecurityEdges, ShadowAccessWithoutMappingFaults)
{
    MachineConfig config;
    configureNode(config.node, DmaMethod::ExtShadow);
    Machine machine(config);
    Kernel &kernel = machine.node(0).kernel();

    Process &victim = kernel.createProcess("victim");
    Process &snoop = kernel.createProcess("snoop");
    kernel.grantShadowContext(victim);
    kernel.grantShadowContext(snoop);

    const Addr v = kernel.allocate(victim, pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(victim, v, pageSize);
    const Addr victim_shadow = kernel.shadowVaddrFor(victim, v);

    // The snoop tries the *same virtual address* — its page table has
    // no such mapping, so the access faults and the process dies.
    Program sp;
    sp.load(reg::t0, victim_shadow);
    sp.exit();
    kernel.launch(snoop, std::move(sp));

    Program vp;
    vp.compute(10);
    vp.exit();
    kernel.launch(victim, std::move(vp));

    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));
    EXPECT_EQ(snoop.state(), RunState::Faulted);
    EXPECT_EQ(machine.node(0).dmaEngine().numInitiations(), 0u);
}

TEST(SecurityEdges, ContextIdCannotBeForged)
{
    // Two processes, two CONTEXT_IDs.  The attacker creates shadow
    // mappings for ITS pages; the kernel stamps the attacker's ctx id
    // into the physical address.  Even replaying the victim's exact
    // two-access sequence, the attacker's accesses land in its own
    // latch, never the victim's.
    MachineConfig config;
    configureNode(config.node, DmaMethod::ExtShadow);
    config.node.makeScheduler = []() {
        // Fine-grained interleaving.
        return std::make_unique<RoundRobinScheduler>(2 * tickPerUs);
    };
    Machine machine(config);
    Kernel &kernel = machine.node(0).kernel();

    Process &victim = kernel.createProcess("victim");
    Process &mal = kernel.createProcess("mal");
    ASSERT_TRUE(kernel.grantShadowContext(victim));
    ASSERT_TRUE(kernel.grantShadowContext(mal));
    // The grant is reaped when the victim exits, so read its
    // CONTEXT_ID now.
    const unsigned victim_ctx = *victim.dmaGrant().shadowContext;

    const Addr va = kernel.allocate(victim, pageSize, Rights::ReadWrite);
    const Addr vb = kernel.allocate(victim, pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(victim, va, pageSize);
    kernel.createShadowMappings(victim, vb, pageSize);

    const Addr ma = kernel.allocate(mal, pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(mal, ma, pageSize);

    const Addr paddr_b =
        kernel.translateFor(victim, vb, Rights::Write).paddr;

    // Victim repeatedly DMAs A->B; attacker interleaves stores/loads
    // of its own shadow page trying to poison the victim's latch.
    Program vp;
    std::uint64_t failures = 0;
    for (int i = 0; i < 20; ++i) {
        emitInitiation(vp, kernel, victim, DmaMethod::ExtShadow, va, vb,
                       64);
        vp.callback([&failures](ExecContext &ctx) {
            if (ctx.reg(reg::v0) == dmastatus::failure)
                ++failures;
        });
        vp.membar();   // fresh shadow accesses each round (footnote 6)
    }
    vp.exit();

    Program mp;
    const Addr mal_shadow = kernel.shadowVaddrFor(mal, ma);
    for (int i = 0; i < 60; ++i) {
        mp.store(mal_shadow, 32);
        mp.load(reg::t0, mal_shadow);
        mp.membar();
    }
    mp.exit();

    kernel.launch(victim, std::move(vp));
    kernel.launch(mal, std::move(mp));
    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));

    // The victim never failed: per-CONTEXT_ID latches isolate it.
    EXPECT_EQ(failures, 0u);
    // Every victim transfer went exactly where intended.
    unsigned victim_initiations = 0;
    for (const auto &rec : machine.node(0).dmaEngine().initiations()) {
        if (rec.ctx == victim_ctx) {
            ++victim_initiations;
            EXPECT_EQ(rec.dst, paddr_b);
        }
    }
    EXPECT_GT(victim_initiations, 0u);
}

TEST(SecurityEdges, KernelDmaChecksCallerRights)
{
    MachineConfig config;
    Machine machine(config);
    Kernel &kernel = machine.node(0).kernel();

    Process &owner = kernel.createProcess("owner");
    Process &thief = kernel.createProcess("thief");
    // Skip a slot in the owner's address space so the secret's virtual
    // address is NOT mapped in the thief's (both allocators start at
    // the same base).
    kernel.allocate(owner, pageSize, Rights::ReadWrite);
    const Addr secret = kernel.allocate(owner, pageSize,
                                        Rights::ReadWrite);
    const Addr thief_buf = kernel.allocate(thief, pageSize,
                                           Rights::ReadWrite);
    ASSERT_FALSE(kernel.translateFor(thief, secret, Rights::Read).ok());

    // The thief asks the kernel to DMA from the owner's secret (a
    // virtual address not mapped in the thief's table).
    std::uint64_t status = 0;
    Program tp;
    tp.move(reg::a0, secret);
    tp.move(reg::a1, thief_buf);
    tp.move(reg::a2, 64);
    tp.syscall(sys::dma);
    tp.callback([&status](ExecContext &ctx) {
        status = ctx.reg(reg::v0);
    });
    tp.exit();
    kernel.launch(thief, std::move(tp));

    Program op;
    op.exit();
    kernel.launch(owner, std::move(op));

    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));
    EXPECT_EQ(status, ~std::uint64_t(0));
    EXPECT_EQ(machine.node(0).dmaEngine().numInitiations(), 0u);
}

TEST(SecurityEdges, Figure8aCooperatingApplication)
{
    // Five processes of one application share the source and
    // destination pages rw.  The figure-8(a) interleaving — each
    // process contributes exactly one access of the 5-sequence — is
    // legitimate (the paper: write-sharing implies synchronization
    // and consent), and the engine does start the transfer.
    MachineConfig config;
    configureNode(config.node, DmaMethod::Repeated5);
    const Pid p1 = 1, p2 = 2, p3 = 3, p4 = 4, p5 = 5;
    std::vector<ScriptedScheduler::Slice> script = {
        {p1, 1}, {p2, 1}, {p3, 1}, {p4, 1}, {p5, 1}};
    config.node.makeScheduler = [&script]() {
        return std::make_unique<ScriptedScheduler>(script);
    };
    Machine machine(config);
    Kernel &kernel = machine.node(0).kernel();

    Process &leader = kernel.createProcess("t1");
    const Addr a = kernel.allocate(leader, pageSize, Rights::ReadWrite);
    const Addr b = kernel.allocate(leader, pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(leader, a, pageSize);
    kernel.createShadowMappings(leader, b, pageSize);
    const Addr sa = kernel.shadowVaddrFor(leader, a);
    const Addr sb = kernel.shadowVaddrFor(leader, b);

    std::vector<Process *> team = {&leader};
    for (int i = 2; i <= 5; ++i) {
        Process &t = kernel.createProcess("t" + std::to_string(i));
        const Addr ta = kernel.mapShared(leader, a, pageSize, t,
                                         Rights::ReadWrite);
        const Addr tb = kernel.mapShared(leader, b, pageSize, t,
                                         Rights::ReadWrite);
        kernel.createShadowMappings(t, ta, pageSize);
        kernel.createShadowMappings(t, tb, pageSize);
        // Shared pages have identical physical (hence shadow virtual)
        // addresses in every team member.
        EXPECT_EQ(kernel.shadowVaddrFor(t, ta), sa);
        EXPECT_EQ(kernel.shadowVaddrFor(t, tb), sb);
        team.push_back(&t);
    }

    // One access per process: ST LD ST LD LD (figure 8(a)).
    Program s1, s2, s3, s4, s5;
    s1.store(sb, 96);
    s1.exit();
    s2.load(reg::t0, sa);
    s2.exit();
    s3.store(sb, 96);
    s3.exit();
    s4.load(reg::t0, sa);
    s4.exit();
    s5.load(reg::v0, sb);
    s5.exit();
    kernel.launch(*team[0], std::move(s1));
    kernel.launch(*team[1], std::move(s2));
    kernel.launch(*team[2], std::move(s3));
    kernel.launch(*team[3], std::move(s4));
    kernel.launch(*team[4], std::move(s5));

    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));

    DmaEngine &engine = machine.node(0).dmaEngine();
    ASSERT_EQ(engine.initiations().size(), 1u);
    const auto &rec = engine.initiations()[0];
    EXPECT_EQ(rec.size, 96u);
    // All five pids contributed — legitimate cooperation.
    ASSERT_EQ(rec.contributors.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(rec.contributors[i], i + 1);
}

TEST(SecurityEdges, RecognizerResetsOnDifferentContext)
{
    // §3.3 regression: the sequence recognizer must reset when an
    // access from a *different CONTEXT_ID* interleaves, even if that
    // access names the exact physical addresses the half-done sequence
    // expects next.  With shared pages the intruder's shadow mappings
    // strip to the same target addresses as the victim's, so the only
    // thing distinguishing its accesses is the context id baked into
    // its shadow PTEs — without the context check the intruder could
    // finish the victim's sequence and hijack the initiation.
    MachineConfig config;
    configureNode(config.node, DmaMethod::Repeated5);
    config.node.dma.ctxIdBits = 1;   // two shadow CONTEXT_IDs
    const Pid vp = 1, ip = 2;
    std::vector<ScriptedScheduler::Slice> script = {{vp, 2}, {ip, 3}};
    config.node.makeScheduler = [&script]() {
        return std::make_unique<ScriptedScheduler>(script);
    };
    Machine machine(config);
    Kernel &kernel = machine.node(0).kernel();

    Process &victim = kernel.createProcess("victim");       // ctx 0
    Process &intruder = kernel.createProcess("intruder");   // ctx 1
    ASSERT_TRUE(kernel.grantShadowContext(victim));
    ASSERT_TRUE(kernel.grantShadowContext(intruder));
    ASSERT_NE(*victim.dmaGrant().shadowContext,
              *intruder.dmaGrant().shadowContext);

    const Addr src = kernel.allocate(victim, pageSize, Rights::ReadWrite);
    const Addr dst = kernel.allocate(victim, pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(victim, src, pageSize);
    kernel.createShadowMappings(victim, dst, pageSize);
    const Addr s_src = kernel.shadowVaddrFor(victim, src);
    const Addr s_dst = kernel.shadowVaddrFor(victim, dst);

    // The intruder legitimately shares both pages (so the interleaved
    // accesses differ ONLY in CONTEXT_ID, not in target address).
    const Addr isrc = kernel.mapShared(victim, src, pageSize, intruder,
                                       Rights::ReadWrite);
    const Addr idst = kernel.mapShared(victim, dst, pageSize, intruder,
                                       Rights::ReadWrite);
    kernel.createShadowMappings(intruder, isrc, pageSize);
    kernel.createShadowMappings(intruder, idst, pageSize);
    EXPECT_EQ(kernel.shadowVaddrFor(intruder, isrc), s_src);
    EXPECT_EQ(kernel.shadowVaddrFor(intruder, idst), s_dst);

    // Victim: the first two accesses of the 5-sequence, then nothing
    // (no retry loop — the half-done FSM state is the point).
    Program vprog;
    vprog.store(s_dst, 96);
    vprog.load(reg::t0, s_src);
    vprog.exit();

    // Intruder: exactly the three accesses that would complete the
    // sequence, at the matching shadow addresses.
    Program iprog;
    iprog.store(s_dst, 96);
    iprog.load(reg::t0, s_src);
    iprog.load(reg::t1, s_dst);
    iprog.exit();

    kernel.launch(victim, std::move(vprog));
    kernel.launch(intruder, std::move(iprog));
    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));

    DmaEngine &engine = machine.node(0).dmaEngine();
    // The context switch reset the recognizer: no transfer started.
    EXPECT_EQ(engine.numInitiations(), 0u);
    EXPECT_GE(engine.numFsmResets(), 1u);
}

TEST(SecurityEdges, KernelRegistersUnreachableFromUserSpace)
{
    // No user page table ever maps the kernel register block; a
    // process that guesses its virtual address just faults.
    MachineConfig config;
    Machine machine(config);
    Kernel &kernel = machine.node(0).kernel();
    Process &p = kernel.createProcess("p");

    Program prog;
    prog.store(0x4000'0000, 0xDEAD);   // kregs base as a vaddr guess
    prog.exit();
    kernel.launch(p, std::move(prog));
    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));
    EXPECT_EQ(p.state(), RunState::Faulted);
}

TEST(SecurityEdges, AtomicContextIdOutsideItsWindowIsRefused)
{
    // The kernel hands out shadow CONTEXT_IDs sized by the DMA engine
    // (two bits on an ext-shadow node), but the atomic unit's window
    // has none by default.  The second process's id would carry into
    // the operation bits, so its atomic_add would decode as
    // fetch_and_store; mapping it is refused instead.
    MachineConfig config;
    configureNode(config.node, DmaMethod::ExtShadow);
    ASSERT_EQ(config.node.dma.ctxIdBits, 2u);
    ASSERT_EQ(config.node.atomic.ctxIdBits, 0u);
    Machine machine(config);
    Kernel &kernel = machine.node(0).kernel();

    Process &first = kernel.createProcess("first");     // ctx 0
    Process &second = kernel.createProcess("second");   // ctx 1
    ASSERT_TRUE(kernel.grantShadowContext(first));
    ASSERT_TRUE(kernel.grantShadowContext(second));
    const Addr a = kernel.allocate(first, pageSize, Rights::ReadWrite);
    const Addr b = kernel.allocate(second, pageSize, Rights::ReadWrite);

    kernel.createAtomicShadowMappings(first, a, pageSize, AtomicOp::Add);
    EXPECT_DEATH(kernel.createAtomicShadowMappings(second, b, pageSize,
                                                   AtomicOp::Add),
                 "does not fit 0 CONTEXT_ID bit");
}

} // namespace
} // namespace uldma
