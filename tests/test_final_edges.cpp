/**
 * @file
 * Last-mile edge cases: cross-context key confusion, branch-off-end
 * semantics, costed callbacks, mapped-out status readback, and the
 * engine's kernel-register readback paths.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "core/methods.hh"

namespace uldma {
namespace {

TEST(FinalEdges, OwnKeyWithForeignContextIdIsRejected)
{
    // A process that legitimately owns context 1 cannot use its own
    // key with context 0's id: keys are per-context.
    MachineConfig config;
    configureNode(config.node, DmaMethod::KeyBased);
    Machine machine(config);
    Kernel &kernel = machine.node(0).kernel();

    Process &victim = kernel.createProcess("victim");
    Process &mal = kernel.createProcess("mal");
    ASSERT_TRUE(kernel.grantKeyContext(victim));   // ctx 0
    ASSERT_TRUE(kernel.grantKeyContext(mal));      // ctx 1
    ASSERT_EQ(*victim.dmaGrant().keyContext, 0u);
    ASSERT_EQ(*mal.dmaGrant().keyContext, 1u);

    const Addr buf = kernel.allocate(mal, pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(mal, buf, pageSize);

    // mal's key, victim's context id.
    const std::uint64_t forged =
        keyfield::pack(mal.dmaGrant().key, 0);
    Program mp;
    // Two different shadow addresses (same-address stores would
    // collapse in the write buffer and only one would reach the
    // engine — footnote 6 again).
    mp.store(kernel.shadowVaddrFor(mal, buf), forged);
    mp.store(kernel.shadowVaddrFor(mal, buf + 64), forged);
    mp.membar();
    mp.exit();
    kernel.launch(mal, std::move(mp));

    Program vp;
    vp.exit();
    kernel.launch(victim, std::move(vp));

    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));

    DmaEngine &engine = machine.node(0).dmaEngine();
    EXPECT_EQ(engine.numKeyMismatches(), 2u);
    EXPECT_EQ(engine.numInitiations(), 0u);
}

TEST(FinalEdges, BranchPastEndExitsCleanly)
{
    Machine machine{MachineConfig{}};
    Kernel &kernel = machine.node(0).kernel();
    Process &p = kernel.createProcess("p");

    Program prog;
    prog.move(reg::t0, 1);
    prog.branchEq(reg::t0, 1, 99);   // far past the end
    prog.move(reg::t1, 2);           // skipped
    kernel.launch(p, std::move(prog));
    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));
    EXPECT_EQ(p.state(), RunState::Exited);
    EXPECT_EQ(p.context().reg(reg::t1), 0u);
}

TEST(FinalEdges, CallbackCyclesAreCharged)
{
    Machine machine{MachineConfig{}};
    Kernel &kernel = machine.node(0).kernel();
    Process &p = kernel.createProcess("p");

    Program prog;
    prog.callback([](ExecContext &) {}, /*cycles=*/15000);   // 100 us
    prog.exit();
    kernel.launch(p, std::move(prog));
    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));
    // The last event fires at ~100 us minus sub-instruction slack.
    EXPECT_GE(machine.now(), 99 * tickPerUs);
}

TEST(FinalEdges, MappedOutStatusReadableAtKernelStatusRegister)
{
    // After a SHRIMP-1 initiation, the engine's kernel STATUS register
    // still reports the *kernel channel* (not the mapped-out one) —
    // the channels are independent.
    MachineConfig config;
    configureNode(config.node, DmaMethod::Shrimp1);
    Machine machine(config);
    Kernel &kernel = machine.node(0).kernel();
    Process &p = kernel.createProcess("p");
    const Addr src = kernel.allocate(p, pageSize, Rights::ReadWrite);
    const Addr dst = kernel.allocate(p, pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(p, src, pageSize);
    kernel.setupMapOut(
        p, src, kernel.translateFor(p, dst, Rights::Write).paddr);

    std::uint64_t status = 0, poll = 0;
    Program prog;
    emitInitiation(prog, kernel, p, DmaMethod::Shrimp1, src, dst, 64);
    prog.callback([&status](ExecContext &ctx) {
        status = ctx.reg(reg::v0);
    });
    prog.syscall(sys::dmaPoll);   // kernel channel: idle -> 0
    prog.callback([&poll](ExecContext &ctx) {
        poll = ctx.reg(reg::v0);
    });
    prog.exit();
    kernel.launch(p, std::move(prog));
    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));

    EXPECT_EQ(status, dmastatus::ok);
    EXPECT_EQ(poll, 0u);
    EXPECT_EQ(machine.node(0).dmaEngine().numInitiations(), 1u);
}

TEST(FinalEdges, EmptyMachineRunCompletesImmediately)
{
    Machine machine{MachineConfig{}};
    machine.start();
    EXPECT_TRUE(machine.run(tickPerSec));
    EXPECT_EQ(machine.now(), 0u);
}

TEST(FinalEdges, EngineKernelRegistersReadBack)
{
    // Figure-1 registers are readable (drivers use this for
    // diagnostics); checked through the privileged kernel path.
    MachineConfig config;
    Machine machine(config);
    Cpu &cpu = machine.node(0).cpu();
    const Addr base = dmaKernelRegsBase;

    Packet w = Packet::makeWrite(base + kregs::source, 0x1234);
    cpu.kernelBusAccess(w);
    Packet r = Packet::makeRead(base + kregs::source);
    cpu.kernelBusAccess(r);
    EXPECT_EQ(r.data, 0x1234u);

    Packet tag_w = Packet::makeWrite(base + kregs::osProcessTag, 77);
    cpu.kernelBusAccess(tag_w);
    Packet tag_r = Packet::makeRead(base + kregs::osProcessTag);
    cpu.kernelBusAccess(tag_r);
    EXPECT_EQ(tag_r.data, 77u);
}

} // namespace
} // namespace uldma
