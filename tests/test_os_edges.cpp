/**
 * @file
 * OS and engine edge cases not covered elsewhere: kernel-channel
 * polling, SHRIMP-1 initiation via a plain (posted) store, unknown
 * syscalls, remote-window rights, and the end-to-end claim that the
 * kernel path loses the small-message round trip (paper §2.2's
 * motivation, asserted rather than eyeballed).
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "core/methods.hh"

namespace uldma {
namespace {

TEST(OsEdges, DmaPollTracksKernelChannel)
{
    Machine machine{MachineConfig{}};
    Kernel &kernel = machine.node(0).kernel();
    Process &p = kernel.createProcess("p");
    const Addr src = kernel.allocate(p, 16 * pageSize, Rights::ReadWrite);
    const Addr dst = kernel.allocate(p, 16 * pageSize, Rights::ReadWrite);

    std::vector<std::uint64_t> polls;
    Program prog;
    prog.move(reg::a0, src);
    prog.move(reg::a1, dst);
    prog.move(reg::a2, 16 * pageSize);
    prog.syscall(sys::dma);
    // Poll three times with compute gaps; remaining must decrease.
    for (int i = 0; i < 3; ++i) {
        prog.syscall(sys::dmaPoll);
        prog.callback([&polls](ExecContext &ctx) {
            polls.push_back(ctx.reg(reg::v0));
        });
        prog.compute(60000);   // 400 us
    }
    // Then poll until the channel reports completion.
    const int poll = prog.syscall(sys::dmaPoll);
    prog.branchNe(reg::v0, 0, poll);
    prog.callback([&polls](ExecContext &ctx) {
        polls.push_back(ctx.reg(reg::v0));
    });
    prog.exit();
    kernel.launch(p, std::move(prog));
    machine.start();
    ASSERT_TRUE(machine.run(60 * tickPerSec));

    ASSERT_EQ(polls.size(), 4u);
    EXPECT_GT(polls[0], polls[1]);
    EXPECT_GT(polls[1], polls[2]);
    EXPECT_EQ(polls[3], 0u);   // complete once the poll loop ends
}

TEST(OsEdges, Shrimp1PostedStoreAlsoInitiates)
{
    // §2.4 models a compare-and-exchange, but a posted store to the
    // shadow of a mapped-out page also carries (address, size); the
    // engine starts the transfer — the caller just gets no status.
    MachineConfig config;
    configureNode(config.node, DmaMethod::Shrimp1);
    Machine machine(config);
    Kernel &kernel = machine.node(0).kernel();
    Process &p = kernel.createProcess("p");
    const Addr src = kernel.allocate(p, pageSize, Rights::ReadWrite);
    const Addr dst = kernel.allocate(p, pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(p, src, pageSize);
    const Addr dst_paddr = kernel.translateFor(p, dst,
                                               Rights::Write).paddr;
    kernel.setupMapOut(p, src, dst_paddr);
    machine.node(0).memory().fill(
        kernel.translateFor(p, src, Rights::Read).paddr, 0x2B, 64);

    Program prog;
    prog.store(kernel.shadowVaddrFor(p, src), 64);
    prog.membar();
    prog.exit();
    kernel.launch(p, std::move(prog));
    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));

    EXPECT_EQ(machine.node(0).dmaEngine().numInitiations(), 1u);
    EXPECT_EQ(machine.node(0).memory().readInt(dst_paddr, 1), 0x2Bu);
}

TEST(OsEdges, UnknownSyscallReturnsFailureAndWarns)
{
    // Only 0-3 are assigned (os/syscalls.hh).  Any other number costs
    // what an empty syscall does: the trap alone.
    for (const std::uint64_t number :
         {4, 5, 6, 7, 8, 9, 10, 11, 12, 999}) {
        Machine machine{MachineConfig{}};
        Kernel &kernel = machine.node(0).kernel();
        Process &p = kernel.createProcess("p");

        const unsigned warns_before = warnCount();
        std::uint64_t status = 0;
        Tick stamps[3] = {};
        Program prog;
        prog.callback([&](ExecContext &) { stamps[0] = machine.now(); });
        prog.syscall(sys::noop);
        prog.callback([&](ExecContext &) { stamps[1] = machine.now(); });
        prog.syscall(number);
        prog.callback([&](ExecContext &ctx) {
            stamps[2] = machine.now();
            status = ctx.reg(reg::v0);
        });
        prog.exit();
        kernel.launch(p, std::move(prog));
        machine.start();
        ASSERT_TRUE(machine.run(tickPerSec)) << number;

        EXPECT_EQ(status, ~std::uint64_t(0)) << number;
        EXPECT_EQ(warnCount(), warns_before + 1) << number;
        EXPECT_EQ(stamps[2] - stamps[1], stamps[1] - stamps[0]) << number;
        EXPECT_EQ(p.state(), RunState::Exited) << number;   // not killed
    }
}

TEST(OsEdges, RemoteWindowRespectsGrantedRights)
{
    MachineConfig config;
    config.numNodes = 2;
    Machine machine(config);
    Kernel &kernel = machine.node(0).kernel();
    Process &p = kernel.createProcess("p");

    // Read-only window: stores through it must fault.
    const Addr win = kernel.mapRemoteWindow(p, 1, 0x40000, pageSize,
                                            Rights::Read);
    Program prog;
    prog.store(win, 0xBAD);
    prog.exit();
    kernel.launch(p, std::move(prog));
    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));
    EXPECT_EQ(p.state(), RunState::Faulted);
    EXPECT_EQ(machine.network().messagesSent(), 0u);
}

TEST(OsEdges, KernelLosesTheSmallMessageRace)
{
    // §2.2 asserted: for small messages the kernel trap costs more
    // than the whole user-level round… measure one-way delivery time
    // of a 64-byte message, kernel vs ext-shadow initiation.
    auto deliver_us = [](DmaMethod method) {
        MachineConfig config;
        config.numNodes = 2;
        configureNode(config.node, method);
        Machine machine(config);
        prepareMachine(machine, method);
        Kernel &k0 = machine.node(0).kernel();
        Process &sender = k0.createProcess("s");
        prepareProcess(k0, sender, method);
        const Addr src = k0.allocate(sender, pageSize,
                                     Rights::ReadWrite);
        k0.createShadowMappings(sender, src, pageSize);
        const Addr win = k0.mapRemoteWindow(sender, 1, 0x50000,
                                            pageSize, Rights::ReadWrite);
        k0.createShadowMappings(sender, win, pageSize);
        machine.node(0).memory().fill(
            k0.translateFor(sender, src, Rights::Read).paddr, 0x3F, 64);

        // Receiver polls its own memory.
        Kernel &k1 = machine.node(1).kernel();
        Process &receiver = k1.createProcess("r");
        receiver.pageTable().mapPage(0x7600'0000, 0x50000,
                                     Rights::ReadWrite);
        Tick arrived = 0;
        Program rp;
        const int poll = rp.here();
        rp.load(reg::t0, 0x7600'0000 + 63, 1);
        rp.branchNe(reg::t0, 0x3F, poll);
        rp.callback([&arrived, &machine](ExecContext &) {
            arrived = machine.now();
        });
        rp.exit();
        k1.launch(receiver, std::move(rp));

        Program sp;
        emitInitiation(sp, k0, sender, method, src, win, 64);
        sp.exit();
        k0.launch(sender, std::move(sp));

        machine.start();
        machine.run(10 * tickPerSec);
        return ticksToUs(arrived);
    };

    const double kernel_us = deliver_us(DmaMethod::Kernel);
    const double user_us = deliver_us(DmaMethod::ExtShadow);
    // The kernel path loses by roughly its trap overhead (~15 us).
    EXPECT_GT(kernel_us, user_us + 10.0);
}

} // namespace
} // namespace uldma
