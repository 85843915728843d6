/**
 * @file
 * Unit tests for the cpu module: program builder, micro-op semantics,
 * PAL-mode atomicity (the §2.7 property), quantum accounting, faults,
 * and interaction with the write buffer.
 */

#include <gtest/gtest.h>

#include "cpu/cpu.hh"
#include "mem/memory_device.hh"
#include "sim/ticks.hh"

namespace uldma {
namespace {

/** Minimal OS stub that records upcalls. */
class StubOs : public OsCallbacks
{
  public:
    SyscallResult
    syscall(ExecContext &ctx, std::uint64_t number) override
    {
        ++syscalls;
        lastSyscall = number;
        lastA0 = ctx.reg(reg::a0);
        SyscallResult r;
        r.retval = 0x600D;
        r.cost = syscallCost;
        return r;
    }

    Tick
    handleFault(ExecContext &, Fault fault, Addr vaddr) override
    {
        ++faults;
        lastFault = fault;
        lastFaultAddr = vaddr;
        if (cpu != nullptr)
            cpu->setCurrentContext(nullptr);   // kill: idle the CPU
        return 0;
    }

    Tick
    quantumExpired() override
    {
        ++quantumExpiries;
        if (cpu != nullptr && stopOnQuantum)
            cpu->setCurrentContext(nullptr);
        return 0;
    }

    Tick
    yielded() override
    {
        ++yields;
        if (cpu != nullptr)
            cpu->setCurrentContext(nullptr);
        return 0;
    }

    Tick
    exited() override
    {
        ++exits;
        if (cpu != nullptr)
            cpu->setCurrentContext(nullptr);
        return 0;
    }

    Cpu *cpu = nullptr;
    bool stopOnQuantum = false;
    Tick syscallCost = 0;
    unsigned syscalls = 0, faults = 0, quantumExpiries = 0, yields = 0,
             exits = 0;
    std::uint64_t lastSyscall = 0, lastA0 = 0;
    Fault lastFault = Fault::None;
    Addr lastFaultAddr = 0;
};

class CpuTest : public ::testing::Test
{
  protected:
    CpuTest()
        : memory_(1 << 20), bus_(eq_, "bus", BusParams{}),
          dram_("dram", memory_),
          cpu_(eq_, "cpu", CpuParams{}, bus_, memory_),
          ctx_(1, "proc", pt_)
    {
        bus_.attach(&dram_);
        cpu_.setOs(&os_);
        os_.cpu = &cpu_;
        // Identity-map the low megabyte, cacheable, rw.
        pt_.mapRange(0, 0, (1 << 20) / pageSize, Rights::ReadWrite);
    }

    /** Run @p program on the context to completion. */
    void
    run(Program program)
    {
        ctx_.setProgram(std::move(program));
        cpu_.setCurrentContext(&ctx_);
        cpu_.start();
        eq_.runToExhaustion();
    }

    EventQueue eq_;
    PhysicalMemory memory_;
    Bus bus_;
    MemoryDevice dram_;
    StubOs os_;
    Cpu cpu_;
    PageTable pt_;
    ExecContext ctx_;
};

// ---------------------------------------------------------------------
// Basic micro-op semantics.
// ---------------------------------------------------------------------

TEST_F(CpuTest, MoveAddBranchLoop)
{
    // t0 = 0; do { t0 += 1 } while (t0 != 5)
    Program p;
    p.move(reg::t0, 0);
    const int top = p.here();
    p.addImm(reg::t0, reg::t0, 1);
    p.branchNe(reg::t0, 5, top);
    p.exit();
    run(std::move(p));

    EXPECT_EQ(ctx_.reg(reg::t0), 5u);
    EXPECT_EQ(os_.exits, 1u);
    // 1 move + 5*(add) + 5*(branch) + exit = 12 instructions.
    EXPECT_EQ(ctx_.instructionsRetired(), 12u);
}

TEST_F(CpuTest, LoadStoreCached)
{
    Program p;
    p.store(0x1000, 0xABCD, 8);
    p.load(reg::t0, 0x1000, 8);
    p.exit();
    run(std::move(p));

    EXPECT_EQ(ctx_.reg(reg::t0), 0xABCDu);
    EXPECT_EQ(memory_.readInt(0x1000, 8), 0xABCDu);
    // Cached accesses never touch the I/O bus.
    EXPECT_EQ(bus_.numTransactions(), 0u);
}

TEST_F(CpuTest, StoreRegAndIndirect)
{
    Program p;
    p.move(reg::t1, 0x2000);            // base address
    p.move(reg::t2, 77);
    p.storeIndirectReg(reg::t1, 8, reg::t2);
    p.loadIndirect(reg::t0, reg::t1, 8);
    p.exit();
    run(std::move(p));
    EXPECT_EQ(ctx_.reg(reg::t0), 77u);
    EXPECT_EQ(memory_.readInt(0x2008, 8), 77u);
}

TEST_F(CpuTest, SubWordAccessSizes)
{
    Program p;
    p.store(0x3000, 0x11223344AABBCCDDull, 8);
    p.load(reg::t0, 0x3000, 1);
    p.load(reg::t1, 0x3000, 2);
    p.load(reg::t2, 0x3000, 4);
    p.exit();
    run(std::move(p));
    EXPECT_EQ(ctx_.reg(reg::t0), 0xDDu);
    EXPECT_EQ(ctx_.reg(reg::t1), 0xCCDDu);
    EXPECT_EQ(ctx_.reg(reg::t2), 0xAABBCCDDu);
}

TEST_F(CpuTest, AtomicRmwCached)
{
    Program p;
    p.store(0x4000, 10, 8);
    p.atomicRmw(reg::t0, 0x4000, 99, 8);
    p.load(reg::t1, 0x4000, 8);
    p.exit();
    run(std::move(p));
    EXPECT_EQ(ctx_.reg(reg::t0), 10u);   // old value
    EXPECT_EQ(ctx_.reg(reg::t1), 99u);   // new value
}

TEST_F(CpuTest, CallbackSeesAndEditsRegisters)
{
    Program p;
    p.move(reg::t0, 5);
    p.callback([](ExecContext &ctx) {
        ctx.setReg(reg::t1, ctx.reg(reg::t0) * 2);
    });
    p.exit();
    run(std::move(p));
    EXPECT_EQ(ctx_.reg(reg::t1), 10u);
}

TEST_F(CpuTest, ComputeAdvancesTime)
{
    Program p;
    p.compute(1000);
    p.exit();
    run(std::move(p));
    // >= 1000 CPU cycles at 150 MHz.
    EXPECT_GE(eq_.now(), cpu_.cyclesToTicks(1000));
}

TEST_F(CpuTest, FallingOffTheEndExits)
{
    Program p;
    p.move(reg::t0, 1);
    run(std::move(p));
    EXPECT_EQ(os_.exits, 1u);
}

// ---------------------------------------------------------------------
// Traps and faults.
// ---------------------------------------------------------------------

TEST_F(CpuTest, SyscallPassesArgsAndReturnsV0)
{
    Program p;
    p.move(reg::a0, 0xAAAA);
    p.syscall(3);
    p.exit();
    run(std::move(p));
    EXPECT_EQ(os_.syscalls, 1u);
    EXPECT_EQ(os_.lastSyscall, 3u);
    EXPECT_EQ(os_.lastA0, 0xAAAAu);
    EXPECT_EQ(ctx_.reg(reg::v0), 0x600Du);
}

TEST_F(CpuTest, SyscallCostAdvancesTime)
{
    os_.syscallCost = 1000 * tickPerNs;
    Program p;
    p.syscall(0);
    p.exit();
    run(std::move(p));
    EXPECT_GE(eq_.now(), 1000 * tickPerNs);
}

TEST_F(CpuTest, UnmappedLoadFaults)
{
    Program p;
    p.load(reg::t0, 0x7000'0000);   // far outside the mapped MiB
    p.exit();
    run(std::move(p));
    EXPECT_EQ(os_.faults, 1u);
    EXPECT_EQ(os_.lastFault, Fault::NotMapped);
    EXPECT_EQ(os_.lastFaultAddr, 0x7000'0000u);
    EXPECT_EQ(ctx_.state(), RunState::Faulted);
    EXPECT_EQ(os_.exits, 0u);   // killed, not exited
}

TEST_F(CpuTest, WriteToReadOnlyFaults)
{
    pt_.mapPage(0x4000'0000, 0x8000, Rights::Read);
    Program p;
    p.store(0x4000'0000, 1);
    p.exit();
    run(std::move(p));
    EXPECT_EQ(os_.faults, 1u);
    EXPECT_EQ(os_.lastFault, Fault::ProtectionWrite);
}

// ---------------------------------------------------------------------
// Quantum accounting (the preemption machinery of the paper's races).
// ---------------------------------------------------------------------

TEST_F(CpuTest, InstructionQuantumExpires)
{
    os_.stopOnQuantum = true;
    Program p;
    for (int i = 0; i < 10; ++i)
        p.move(reg::t0, i);
    p.exit();
    ctx_.setProgram(std::move(p));
    cpu_.setCurrentContext(&ctx_);
    cpu_.setInstructionQuantum(3);
    cpu_.start();
    eq_.runToExhaustion();

    EXPECT_EQ(os_.quantumExpiries, 1u);
    EXPECT_EQ(ctx_.instructionsRetired(), 3u);   // stopped at boundary
}

TEST_F(CpuTest, ZeroQuantumMeansUnlimited)
{
    Program p;
    for (int i = 0; i < 10; ++i)
        p.move(reg::t0, i);
    p.exit();
    ctx_.setProgram(std::move(p));
    cpu_.setCurrentContext(&ctx_);
    cpu_.setInstructionQuantum(0);
    cpu_.start();
    eq_.runToExhaustion();
    EXPECT_EQ(os_.quantumExpiries, 0u);
    EXPECT_EQ(os_.exits, 1u);
}

TEST_F(CpuTest, TimeQuantumExpires)
{
    os_.stopOnQuantum = true;
    Program p;
    for (int i = 0; i < 100; ++i)
        p.compute(100);
    p.exit();
    ctx_.setProgram(std::move(p));
    cpu_.setCurrentContext(&ctx_);
    cpu_.setTimeQuantum(cpu_.cyclesToTicks(250));
    cpu_.start();
    eq_.runToExhaustion();
    EXPECT_EQ(os_.quantumExpiries, 1u);
    EXPECT_LT(ctx_.instructionsRetired(), 100u);
}

TEST_F(CpuTest, YieldUpcall)
{
    Program p;
    p.move(reg::t0, 1);
    p.yield();
    p.exit();
    run(std::move(p));
    EXPECT_EQ(os_.yields, 1u);
    // The kernel idled us at yield; the exit never ran.
    EXPECT_EQ(os_.exits, 0u);
    // Resume: the PC is past the yield.
    cpu_.setCurrentContext(&ctx_);
    cpu_.start();
    eq_.runToExhaustion();
    EXPECT_EQ(os_.exits, 1u);
}

// ---------------------------------------------------------------------
// PAL mode (§2.7): uninterruptible execution.
// ---------------------------------------------------------------------

TEST_F(CpuTest, PalExecutesAtomicallyUnderQuantum)
{
    // PAL body: 6 moves.  With a 1-instruction quantum the CallPal
    // counts as a single instruction; no expiry can occur inside.
    Program pal;
    for (int i = 0; i < 6; ++i)
        pal.move(reg::t0, i);
    cpu_.registerPal(1, std::move(pal));

    os_.stopOnQuantum = false;
    Program p;
    p.callPal(1);
    p.exit();
    ctx_.setProgram(std::move(p));
    cpu_.setCurrentContext(&ctx_);
    cpu_.setInstructionQuantum(1);
    cpu_.start();
    eq_.runToExhaustion();

    // Quantum expired exactly at the CallPal boundary, not inside.
    EXPECT_EQ(ctx_.reg(reg::t0), 5u);   // whole body ran
    EXPECT_GE(os_.quantumExpiries, 1u);
    EXPECT_EQ(cpu_.numPalCalls(), 1u);
}

TEST_F(CpuTest, PalRegistersArgumentsWork)
{
    // PAL: t0 = a0 + a1 (via memory bounce).
    Program pal;
    pal.storeIndirectReg(reg::a0, 0, reg::a1);
    pal.loadIndirect(reg::t0, reg::a0, 0);
    cpu_.registerPal(2, std::move(pal));

    Program p;
    p.move(reg::a0, 0x5000);
    p.move(reg::a1, 1234);
    p.callPal(2);
    p.exit();
    run(std::move(p));
    EXPECT_EQ(ctx_.reg(reg::t0), 1234u);
}

TEST_F(CpuTest, PalCallbackRunsThePalHook)
{
    // Both programs hold a hook at index 0: a Callback in the PAL body
    // must run the PAL's, not the calling process's.
    unsigned pal_runs = 0, proc_runs = 0;
    Program pal;
    pal.move(reg::t0, 3);
    pal.callback([&pal_runs](ExecContext &ctx) {
        ++pal_runs;
        ctx.setReg(reg::t1, ctx.reg(reg::t0) + 1);
    });
    cpu_.registerPal(5, std::move(pal));

    Program p;
    p.callback([&proc_runs](ExecContext &) { ++proc_runs; });
    p.callPal(5);
    p.exit();
    run(std::move(p));
    EXPECT_EQ(pal_runs, 1u);
    EXPECT_EQ(proc_runs, 1u);
    EXPECT_EQ(ctx_.reg(reg::t1), 4u);
}

TEST_F(CpuTest, PalTooLongPanics)
{
    Program pal;
    for (unsigned i = 0; i < Cpu::palMaxInstructions + 1; ++i)
        pal.move(reg::t0, i);
    EXPECT_DEATH(cpu_.registerPal(3, std::move(pal)), "limit");
}

TEST_F(CpuTest, PalWithTrapPanics)
{
    Program pal;
    pal.syscall(0);
    EXPECT_DEATH(cpu_.registerPal(4, std::move(pal)), "trapping");
}

TEST_F(CpuTest, UnregisteredPalPanics)
{
    Program p;
    p.callPal(42);
    p.exit();
    EXPECT_DEATH(run(std::move(p)), "not installed");
}

// ---------------------------------------------------------------------
// Uncached accesses go through the write buffer to the bus.
// ---------------------------------------------------------------------

TEST_F(CpuTest, UncachedStoreReachesBusOnMembar)
{
    pt_.mapPage(0x5000'0000, 0x10000, Rights::ReadWrite,
                /*uncacheable=*/true);
    Program p;
    p.store(0x5000'0000, 0xCAFE);
    p.callback([this](ExecContext &) {
        // Still buffered: no bus transaction yet.
        EXPECT_EQ(bus_.numTransactions(), 0u);
    });
    p.membar();
    p.callback([this](ExecContext &) {
        EXPECT_EQ(bus_.numTransactions(), 1u);
    });
    p.exit();
    run(std::move(p));
    EXPECT_EQ(memory_.readInt(0x10000, 8), 0xCAFEu);
}

TEST_F(CpuTest, UncachedAccessesAreSlower)
{
    pt_.mapPage(0x5000'0000, 0x10000, Rights::ReadWrite,
                /*uncacheable=*/true);
    Program cached;
    cached.load(reg::t0, 0x1000);
    cached.exit();
    run(std::move(cached));
    const Tick cached_time = eq_.now();

    // Fresh run for the uncached version.
    Program uncached;
    uncached.load(reg::t0, 0x5000'0000);
    uncached.exit();
    ctx_.setProgram(std::move(uncached));
    cpu_.setCurrentContext(&ctx_);
    cpu_.start();
    const Tick start = eq_.now();
    eq_.runToExhaustion();
    EXPECT_GT(eq_.now() - start, cached_time);
}

TEST_F(CpuTest, StatsCountInstructionClasses)
{
    pt_.mapPage(0x5000'0000, 0x10000, Rights::ReadWrite,
                /*uncacheable=*/true);
    Program p;
    p.store(0x1000, 1);              // cached store
    p.load(reg::t0, 0x1000);         // cached load
    p.store(0x5000'0000, 2);         // uncached store
    p.load(reg::t1, 0x5000'0000);    // uncached load
    p.membar();
    p.exit();
    run(std::move(p));

    EXPECT_EQ(cpu_.instructionsRetired(), 6u);
    EXPECT_EQ(cpu_.numUncachedAccesses(), 2u);
}

} // namespace
} // namespace uldma
