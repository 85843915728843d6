/**
 * @file
 * Tests for per-thread DRAM recycling (mem/physical_memory.hh).  A
 * destroyed memory leaves its mapping to the next memory of the same
 * size built on its thread, which zeroes only the pages the last owner
 * wrote.  So every write path must mark what it changes: after each
 * one (direct writes, a DMA, a remote NIC store, each atomic op, whole
 * checker runs) the next memory must read zero everywhere.  The slot
 * tests cover size changes, threads and thread exit; the last test
 * checks that the swarm campaign's report does not depend on whether
 * its machines got fresh or recycled mappings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/fuzzer.hh"
#include "check/runner.hh"
#include "dma/transfer_backend.hh"
#include "dma/transfer_engine.hh"
#include "mem/physical_memory.hh"
#include "nic/atomic_unit.hh"
#include "nic/network.hh"
#include "nic/network_interface.hh"
#include "sim/ticks.hh"

namespace uldma {
namespace {

constexpr Addr twoMiB = 2 * 1024 * 1024;
constexpr Addr fourMiB = 4 * 1024 * 1024;

/** Offset of the first nonzero byte of @p mem, or its size if none. */
Addr
firstNonzero(const PhysicalMemory &mem)
{
    std::vector<std::uint8_t> bytes(mem.size());
    mem.read(0, bytes.data(), bytes.size());
    const auto it = std::find_if(bytes.begin(), bytes.end(),
                                 [](std::uint8_t b) { return b != 0; });
    return static_cast<Addr>(it - bytes.begin());
}

/**
 * The memory of @p size built next on this thread must take the
 * mapping @p recycled (just released) and read zero everywhere.
 */
void
expectNextReadsZero(Addr size, const std::uint8_t *recycled)
{
    PhysicalMemory next(size);
    EXPECT_EQ(next.data(), recycled) << "the mapping was not recycled";
    EXPECT_EQ(firstNonzero(next), size) << "first nonzero byte";
}

/** Dirty a memory of @p size through @p writes, free it, check. */
void
expectRecycledZero(Addr size,
                   const std::function<void(PhysicalMemory &)> &writes)
{
    const std::uint8_t *mapping = nullptr;
    {
        PhysicalMemory mem(size);
        EXPECT_EQ(firstNonzero(mem), size) << "first nonzero byte";
        writes(mem);
        ASSERT_LT(firstNonzero(mem), size) << "the path wrote nothing";
        mapping = mem.data();
    }
    expectNextReadsZero(size, mapping);
}

// ---------------------------------------------------------------------
// Write paths.
// ---------------------------------------------------------------------

TEST(DramRecycling, EachWritePathLeavesNothingBehind)
{
    struct Case
    {
        const char *name;
        Addr size;
        std::function<void(PhysicalMemory &)> writes;
    };
    const std::vector<Case> cases = {
        {"write", twoMiB,
         [](PhysicalMemory &mem) {
             const std::vector<std::uint8_t> bytes(40, 0x5A);
             mem.write(0x3011, bytes.data(), bytes.size());
         }},
        {"writeInt at the top", twoMiB,
         [](PhysicalMemory &mem) {
             mem.writeInt(twoMiB - 8, 0x1122334455667788ull, 8);
         }},
        {"fill over four pages", twoMiB,
         [](PhysicalMemory &mem) { mem.fill(0x10000, 0xA5, 3 * 4096 + 5); }},
        // The fill marks the source page; only copy() can mark the
        // destination, five pages away.
        {"copy", twoMiB,
         [](PhysicalMemory &mem) {
             mem.fill(0x1000, 0x3C, 256);
             mem.copy(0x6000, 0x1000, 256);
         }},
        {"write straddling a page boundary", twoMiB,
         [](PhysicalMemory &mem) {
             mem.writeInt(0x4000 - 3, ~std::uint64_t(0), 8);
         }},
        {"last partial page", 4097,
         [](PhysicalMemory &mem) { mem.writeInt(4096, 0x5C, 1); }},
        {"into the last partial page", 4097,
         [](PhysicalMemory &mem) {
             mem.writeInt(4089, ~std::uint64_t(0), 8);
         }},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        expectRecycledZero(c.size, c.writes);
    }
}

TEST(DramRecycling, TransferEngineDmaLeavesNothingBehind)
{
    const std::uint8_t *mapping = nullptr;
    {
        PhysicalMemory mem(twoMiB);
        EventQueue eq;
        LocalBackend backend(mem);
        const ClockDomain bus_clock("bus.clk", 80 * tickPerNs);
        TransferEngine xfer(eq, "xfer", bus_clock, backend);
        mem.fill(0x1000, 0x77, 512);
        xfer.start(0x1000, 0x40000, 512, [] {});
        eq.runToExhaustion();
        ASSERT_EQ(mem.readInt(0x40000 + 511, 1), 0x77u);
        mapping = mem.data();
    }
    expectNextReadsZero(twoMiB, mapping);
}

/** Two 4 MiB nodes on one network, with a NIC and an atomic unit on
 *  node 0.  Members are destroyed in the order the tests choose. */
struct TwoNodes
{
    EventQueue eq;
    std::unique_ptr<PhysicalMemory> mem0 =
        std::make_unique<PhysicalMemory>(fourMiB);
    std::unique_ptr<PhysicalMemory> mem1 =
        std::make_unique<PhysicalMemory>(fourMiB);
    ClockDomain busClock{"bus.clk", 80 * tickPerNs};
    std::unique_ptr<Network> network = std::make_unique<Network>(eq);
    std::unique_ptr<NetworkInterface> nic0;
    std::unique_ptr<AtomicUnit> unit;

    TwoNodes()
    {
        NicParams params;
        params.windowSize = fourMiB;
        network->addNode(*mem0);
        network->addNode(*mem1);
        nic0 = std::make_unique<NetworkInterface>(
            "nic0", params, busClock, *network, 0, *mem0);
        unit = std::make_unique<AtomicUnit>("atomic", AtomicUnitParams{},
                                            busClock, *nic0);
    }

    /** Free everything but @p keep, then @p keep; return its mapping. */
    const std::uint8_t *
    releaseLast(std::unique_ptr<PhysicalMemory> &keep)
    {
        unit.reset();
        nic0.reset();
        network.reset();
        (&keep == &mem0 ? mem1 : mem0).reset();
        const std::uint8_t *mapping = keep->data();
        keep.reset();
        return mapping;
    }
};

TEST(DramRecycling, RemoteNicStoreLeavesNothingBehind)
{
    TwoNodes nodes;
    Packet pkt = Packet::makeWrite(
        nodes.nic0->remoteWindowAddr(1, 0x5000), 0x42);
    nodes.nic0->access(pkt);
    nodes.eq.runToExhaustion();
    ASSERT_EQ(nodes.mem1->readInt(0x5000, 8), 0x42u);
    expectNextReadsZero(fourMiB, nodes.releaseLast(nodes.mem1));
}

TEST(DramRecycling, EachAtomicOpLeavesNothingBehind)
{
    // Each op turns a zero target into 222: add 222, store 222, and
    // swap 0 for 222.
    for (const AtomicOp op : {AtomicOp::Add, AtomicOp::FetchStore,
                              AtomicOp::CompareSwap}) {
        for (const bool remote : {false, true}) {
            SCOPED_TRACE(std::string(toString(op)) +
                         (remote ? " remote" : " local"));
            TwoNodes nodes;
            const Addr target =
                remote ? nodes.nic0->remoteWindowAddr(1, 0x9008)
                       : Addr(0x9008);
            auto access = [&](Packet pkt) {
                pkt.srcPid = 1;
                nodes.unit->access(pkt);
                return pkt.data;
            };
            const Addr shadow = nodes.unit->params().shadowAddr(op, target);
            if (op == AtomicOp::CompareSwap)
                access(Packet::makeWrite(shadow, 0));
            access(Packet::makeWrite(shadow, 222));
            ASSERT_EQ(access(Packet::makeRead(shadow)), 0u);

            std::unique_ptr<PhysicalMemory> &written =
                remote ? nodes.mem1 : nodes.mem0;
            ASSERT_EQ(written->readInt(0x9008, 8), 222u);
            expectNextReadsZero(fourMiB, nodes.releaseLast(written));
        }
    }
}

// ---------------------------------------------------------------------
// The per-thread spare slot.
// ---------------------------------------------------------------------

TEST(DramSlot, SizesAlternate)
{
    for (const Addr size : {twoMiB, fourMiB, twoMiB}) {
        SCOPED_TRACE(size);
        PhysicalMemory mem(size);
        EXPECT_EQ(firstNonzero(mem), size);
        mem.fill(0, 0xE1, 5 * 4096);
        mem.writeInt(size - 8, ~std::uint64_t(0), 8);
    }
    expectRecycledZero(twoMiB, [](PhysicalMemory &mem) {
        mem.fill(0, 0xE2, twoMiB);
    });
}

TEST(DramSlot, EachThreadHasItsOwnSlot)
{
    const std::uint8_t *main_mapping = nullptr;
    {
        PhysicalMemory mem(twoMiB);
        mem.fill(0x2000, 0x99, 100);
        main_mapping = mem.data();
    }
    // The main thread's spare stays mapped, so no other mapping can
    // share its address.
    std::thread worker([main_mapping] {
        const std::uint8_t *mapping = nullptr;
        {
            PhysicalMemory mem(twoMiB);
            EXPECT_NE(mem.data(), main_mapping);
            EXPECT_EQ(firstNonzero(mem), twoMiB);
            mem.fill(0x8000, 0x66, 100);
            mapping = mem.data();
        }
        expectNextReadsZero(twoMiB, mapping);
    });
    worker.join();
    expectNextReadsZero(twoMiB, main_mapping);
}

TEST(DramSlot, MemoryFreedAfterItsThreadsSlotIsGone)
{
    std::thread worker([] {
        // Registered for destruction before the slot exists, so it is
        // destroyed after the slot at thread exit.
        thread_local std::unique_ptr<PhysicalMemory> late;
        { PhysicalMemory first(twoMiB); }
        late = std::make_unique<PhysicalMemory>(twoMiB);
        late->fill(0, 0x17, 4096);
        // Leave a spare in the slot as well.
        { PhysicalMemory other(twoMiB); }
    });
    worker.join();
    expectRecycledZero(twoMiB, [](PhysicalMemory &mem) {
        mem.writeInt(0, 1, 8);
    });
}

// ---------------------------------------------------------------------
// Checker runs.
// ---------------------------------------------------------------------

TEST(DramCheckerRuns, FreshMemoryReadsZeroAfterEveryConfig)
{
    using check::RunnerConfig;
    std::vector<std::pair<std::string, RunnerConfig>> configs = {
        {"ring --iommu",
         {.method = DmaMethod::Ring, .faults = true, .useIommu = true}},
        {"ring --weaken-iommu",
         {.method = DmaMethod::Ring, .faults = true, .useIommu = true,
          .weakIommu = true}},
        {"ring --weaken-ring",
         {.method = DmaMethod::Ring, .faults = true, .weakRing = true}},
        {"cap --weaken-cap",
         {.method = DmaMethod::Cap, .faults = true, .weakCap = true}},
        {"repeated --weaken",
         {.method = DmaMethod::Repeated5, .faults = true,
          .weakRecognizer = true}},
    };
    for (const DmaMethod method :
         {DmaMethod::PalCode, DmaMethod::KeyBased, DmaMethod::ExtShadow,
          DmaMethod::Repeated5, DmaMethod::Ring, DmaMethod::Cap}) {
        configs.emplace_back(check::protocolToken(method),
                             RunnerConfig{.method = method, .faults = true});
    }

    for (const auto &[name, config] : configs) {
        SCOPED_TRACE(name);
        const std::uint64_t space =
            check::runSchedule(config, {}).boundarySpace;
        const std::uint8_t *mapping = nullptr;
        {
            PhysicalMemory probe(twoMiB);
            mapping = probe.data();
        }
        // The run's machine takes the probe's mapping and leaves it
        // back in the slot.
        check::runSchedule(config, {space / 3, space / 2});
        expectNextReadsZero(twoMiB, mapping);
    }
}

// ---------------------------------------------------------------------
// Determinism.
// ---------------------------------------------------------------------

TEST(DramDeterminism, SwarmCampaignTwiceOnOneThreadMatchesGolden)
{
    std::ifstream in(std::string(ULDMA_TEST_DATA_DIR) +
                         "/golden_fuzz_swarm/report.json",
                     std::ios::binary);
    ASSERT_TRUE(in);
    std::ostringstream golden;
    golden << in.rdbuf();

    // Same campaign as `uldma_check --fuzz --swarm --seed=11
    // --budget-schedules=2000`; the second run starts on the first
    // run's recycled mapping.
    check::FuzzConfig config;
    config.swarm = true;
    config.seed = 11;
    config.budgetSchedules = 2000;
    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE(round);
        std::ostringstream report;
        check::writeFuzzJson(report, check::fuzz(config));
        EXPECT_TRUE(report.str() == golden.str())
            << "report differs from the golden file";
    }
}

} // namespace
} // namespace uldma
