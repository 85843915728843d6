/**
 * @file
 * Unit tests for the mem module: address ranges, physical memory, bus
 * routing and timing, and the write/merge buffer (whose collapsing and
 * load-servicing behaviours footnote 6 of the paper warns about).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/addr_range.hh"
#include "mem/bus.hh"
#include "mem/memory_device.hh"
#include "mem/merge_buffer.hh"
#include "mem/physical_memory.hh"
#include "sim/ticks.hh"

namespace uldma {
namespace {

// ---------------------------------------------------------------------
// AddrRange
// ---------------------------------------------------------------------

TEST(AddrRange, ContainsAndSpans)
{
    const AddrRange r(0x1000, 0x2000);
    EXPECT_EQ(r.size(), 0x1000u);
    EXPECT_TRUE(r.contains(0x1000));
    EXPECT_TRUE(r.contains(0x1FFF));
    EXPECT_FALSE(r.contains(0x2000));
    EXPECT_FALSE(r.contains(0x0FFF));
    EXPECT_TRUE(r.containsSpan(0x1000, 0x1000));
    EXPECT_FALSE(r.containsSpan(0x1001, 0x1000));
    EXPECT_TRUE(r.containsSpan(0x1FFF, 1));
}

TEST(AddrRange, Overlaps)
{
    const AddrRange a(0x1000, 0x2000);
    EXPECT_TRUE(a.overlaps(AddrRange(0x1800, 0x2800)));
    EXPECT_TRUE(a.overlaps(AddrRange(0x0, 0x1001)));
    EXPECT_FALSE(a.overlaps(AddrRange(0x2000, 0x3000)));
    EXPECT_FALSE(a.overlaps(AddrRange(0x0, 0x1000)));
}

TEST(AddrRange, Offset)
{
    const AddrRange r(0x1000, 0x2000);
    EXPECT_EQ(r.offset(0x1234), 0x234u);
}

// ---------------------------------------------------------------------
// PhysicalMemory
// ---------------------------------------------------------------------

TEST(PhysicalMemory, IntAccessRoundTrip)
{
    PhysicalMemory mem(64 * 1024);
    mem.writeInt(0x100, 0x1122334455667788ull, 8);
    EXPECT_EQ(mem.readInt(0x100, 8), 0x1122334455667788ull);
    EXPECT_EQ(mem.readInt(0x100, 4), 0x55667788u);
    EXPECT_EQ(mem.readInt(0x100, 2), 0x7788u);
    EXPECT_EQ(mem.readInt(0x100, 1), 0x88u);
}

TEST(PhysicalMemory, FillAndCopy)
{
    PhysicalMemory mem(64 * 1024);
    mem.fill(0x0, 0xAB, 256);
    EXPECT_EQ(mem.readInt(0x0, 1), 0xABu);
    EXPECT_EQ(mem.readInt(0xFF, 1), 0xABu);
    EXPECT_EQ(mem.readInt(0x100, 1), 0u);

    mem.copy(0x1000, 0x0, 256);
    EXPECT_EQ(mem.readInt(0x10FF, 1), 0xABu);
}

TEST(PhysicalMemory, BulkReadWrite)
{
    PhysicalMemory mem(4096);
    std::uint8_t out[16] = {};
    std::uint8_t in[16];
    for (int i = 0; i < 16; ++i)
        in[i] = static_cast<std::uint8_t>(i * 3);
    mem.write(100, in, 16);
    mem.read(100, out, 16);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(out[i], in[i]);
}

TEST(PhysicalMemory, FreshMemoryReadsZeroEverywhere)
{
    constexpr Addr size = 64 * 1024 * 1024;
    PhysicalMemory mem(size);
    EXPECT_EQ(mem.size(), size);
    EXPECT_EQ(mem.readInt(0, 8), 0u);
    EXPECT_EQ(mem.readInt(size - 1, 1), 0u);
    std::uint8_t page[4096];
    mem.read(size / 2 + 4096 * 3, page, sizeof(page));
    for (const std::uint8_t byte : page)
        ASSERT_EQ(byte, 0u);
}

TEST(PhysicalMemory, ReusedMemoryReadsZeroEverywhere)
{
    // The model checker builds and frees one 2 MiB machine per
    // schedule, so a new memory may reuse the pages the previous one
    // dirtied.  Three rounds reach reuse under any allocator.
    constexpr Addr size = 2 * 1024 * 1024;
    std::vector<std::uint8_t> bytes(size);
    for (int round = 0; round < 3; ++round) {
        PhysicalMemory mem(size);
        mem.read(0, bytes.data(), size);
        const auto dirty = std::find_if(
            bytes.begin(), bytes.end(),
            [](std::uint8_t b) { return b != 0; });
        ASSERT_EQ(dirty, bytes.end())
            << "round " << round << ": nonzero byte at offset "
            << (dirty - bytes.begin());
        mem.fill(0, 0xA5, size);
    }
}

TEST(PhysicalMemory, SizeNeedNotBeAPageMultiple)
{
    PhysicalMemory mem(4097);
    EXPECT_EQ(mem.readInt(4096, 1), 0u);
    mem.writeInt(4096, 0x5C, 1);
    EXPECT_EQ(mem.readInt(4096, 1), 0x5Cu);
    EXPECT_EQ(mem.readInt(4095, 1), 0u);
}

TEST(PhysicalMemoryDeath, OutOfRangePanics)
{
    PhysicalMemory mem(4096);
    EXPECT_DEATH(mem.readInt(4096, 8), "outside memory");
    EXPECT_DEATH(mem.writeInt(4090, 0, 8), "outside memory");
}

TEST(PhysicalMemoryDeath, ZeroSizePanics)
{
    EXPECT_DEATH({ PhysicalMemory mem(0); }, "zero-sized physical memory");
}

// ---------------------------------------------------------------------
// Bus
// ---------------------------------------------------------------------

/** Device recording accesses and answering with a constant. */
class ProbeDevice : public BusDevice
{
  public:
    ProbeDevice(std::string name, AddrRange range, Tick latency)
        : name_(std::move(name)), range_(range), latency_(latency)
    {}

    const std::string &deviceName() const override { return name_; }
    std::vector<AddrRange> deviceRanges() const override
    {
        return {range_};
    }

    Tick
    access(Packet &pkt) override
    {
        accesses.push_back(pkt);
        if (pkt.isRead())
            pkt.data = 0x5A5A;
        return latency_;
    }

    std::vector<Packet> accesses;

  private:
    std::string name_;
    AddrRange range_;
    Tick latency_;
};

TEST(Bus, RoutesByAddress)
{
    EventQueue eq;
    Bus bus(eq, "bus", BusParams{});
    ProbeDevice low("low", AddrRange(0x0, 0x1000), 0);
    ProbeDevice high("high", AddrRange(0x1000, 0x2000), 0);
    bus.attach(&low);
    bus.attach(&high);

    Packet a = Packet::makeWrite(0x10, 1);
    bus.access(a);
    Packet b = Packet::makeRead(0x1800);
    bus.access(b);

    EXPECT_EQ(low.accesses.size(), 1u);
    EXPECT_EQ(high.accesses.size(), 1u);
    EXPECT_EQ(b.data, 0x5A5Au);
    EXPECT_EQ(bus.numWrites(), 1u);
    EXPECT_EQ(bus.numReads(), 1u);
}

TEST(Bus, OverlappingAttachPanics)
{
    EventQueue eq;
    Bus bus(eq, "bus", BusParams{});
    ProbeDevice a("a", AddrRange(0x0, 0x1000), 0);
    ProbeDevice b("b", AddrRange(0x800, 0x1800), 0);
    bus.attach(&a);
    EXPECT_DEATH(bus.attach(&b), "overlaps");
}

TEST(Bus, UnmappedAccessPanics)
{
    EventQueue eq;
    Bus bus(eq, "bus", BusParams{});
    Packet pkt = Packet::makeRead(0x9999);
    EXPECT_DEATH(bus.access(pkt), "no device");
}

TEST(Bus, WriteLatencyIsPhasesPlusDevice)
{
    EventQueue eq;
    Bus bus(eq, "bus", BusParams{});   // 80 ns cycle
    ProbeDevice dev("d", AddrRange(0x0, 0x1000), 240 * tickPerNs);
    bus.attach(&dev);

    // At tick 0 (on an edge): arb(1) + writeData(2) = 3 cycles = 240ns,
    // plus 240ns device latency = 480ns total.
    Packet pkt = Packet::makeWrite(0x0, 7);
    EXPECT_EQ(bus.access(pkt), 480 * tickPerNs);
}

TEST(Bus, AccessAlignsToClockEdge)
{
    EventQueue eq;
    Bus bus(eq, "bus", BusParams{});
    ProbeDevice dev("d", AddrRange(0x0, 0x1000), 0);
    bus.attach(&dev);

    // Off-edge start: latency includes the wait for the next edge.
    eq.advanceTo(10 * tickPerNs);
    Packet pkt = Packet::makeWrite(0x0, 7);
    // Next edge at 80ns: wait 70ns + 3 cycles (240ns) = 310ns.
    EXPECT_EQ(bus.access(pkt), 310 * tickPerNs);
}

TEST(Bus, ReadCostsMoreThanWrite)
{
    EventQueue eq;
    Bus bus(eq, "bus", BusParams{});
    ProbeDevice dev("d", AddrRange(0x0, 0x1000), 0);
    bus.attach(&dev);
    Packet w = Packet::makeWrite(0x0, 7);
    Packet r = Packet::makeRead(0x0);
    EXPECT_LE(bus.access(w), bus.access(r));
}

TEST(Bus, PciPresetsAreFaster)
{
    EventQueue eq;
    Bus tc(eq, "tc", BusParams{});
    Bus pci(eq, "pci", BusParams::pci33());
    Bus pci66(eq, "pci66", BusParams::pci66());
    ProbeDevice d1("d1", AddrRange(0x0, 0x1000), 0);
    ProbeDevice d2("d2", AddrRange(0x0, 0x1000), 0);
    ProbeDevice d3("d3", AddrRange(0x0, 0x1000), 0);
    tc.attach(&d1);
    pci.attach(&d2);
    pci66.attach(&d3);

    Packet a = Packet::makeWrite(0x0, 1);
    Packet b = Packet::makeWrite(0x0, 1);
    Packet c = Packet::makeWrite(0x0, 1);
    const Tick t_tc = tc.access(a);
    const Tick t_pci = pci.access(b);
    const Tick t_pci66 = pci66.access(c);
    EXPECT_GT(t_tc, t_pci);
    EXPECT_GT(t_pci, t_pci66);
}

// ---------------------------------------------------------------------
// MemoryDevice
// ---------------------------------------------------------------------

TEST(MemoryDevice, ReadsWritesBackingStore)
{
    EventQueue eq;
    PhysicalMemory mem(4096);
    Bus bus(eq, "bus", BusParams{});
    MemoryDevice dram("dram", mem);
    bus.attach(&dram);

    Packet w = Packet::makeWrite(0x20, 0xFEED, 8);
    bus.access(w);
    EXPECT_EQ(mem.readInt(0x20, 8), 0xFEEDu);

    Packet r = Packet::makeRead(0x20, 8);
    bus.access(r);
    EXPECT_EQ(r.data, 0xFEEDu);
}

TEST(MemoryDevice, RmwExchanges)
{
    EventQueue eq;
    PhysicalMemory mem(4096);
    Bus bus(eq, "bus", BusParams{});
    MemoryDevice dram("dram", mem);
    bus.attach(&dram);

    mem.writeInt(0x40, 111, 8);
    Packet x = Packet::makeWrite(0x40, 222, 8);
    x.rmw = true;
    bus.access(x);
    EXPECT_EQ(x.data, 111u);                 // old value returned
    EXPECT_EQ(mem.readInt(0x40, 8), 222u);   // new value stored
}

// ---------------------------------------------------------------------
// MergeBuffer (footnote 6 behaviours)
// ---------------------------------------------------------------------

class MergeBufferTest : public ::testing::Test
{
  protected:
    MergeBufferTest()
        : bus_(eq_, "bus", BusParams{}),
          probe_("dev", AddrRange(0x0, 0x10000), 0)
    {
        bus_.attach(&probe_);
    }

    MergeBuffer
    make(MergeBufferParams params)
    {
        return MergeBuffer("wb", bus_, params);
    }

    EventQueue eq_;
    Bus bus_;
    ProbeDevice probe_;
};

TEST_F(MergeBufferTest, StoresAreBufferedUntilDrain)
{
    MergeBuffer wb = make({});
    EXPECT_EQ(wb.store(Packet::makeWrite(0x100, 1)), 0u);
    EXPECT_TRUE(wb.hasPendingStores());
    EXPECT_EQ(probe_.accesses.size(), 0u);

    wb.drain();
    EXPECT_FALSE(wb.hasPendingStores());
    ASSERT_EQ(probe_.accesses.size(), 1u);
    EXPECT_EQ(probe_.accesses[0].paddr, 0x100u);
}

TEST_F(MergeBufferTest, SameAddressStoresCollapse)
{
    MergeBuffer wb = make({});
    wb.store(Packet::makeWrite(0x100, 1));
    wb.store(Packet::makeWrite(0x100, 2));   // collapses
    wb.drain();
    ASSERT_EQ(probe_.accesses.size(), 1u);   // only one reached the bus
    EXPECT_EQ(probe_.accesses[0].data, 2u);  // the later value
    EXPECT_EQ(wb.numCollapsedStores(), 1u);
}

TEST_F(MergeBufferTest, CollapseDisabledKeepsBoth)
{
    MergeBufferParams params;
    params.collapseStores = false;
    MergeBuffer wb = make(params);
    wb.store(Packet::makeWrite(0x100, 1));
    wb.store(Packet::makeWrite(0x100, 2));
    wb.drain();
    EXPECT_EQ(probe_.accesses.size(), 2u);
}

TEST_F(MergeBufferTest, LoadDrainsPendingStoresFirst)
{
    MergeBuffer wb = make({});
    wb.store(Packet::makeWrite(0x100, 1));
    wb.store(Packet::makeWrite(0x200, 2));
    Packet r = Packet::makeRead(0x300);
    wb.load(r);
    ASSERT_EQ(probe_.accesses.size(), 3u);
    EXPECT_EQ(probe_.accesses[0].paddr, 0x100u);  // program order
    EXPECT_EQ(probe_.accesses[1].paddr, 0x200u);
    EXPECT_EQ(probe_.accesses[2].paddr, 0x300u);
}

TEST_F(MergeBufferTest, RepeatLoadIsServicedByReadBuffer)
{
    MergeBuffer wb = make({});
    Packet r1 = Packet::makeRead(0x100);
    wb.load(r1);
    Packet r2 = Packet::makeRead(0x100);
    const Tick cost = wb.load(r2);
    EXPECT_EQ(cost, 0u);                     // no bus traffic
    EXPECT_EQ(probe_.accesses.size(), 1u);   // device saw only one load
    EXPECT_EQ(r2.data, r1.data);
    EXPECT_EQ(wb.numMergedLoads(), 1u);
}

TEST_F(MergeBufferTest, MembarRestoresVisibility)
{
    MergeBuffer wb = make({});
    Packet r1 = Packet::makeRead(0x100);
    wb.load(r1);
    wb.membar();
    Packet r2 = Packet::makeRead(0x100);
    wb.load(r2);
    EXPECT_EQ(probe_.accesses.size(), 2u);   // both loads reached device
}

TEST_F(MergeBufferTest, StoreInvalidatesReadBufferEntry)
{
    MergeBuffer wb = make({});
    Packet r1 = Packet::makeRead(0x100);
    wb.load(r1);
    wb.store(Packet::makeWrite(0x100, 9));
    Packet r2 = Packet::makeRead(0x100);
    wb.load(r2);
    // Store + second load both reached the device (3 total accesses).
    EXPECT_EQ(probe_.accesses.size(), 3u);
}

TEST_F(MergeBufferTest, ReadBufferCapacityEvicts)
{
    MergeBufferParams params;
    params.readBufferEntries = 2;
    MergeBuffer wb = make(params);
    Packet r1 = Packet::makeRead(0x100);
    Packet r2 = Packet::makeRead(0x200);
    Packet r3 = Packet::makeRead(0x300);
    wb.load(r1);
    wb.load(r2);
    wb.load(r3);   // evicts 0x100
    Packet r4 = Packet::makeRead(0x100);
    wb.load(r4);
    EXPECT_EQ(probe_.accesses.size(), 4u);   // 0x100 re-fetched
    EXPECT_EQ(wb.numMergedLoads(), 0u);
}

TEST_F(MergeBufferTest, CapacityForcesOldestDrain)
{
    MergeBufferParams params;
    params.capacity = 2;
    MergeBuffer wb = make(params);
    wb.store(Packet::makeWrite(0x100, 1));
    wb.store(Packet::makeWrite(0x200, 2));
    wb.store(Packet::makeWrite(0x300, 3));   // forces 0x100 out
    ASSERT_EQ(probe_.accesses.size(), 1u);
    EXPECT_EQ(probe_.accesses[0].paddr, 0x100u);
    EXPECT_EQ(wb.numPendingStores(), 2u);
}

TEST_F(MergeBufferTest, RmwDrainsAndNeverMerges)
{
    MergeBuffer wb = make({});
    wb.store(Packet::makeWrite(0x100, 1));
    Packet x = Packet::makeWrite(0x200, 42);
    x.rmw = true;
    wb.rmw(x);
    ASSERT_EQ(probe_.accesses.size(), 2u);
    EXPECT_EQ(probe_.accesses[0].paddr, 0x100u);
    EXPECT_TRUE(probe_.accesses[1].rmw);
}

TEST_F(MergeBufferTest, MergeLoadsDisabled)
{
    MergeBufferParams params;
    params.mergeLoads = false;
    MergeBuffer wb = make(params);
    Packet r1 = Packet::makeRead(0x100);
    Packet r2 = Packet::makeRead(0x100);
    wb.load(r1);
    wb.load(r2);
    EXPECT_EQ(probe_.accesses.size(), 2u);
}

} // namespace
} // namespace uldma
