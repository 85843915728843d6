/**
 * @file
 * IOMMU subsystem tests (docs/IOMMU.md): vm::Tlb edge cases the CPU
 * path never exercised, IoTlb set-associativity and generation-based
 * staleness, Iommu map/pin/translate/fault semantics under both
 * pinning policies, the kernel's IOMMU calls, and the DMA engine's
 * virtually-addressed ring path — scatter-gather splitting, aborting
 * on a translation fault, and the weakIommu raw-address bypass.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/machine.hh"
#include "core/methods.hh"
#include "iommu/iommu.hh"
#include "iommu/iotlb.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

namespace uldma {
namespace {

// ---------------------------------------------------------------------
// vm::Tlb edge cases.
// ---------------------------------------------------------------------

TEST(VmTlbEdge, EvictionAtExactlyFullCapacity)
{
    TlbParams params;
    params.entries = 2;
    Tlb tlb("tlb", params);

    PageTable pt;
    const Addr a = 0x10000, b = 0x12000, c = 0x14000;
    pt.mapPage(a, 0x100000, Rights::ReadWrite);
    pt.mapPage(b, 0x102000, Rights::ReadWrite);
    pt.mapPage(c, 0x104000, Rights::ReadWrite);

    Cycles miss = 0;
    EXPECT_TRUE(tlb.translate(pt, a, Rights::Read, miss).ok());
    EXPECT_GT(miss, 0u);
    EXPECT_TRUE(tlb.translate(pt, b, Rights::Read, miss).ok());
    EXPECT_GT(miss, 0u);

    // Touch a so b is the LRU way of the exactly-full TLB; the third
    // insert must evict b, not a.
    EXPECT_TRUE(tlb.translate(pt, a, Rights::Read, miss).ok());
    EXPECT_EQ(miss, 0u);
    EXPECT_TRUE(tlb.translate(pt, c, Rights::Read, miss).ok());
    EXPECT_GT(miss, 0u);

    EXPECT_TRUE(tlb.translate(pt, a, Rights::Read, miss).ok());
    EXPECT_EQ(miss, 0u);
    EXPECT_TRUE(tlb.translate(pt, b, Rights::Read, miss).ok());
    EXPECT_GT(miss, 0u);
}

TEST(VmTlbEdge, SamePageReuseUpdatesLruWithoutDuplicating)
{
    TlbParams params;
    params.entries = 2;
    Tlb tlb("tlb", params);

    PageTable pt;
    const Addr a = 0x10000, b = 0x12000, c = 0x14000;
    pt.mapPage(a, 0x100000, Rights::ReadWrite);
    pt.mapPage(b, 0x102000, Rights::ReadWrite);
    pt.mapPage(c, 0x104000, Rights::ReadWrite);

    Cycles miss = 0;
    tlb.translate(pt, a, Rights::Read, miss);
    tlb.translate(pt, b, Rights::Read, miss);
    const std::uint64_t misses_before = tlb.misses();

    // Re-touching a resident page (even with a different rights need)
    // is a pure hit: no re-insert, no eviction, just an LRU update.
    EXPECT_TRUE(tlb.translate(pt, a, Rights::Read, miss).ok());
    EXPECT_EQ(miss, 0u);
    EXPECT_TRUE(tlb.translate(pt, a, Rights::Write, miss).ok());
    EXPECT_EQ(miss, 0u);
    EXPECT_EQ(tlb.misses(), misses_before);

    // And the re-use refreshed a's recency: c evicts b, not a.
    tlb.translate(pt, c, Rights::Read, miss);
    EXPECT_TRUE(tlb.translate(pt, a, Rights::Read, miss).ok());
    EXPECT_EQ(miss, 0u);
}

TEST(VmTlbEdge, RightsDowngradeOnRefill)
{
    TlbParams params;
    params.entries = 4;
    Tlb tlb("tlb", params);

    PageTable pt;
    const Addr a = 0x10000;
    pt.mapPage(a, 0x100000, Rights::ReadWrite);

    Cycles miss = 0;
    EXPECT_TRUE(tlb.translate(pt, a, Rights::Write, miss).ok());
    EXPECT_TRUE(tlb.translate(pt, a, Rights::Write, miss).ok());
    EXPECT_EQ(miss, 0u);

    // Remapping the page read-only bumps the table generation: the
    // cached ReadWrite entry must not satisfy the next write — the
    // refill picks up the downgraded rights and faults.
    pt.mapPage(a, 0x100000, Rights::Read);
    const Translation w = tlb.translate(pt, a, Rights::Write, miss);
    EXPECT_EQ(w.fault, Fault::ProtectionWrite);
    const Translation r = tlb.translate(pt, a, Rights::Read, miss);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.paddr, 0x100000u);
}

// ---------------------------------------------------------------------
// IoTlb: set-associative lookup, LRU within a set, generation tags.
// ---------------------------------------------------------------------

TEST(IoTlb, LruEvictionWithinASet)
{
    // 2 entries x 2 ways = one set: every insert competes.
    IoTlb iotlb(2, 2);
    PageTableEntry pte;
    pte.rights = Rights::ReadWrite;

    pte.pfn = 1;
    iotlb.insert(0, 0x10, pte, 1);
    pte.pfn = 2;
    iotlb.insert(0, 0x20, pte, 1);
    ASSERT_NE(iotlb.lookup(0, 0x10, 1), nullptr);
    ASSERT_NE(iotlb.lookup(0, 0x20, 1), nullptr);

    // Refresh 0x10, then insert a third vpn: 0x20 is the LRU way.
    EXPECT_NE(iotlb.lookup(0, 0x10, 1), nullptr);
    pte.pfn = 3;
    iotlb.insert(0, 0x30, pte, 1);
    EXPECT_EQ(iotlb.lookup(0, 0x20, 1), nullptr);
    ASSERT_NE(iotlb.lookup(0, 0x10, 1), nullptr);
    EXPECT_EQ(iotlb.lookup(0, 0x10, 1)->pfn, 1u);
    ASSERT_NE(iotlb.lookup(0, 0x30, 1), nullptr);
    EXPECT_EQ(iotlb.lookup(0, 0x30, 1)->pfn, 3u);
}

TEST(IoTlb, StaleGenerationMisses)
{
    IoTlb iotlb(4, 2);
    PageTableEntry pte;
    pte.pfn = 7;
    pte.rights = Rights::Read;

    iotlb.insert(0, 0x10, pte, 1);
    EXPECT_NE(iotlb.lookup(0, 0x10, 1), nullptr);
    // The context's table moved on (unmap bumped the generation):
    // the cached entry is stale and must miss, with no flush needed.
    EXPECT_EQ(iotlb.lookup(0, 0x10, 2), nullptr);
}

TEST(IoTlb, InvalidateContextIsPerContext)
{
    IoTlb iotlb(2, 2);
    PageTableEntry pte;
    pte.rights = Rights::Read;

    pte.pfn = 1;
    iotlb.insert(0, 0x10, pte, 1);
    pte.pfn = 2;
    iotlb.insert(1, 0x10, pte, 1);

    iotlb.invalidateContext(0);
    EXPECT_EQ(iotlb.lookup(0, 0x10, 1), nullptr);
    ASSERT_NE(iotlb.lookup(1, 0x10, 1), nullptr);
    EXPECT_EQ(iotlb.lookup(1, 0x10, 1)->pfn, 2u);
}

// ---------------------------------------------------------------------
// Iommu: map/pin/translate/fault semantics.
// ---------------------------------------------------------------------

TEST(IommuUnit, HitAfterWalkAndCycleCosts)
{
    IommuParams params;
    params.enabled = true;
    Iommu iommu("iommu", params, 2);

    ASSERT_TRUE(iommu.mapPage(0, 0x10000, 0x200000, Rights::ReadWrite,
                              /*pin=*/true));
    const auto walk = iommu.translate(0, 0x10040, Rights::Read);
    ASSERT_TRUE(walk.ok());
    EXPECT_EQ(walk.paddr, 0x200040u);
    EXPECT_EQ(walk.cycles,
              params.iotlbMissCycles + params.walkCycles);

    const auto hit = iommu.translate(0, 0x10080, Rights::Write);
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(hit.paddr, 0x200080u);
    EXPECT_EQ(hit.cycles, params.iotlbHitCycles);

    EXPECT_EQ(iommu.hits(), 1u);
    EXPECT_EQ(iommu.misses(), 1u);
    EXPECT_EQ(iommu.walks(), 1u);
}

TEST(IommuUnit, UnmappedAndProtectionFaults)
{
    IommuParams params;
    params.enabled = true;
    Iommu iommu("iommu", params, 2);

    EXPECT_EQ(iommu.translate(0, 0x10000, Rights::Read).fault,
              IommuFault::NotMapped);

    ASSERT_TRUE(iommu.mapPage(0, 0x10000, 0x200000, Rights::Read,
                              /*pin=*/true));
    EXPECT_EQ(iommu.translate(0, 0x10000, Rights::Write).fault,
              IommuFault::Protection);
    EXPECT_TRUE(iommu.translate(0, 0x10000, Rights::Read).ok());

    // Unmap bumps the generation: the IOTLB's copy must not survive.
    iommu.unmapPage(0, 0x10000);
    EXPECT_EQ(iommu.translate(0, 0x10000, Rights::Read).fault,
              IommuFault::NotMapped);
}

TEST(IommuUnit, OnMapPolicyFaultsOnUnpinnedPage)
{
    IommuParams params;
    params.enabled = true;
    params.pinPolicy = PinPolicy::OnMap;
    Iommu iommu("iommu", params, 2);

    // Mapped but never pinned: under pin-on-map the device may not
    // touch it (there is no demand path to fall back on).
    ASSERT_TRUE(iommu.mapPage(0, 0x10000, 0x200000, Rights::ReadWrite,
                              /*pin=*/false));
    EXPECT_EQ(iommu.translate(0, 0x10000, Rights::Read).fault,
              IommuFault::NotPinned);

    ASSERT_TRUE(iommu.pinPage(0, 0x10000));
    EXPECT_TRUE(iommu.translate(0, 0x10000, Rights::Read).ok());
}

TEST(IommuUnit, PinBudgetBoundsMapTimePins)
{
    IommuParams params;
    params.enabled = true;
    params.pinPolicy = PinPolicy::OnMap;
    params.pinBudgetPages = 1;
    Iommu iommu("iommu", params, 2);

    ASSERT_TRUE(iommu.mapPage(0, 0x10000, 0x200000, Rights::ReadWrite,
                              /*pin=*/true));
    // The second pin exceeds the budget: the map itself survives (the
    // translation structure is intact) but the pin request fails.
    EXPECT_FALSE(iommu.mapPage(0, 0x12000, 0x202000, Rights::ReadWrite,
                               /*pin=*/true));
    EXPECT_EQ(iommu.pinnedPages(0), 1u);
    EXPECT_EQ(iommu.translate(0, 0x12000, Rights::Read).fault,
              IommuFault::NotPinned);
    EXPECT_TRUE(iommu.translate(0, 0x10000, Rights::Read).ok());
}

TEST(IommuUnit, OnDemandPinsAndEvictsWithinBudget)
{
    IommuParams params;
    params.enabled = true;
    params.pinPolicy = PinPolicy::OnDemand;
    params.pinBudgetPages = 1;
    Iommu iommu("iommu", params, 2);

    ASSERT_TRUE(iommu.mapPage(0, 0x10000, 0x200000, Rights::ReadWrite,
                              /*pin=*/false));
    ASSERT_TRUE(iommu.mapPage(0, 0x12000, 0x202000, Rights::ReadWrite,
                              /*pin=*/false));

    const auto first = iommu.translate(0, 0x10000, Rights::Read);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(iommu.demandPins(), 1u);
    EXPECT_EQ(iommu.pinEvictions(), 0u);
    // The demand pin's cost rides on the translation.
    EXPECT_EQ(first.cycles, params.iotlbMissCycles +
                                params.walkCycles + Iommu::pinCycles);

    // A second page pins by evicting the first (budget 1).
    ASSERT_TRUE(iommu.translate(0, 0x12000, Rights::Read).ok());
    EXPECT_EQ(iommu.demandPins(), 2u);
    EXPECT_EQ(iommu.pinEvictions(), 1u);
    EXPECT_EQ(iommu.pinnedPages(0), 1u);
}

// ---------------------------------------------------------------------
// Machine-level: the engine's virtually-addressed ring path and the
// kernel's setup-time IOMMU calls.
// ---------------------------------------------------------------------

/** One-node ring machine with an IOMMU in front of the engine. */
struct IommuRig
{
    Machine machine;
    Node &node;
    Kernel &kernel;
    Process &proc;

    static MachineConfig
    makeConfig(bool weak)
    {
        MachineConfig config;
        configureNode(config.node, DmaMethod::Ring);
        config.node.dma.iommu.enabled = true;
        config.node.dma.iommu.iotlbEntries = 8;
        config.node.dma.iommu.iotlbWays = 2;
        config.node.dma.weakIommu = weak;
        return config;
    }

    explicit IommuRig(bool weak = false)
        : machine(makeConfig(weak)),
          node(machine.node(0)),
          kernel(node.kernel()),
          proc(kernel.createProcess("proc"))
    {
        prepareMachine(machine, DmaMethod::Ring);
        EXPECT_TRUE(kernel.setupRing(proc, 4));
    }

    /** Allocate and (optionally) iommu-map a region of @p pages. */
    Addr
    buffer(Addr pages, bool iommu_map, bool pin = true)
    {
        const Addr bytes = pages * pageSize;
        const Addr va = kernel.allocate(proc, bytes, Rights::ReadWrite);
        if (iommu_map) {
            EXPECT_TRUE(kernel.iommuMapRange(proc, va, bytes, pin));
        }
        return va;
    }

    void
    run(const std::vector<RingTransfer> &batch)
    {
        Program prog;
        emitRingBatch(prog, kernel, proc, batch);
        prog.exit();
        kernel.launch(proc, std::move(prog));
        machine.start();
        ASSERT_TRUE(machine.run(60 * tickPerSec));
    }
};

TEST(IommuEngine, VirtualRingDescriptorsTranslateAndComplete)
{
    IommuRig rig;
    const Addr src = rig.buffer(1, /*iommu_map=*/true);
    const Addr dst = rig.buffer(1, /*iommu_map=*/true);
    rig.run({{src, dst, 256}});

    const DmaEngine &engine = rig.node.dmaEngine();
    EXPECT_EQ(engine.initiations().size(), 1u);
    EXPECT_EQ(engine.numIommuSegments(), 1u);
    EXPECT_EQ(engine.numRingRejects(), 0u);
    ASSERT_NE(engine.iommu(), nullptr);
    // One src-read + one dst-write translation, both walks (cold).
    EXPECT_EQ(engine.iommu()->walks(), 2u);
    EXPECT_EQ(engine.iommu()->faults(), 0u);
}

TEST(IommuEngine, ScatterGatherSplitsAtPageBoundaries)
{
    IommuRig rig;
    const Addr src = rig.buffer(4, /*iommu_map=*/true);
    const Addr dst = rig.buffer(4, /*iommu_map=*/true);
    // Three whole pages: one descriptor, three per-page transactions.
    rig.run({{src, dst, 3 * pageSize}});

    const DmaEngine &engine = rig.node.dmaEngine();
    EXPECT_EQ(engine.numRingDescriptors(), 1u);
    EXPECT_EQ(engine.initiations().size(), 3u);
    EXPECT_EQ(engine.numIommuSegments(), 3u);
    EXPECT_EQ(engine.numRingRejects(), 0u);
}

TEST(IommuEngine, UnalignedTransferSplitsAtFirstPageCrossing)
{
    IommuRig rig;
    const Addr src = rig.buffer(2, /*iommu_map=*/true);
    const Addr dst = rig.buffer(2, /*iommu_map=*/true);
    // 300 bytes starting 100 short of a page boundary: 100 + 200.
    const Addr off = pageSize - 100;
    rig.run({{src + off, dst + off, 300}});

    const DmaEngine &engine = rig.node.dmaEngine();
    EXPECT_EQ(engine.initiations().size(), 2u);
    EXPECT_EQ(engine.numIommuSegments(), 2u);
    EXPECT_EQ(engine.numRingRejects(), 0u);
}

TEST(IommuEngine, AbortPolicyRejectsUnmappedIova)
{
    // The faulting descriptor retires with an error, and the one
    // queued behind it drains and completes.
    IommuRig rig;
    const Addr src = rig.buffer(1, /*iommu_map=*/true);
    // Destination never enters the I/O page table.
    const Addr dst = rig.buffer(1, /*iommu_map=*/false);
    const Addr mapped_dst = rig.buffer(1, /*iommu_map=*/true);
    const Addr desc_paddr = rig.kernel.translateFor(
        rig.proc, rig.proc.dmaGrant().ringDescVaddr, Rights::Read).paddr;
    const Addr cpl_paddr = rig.kernel.translateFor(
        rig.proc, rig.proc.dmaGrant().ringCplVaddr, Rights::Read).paddr;
    const Addr mapped_dst_paddr =
        rig.kernel.translateFor(rig.proc, mapped_dst, Rights::Write).paddr;
    rig.run({{src, dst, 256}, {src, mapped_dst, 256}});

    const DmaEngine &engine = rig.node.dmaEngine();
    ASSERT_EQ(engine.initiations().size(), 1u);
    EXPECT_EQ(engine.initiations()[0].dst, mapped_dst_paddr);
    EXPECT_EQ(engine.numRingRejects(), 1u);
    EXPECT_GE(engine.numIommuFaults(), 1u);
    PhysicalMemory &mem = rig.node.memory();
    EXPECT_EQ(mem.readInt(cpl_paddr, 8), dmastatus::failure);
    EXPECT_TRUE(mem.readInt(desc_paddr + ringdesc::ctrlOff, 8) &
                ringdesc::ctrl::error);
    EXPECT_EQ(mem.readInt(cpl_paddr + ringdesc::cplBytes, 8), 1u);
    EXPECT_TRUE(mem.readInt(desc_paddr + ringdesc::descBytes +
                                ringdesc::ctrlOff, 8) &
                ringdesc::ctrl::done);
}

TEST(IommuEngine, EmptyAndOversizedDescriptorsAreRefused)
{
    // A virtually-addressed descriptor carries 1 to maxSgBytes bytes;
    // outside that it is refused before any translation.
    IommuRig rig;
    const Addr src = rig.buffer(1, /*iommu_map=*/true);
    const Addr dst = rig.buffer(1, /*iommu_map=*/true);
    const Addr desc_paddr = rig.kernel.translateFor(
        rig.proc, rig.proc.dmaGrant().ringDescVaddr, Rights::Read).paddr;
    const Addr cpl_paddr = rig.kernel.translateFor(
        rig.proc, rig.proc.dmaGrant().ringCplVaddr, Rights::Read).paddr;
    rig.run({{src, dst, 0}, {src, dst, Iommu::maxSgBytes + 1}});

    const DmaEngine &engine = rig.node.dmaEngine();
    EXPECT_EQ(engine.numRingDescriptors(), 2u);
    EXPECT_EQ(engine.numRingRejects(), 2u);
    EXPECT_EQ(engine.numRejects(), 2u);
    EXPECT_TRUE(engine.initiations().empty());
    EXPECT_EQ(engine.iommu()->walks(), 0u);
    PhysicalMemory &mem = rig.node.memory();
    for (unsigned slot = 0; slot < 2; ++slot) {
        EXPECT_EQ(mem.readInt(cpl_paddr + slot * ringdesc::cplBytes, 8),
                  dmastatus::failure);
        EXPECT_TRUE(mem.readInt(desc_paddr + slot * ringdesc::descBytes +
                                    ringdesc::ctrlOff, 8) &
                    ringdesc::ctrl::error);
    }
}

TEST(IommuEngine, WeakIommuBypassesTranslationOnFault)
{
    IommuRig rig(/*weak=*/true);
    const Addr src = rig.buffer(1, /*iommu_map=*/false);
    const Addr dst = rig.buffer(1, /*iommu_map=*/false);
    // Raw physical frames, never iommu-mapped: the strong model
    // rejects this descriptor; the weakened one waves it through
    // untranslated — the hole the checker's iommu-isolation oracle
    // exists to catch.
    const Addr src_p =
        rig.kernel.translateFor(rig.proc, src, Rights::Read).paddr;
    const Addr dst_p =
        rig.kernel.translateFor(rig.proc, dst, Rights::Read).paddr;
    rig.run({{src_p, dst_p, 256}});

    const DmaEngine &engine = rig.node.dmaEngine();
    // One bypass per faulting segment (both addresses fall back).
    EXPECT_GE(engine.numIommuBypasses(), 1u);
    EXPECT_EQ(engine.numRingRejects(), 0u);
    EXPECT_EQ(engine.initiations().size(), 1u);
}

TEST(IommuKernel, MapUnmapPinSyscallSurface)
{
    IommuRig rig;
    const unsigned ctx = *rig.proc.dmaGrant().keyContext;
    Iommu *iommu = rig.node.dmaEngine().iommu();
    ASSERT_NE(iommu, nullptr);

    // setupRing already iommu-mapped and pinned the ring's own
    // descriptor/completion pages; measure deltas against that.
    const std::size_t base_pinned = iommu->pinnedPages(ctx);

    const Addr va =
        rig.kernel.allocate(rig.proc, 2 * pageSize, Rights::ReadWrite);
    ASSERT_TRUE(rig.kernel.iommuMapRange(rig.proc, va, 2 * pageSize,
                                         /*pin=*/false));
    EXPECT_TRUE(iommu->table(ctx).lookup(va).has_value());
    EXPECT_TRUE(iommu->table(ctx).lookup(va + pageSize).has_value());
    EXPECT_EQ(iommu->pinnedPages(ctx), base_pinned);

    ASSERT_TRUE(
        rig.kernel.iommuPinRange(rig.proc, va, 2 * pageSize));
    EXPECT_EQ(iommu->pinnedPages(ctx), base_pinned + 2);

    rig.kernel.iommuUnmapRange(rig.proc, va, pageSize);
    EXPECT_FALSE(iommu->table(ctx).lookup(va).has_value());
    EXPECT_TRUE(iommu->table(ctx).lookup(va + pageSize).has_value());
    EXPECT_EQ(iommu->pinnedPages(ctx), base_pinned + 1);

    // Pinning an unmapped page is an error, not a silent no-op.
    EXPECT_FALSE(rig.kernel.iommuPinRange(rig.proc, va, pageSize));

    // A virtual range the process never mapped cannot enter the I/O
    // page table at all.
    EXPECT_FALSE(rig.kernel.iommuMapRange(rig.proc, va + 0x40000000,
                                          pageSize, /*pin=*/false));
}

} // namespace
} // namespace uldma
