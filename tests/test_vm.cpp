/**
 * @file
 * Unit tests for the vm module: rights algebra, page tables (the
 * protection foundation of shadow addressing), and the TLB.
 */

#include <gtest/gtest.h>

#include "vm/layout.hh"
#include "vm/page_table.hh"
#include "vm/rights.hh"
#include "vm/tlb.hh"

namespace uldma {
namespace {

// ---------------------------------------------------------------------
// Rights
// ---------------------------------------------------------------------

TEST(Rights, Allows)
{
    EXPECT_TRUE(allows(Rights::ReadWrite, Rights::Read));
    EXPECT_TRUE(allows(Rights::ReadWrite, Rights::Write));
    EXPECT_TRUE(allows(Rights::ReadWrite, Rights::ReadWrite));
    EXPECT_TRUE(allows(Rights::Read, Rights::Read));
    EXPECT_FALSE(allows(Rights::Read, Rights::Write));
    EXPECT_FALSE(allows(Rights::None, Rights::Read));
    EXPECT_TRUE(allows(Rights::Read, Rights::None));
}

TEST(Rights, Operators)
{
    EXPECT_EQ(Rights::Read | Rights::Write, Rights::ReadWrite);
    EXPECT_EQ(Rights::ReadWrite & Rights::Read, Rights::Read);
    EXPECT_EQ(toString(Rights::ReadWrite), "rw");
}

// ---------------------------------------------------------------------
// Layout helpers
// ---------------------------------------------------------------------

TEST(Layout, PageArithmetic)
{
    EXPECT_EQ(pageSize, 8192u);
    EXPECT_EQ(pageAlignDown(8193), 8192u);
    EXPECT_EQ(pageAlignUp(8193), 16384u);
    EXPECT_EQ(pageAlignUp(8192), 8192u);
    EXPECT_EQ(pageOffset(0x3456), 0x1456u);
    EXPECT_EQ(pageNumber(0x4000), 2u);
}

// ---------------------------------------------------------------------
// PageTable
// ---------------------------------------------------------------------

TEST(PageTable, MapAndTranslate)
{
    PageTable pt;
    pt.mapPage(0x10000, 0x40000, Rights::ReadWrite);

    const Translation t = pt.translate(0x10123, Rights::Read);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.paddr, 0x40123u);
    EXPECT_FALSE(t.uncacheable);
}

TEST(PageTable, UnmappedFaults)
{
    PageTable pt;
    const Translation t = pt.translate(0x10000, Rights::Read);
    EXPECT_FALSE(t.ok());
    EXPECT_EQ(t.fault, Fault::NotMapped);
}

TEST(PageTable, ProtectionFaults)
{
    PageTable pt;
    pt.mapPage(0x10000, 0x40000, Rights::Read);

    EXPECT_TRUE(pt.translate(0x10000, Rights::Read).ok());
    const Translation w = pt.translate(0x10000, Rights::Write);
    EXPECT_FALSE(w.ok());
    EXPECT_EQ(w.fault, Fault::ProtectionWrite);

    pt.mapPage(0x12000, 0x42000, Rights::None);
    const Translation r = pt.translate(0x12000, Rights::Read);
    EXPECT_EQ(r.fault, Fault::ProtectionRead);
}

TEST(PageTable, MapRangeContiguous)
{
    PageTable pt;
    pt.mapRange(0x20000, 0x80000, 4, Rights::ReadWrite);
    for (Addr i = 0; i < 4 * pageSize; i += 1024) {
        const Translation t = pt.translate(0x20000 + i, Rights::Write);
        ASSERT_TRUE(t.ok());
        EXPECT_EQ(t.paddr, 0x80000 + i);
    }
    EXPECT_FALSE(pt.translate(0x20000 + 4 * pageSize, Rights::Read).ok());
}

TEST(PageTable, UnmapRemoves)
{
    PageTable pt;
    pt.mapPage(0x10000, 0x40000, Rights::Read);
    pt.unmapPage(0x10000);
    EXPECT_FALSE(pt.translate(0x10000, Rights::Read).ok());
}

TEST(PageTable, RemapReplaces)
{
    PageTable pt;
    pt.mapPage(0x10000, 0x40000, Rights::Read);
    pt.mapPage(0x10000, 0x50000, Rights::ReadWrite);
    const Translation t = pt.translate(0x10000, Rights::Write);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.paddr, 0x50000u);
}

TEST(PageTable, UncacheableFlagPropagates)
{
    PageTable pt;
    pt.mapPage(shadowVirtualBase, 0x8000'0000, Rights::ReadWrite,
               /*uncacheable=*/true);
    const Translation t = pt.translate(shadowVirtualBase + 8,
                                       Rights::Write);
    ASSERT_TRUE(t.ok());
    EXPECT_TRUE(t.uncacheable);
}

TEST(PageTable, GenerationBumpsOnChange)
{
    PageTable pt;
    const auto g0 = pt.generation();
    pt.mapPage(0x10000, 0x40000, Rights::Read);
    const auto g1 = pt.generation();
    EXPECT_NE(g0, g1);
    pt.unmapPage(0x10000);
    EXPECT_NE(g1, pt.generation());
}

// ---------------------------------------------------------------------
// Tlb
// ---------------------------------------------------------------------

TEST(Tlb, MissThenHit)
{
    PageTable pt;
    pt.mapPage(0x10000, 0x40000, Rights::ReadWrite);
    Tlb tlb("tlb", TlbParams{});

    Cycles miss = 0;
    const Translation t1 = tlb.translate(pt, 0x10008, Rights::Read, miss);
    ASSERT_TRUE(t1.ok());
    EXPECT_EQ(miss, Tlb::missCycles);
    EXPECT_EQ(tlb.misses(), 1u);

    const Translation t2 = tlb.translate(pt, 0x10010, Rights::Read, miss);
    ASSERT_TRUE(t2.ok());
    EXPECT_EQ(miss, 0u);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(t2.paddr, 0x40010u);
}

TEST(Tlb, ProtectionCheckedOnHit)
{
    PageTable pt;
    pt.mapPage(0x10000, 0x40000, Rights::Read);
    Tlb tlb("tlb", TlbParams{});

    Cycles miss = 0;
    tlb.translate(pt, 0x10000, Rights::Read, miss);
    const Translation t = tlb.translate(pt, 0x10000, Rights::Write, miss);
    EXPECT_FALSE(t.ok());
    EXPECT_EQ(t.fault, Fault::ProtectionWrite);
}

TEST(Tlb, FlushForcesMisses)
{
    PageTable pt;
    pt.mapPage(0x10000, 0x40000, Rights::Read);
    Tlb tlb("tlb", TlbParams{});
    Cycles miss = 0;
    tlb.translate(pt, 0x10000, Rights::Read, miss);
    tlb.flush();
    tlb.translate(pt, 0x10000, Rights::Read, miss);
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(Tlb, LruEviction)
{
    PageTable pt;
    TlbParams params;
    params.entries = 2;
    for (Addr i = 0; i < 3; ++i)
        pt.mapPage(0x10000 + i * pageSize, 0x40000 + i * pageSize,
                   Rights::Read);
    Tlb tlb("tlb", params);

    Cycles miss = 0;
    tlb.translate(pt, 0x10000, Rights::Read, miss);              // miss
    tlb.translate(pt, 0x10000 + pageSize, Rights::Read, miss);   // miss
    tlb.translate(pt, 0x10000, Rights::Read, miss);              // hit
    tlb.translate(pt, 0x10000 + 2 * pageSize, Rights::Read,
                  miss);                                         // miss
    // Page 1 (LRU) was evicted; page 0 should still hit.
    tlb.translate(pt, 0x10000, Rights::Read, miss);
    EXPECT_EQ(miss, 0u);
    tlb.translate(pt, 0x10000 + pageSize, Rights::Read, miss);
    EXPECT_GT(miss, 0u);
}

TEST(Tlb, PageTableChangeInvalidates)
{
    PageTable pt;
    pt.mapPage(0x10000, 0x40000, Rights::ReadWrite);
    Tlb tlb("tlb", TlbParams{});
    Cycles miss = 0;
    tlb.translate(pt, 0x10000, Rights::Read, miss);

    // The kernel revokes and remaps the page; the TLB must not serve
    // the stale frame.
    pt.mapPage(0x10000, 0x50000, Rights::ReadWrite);
    const Translation t = tlb.translate(pt, 0x10000, Rights::Read, miss);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.paddr, 0x50000u);
}

TEST(Tlb, DifferentTablesAreIsolated)
{
    PageTable pt1, pt2;
    pt1.mapPage(0x10000, 0x40000, Rights::Read);
    pt2.mapPage(0x10000, 0x70000, Rights::Read);
    Tlb tlb("tlb", TlbParams{});

    Cycles miss = 0;
    const Translation t1 = tlb.translate(pt1, 0x10000, Rights::Read, miss);
    const Translation t2 = tlb.translate(pt2, 0x10000, Rights::Read, miss);
    EXPECT_EQ(t1.paddr, 0x40000u);
    EXPECT_EQ(t2.paddr, 0x70000u);
}

TEST(Tlb, FaultsAreNotCachedAsTranslations)
{
    PageTable pt;
    Tlb tlb("tlb", TlbParams{});
    Cycles miss = 0;
    EXPECT_FALSE(tlb.translate(pt, 0x10000, Rights::Read, miss).ok());

    // Map it now; the next access must see the new mapping.
    pt.mapPage(0x10000, 0x40000, Rights::Read);
    EXPECT_TRUE(tlb.translate(pt, 0x10000, Rights::Read, miss).ok());
}

} // namespace
} // namespace uldma
