/**
 * @file
 * Unit and integration tests for the optional L1 data cache: hit/miss
 * accounting, direct-mapped conflicts, write-through semantics,
 * DMA-write invalidation (coherence), a whole-machine polling loop
 * that must observe DMA'd data despite caching, and an atomic op that
 * must invalidate the counter line it writes.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/methods.hh"
#include "core/user_atomics.hh"
#include "cpu/dcache.hh"

namespace uldma {
namespace {

class DcacheTest : public ::testing::Test
{
  protected:
    DcacheTest() : memory_(1 << 20)
    {
        DcacheParams params;
        params.enabled = true;
        params.sizeBytes = 1024;   // 32 lines of 32 B
        params.lineBytes = 32;
        cache_ = std::make_unique<Dcache>("dcache", params, memory_);
    }

    PhysicalMemory memory_;
    std::unique_ptr<Dcache> cache_;
};

TEST_F(DcacheTest, MissThenHit)
{
    const Cycles miss = cache_->access(0x100, 8, false);
    EXPECT_EQ(miss, Dcache::missCycles);
    const Cycles hit = cache_->access(0x108, 8, false);   // same line
    EXPECT_EQ(hit, Dcache::hitExtraCycles);
    EXPECT_EQ(cache_->hits(), 1u);
    EXPECT_EQ(cache_->misses(), 1u);
}

TEST_F(DcacheTest, DirectMappedConflictEvicts)
{
    cache_->access(0x100, 8, false);            // line fill
    cache_->access(0x100 + 1024, 8, false);     // same index, new tag
    const Cycles again = cache_->access(0x100, 8, false);
    EXPECT_EQ(again, Dcache::missCycles);
    EXPECT_EQ(cache_->misses(), 3u);
}

TEST_F(DcacheTest, WritesAreWriteThrough)
{
    cache_->access(0x200, 8, false);    // line resident
    const Cycles w = cache_->access(0x200, 8, true);
    EXPECT_EQ(w, Dcache::writeCycles);
    // Line stays valid: the next read hits.
    EXPECT_EQ(cache_->access(0x200, 8, false),
              Dcache::hitExtraCycles);
}

TEST_F(DcacheTest, ExternalWriteInvalidates)
{
    cache_->access(0x300, 8, false);    // resident
    memory_.writeInt(0x308, 0xAB, 8);   // external write, same line
    EXPECT_EQ(cache_->invalidations(), 1u);
    EXPECT_EQ(cache_->access(0x300, 8, false),
              Dcache::missCycles);
}

TEST_F(DcacheTest, ExternalWriteElsewhereDoesNotInvalidate)
{
    cache_->access(0x300, 8, false);
    memory_.writeInt(0x5000, 1, 8);     // different line
    EXPECT_EQ(cache_->invalidations(), 0u);
    EXPECT_EQ(cache_->access(0x300, 8, false),
              Dcache::hitExtraCycles);
}

TEST_F(DcacheTest, BulkWriteFlushesEverything)
{
    cache_->access(0x0, 8, false);
    cache_->access(0x108, 8, false);    // a different set
    memory_.fill(0, 0, 1 << 20);        // giant write: full flush path
    EXPECT_GE(cache_->invalidations(), 2u);
    EXPECT_EQ(cache_->access(0x0, 8, false),
              Dcache::missCycles);
}

TEST_F(DcacheTest, CopyInvalidatesDestinationLines)
{
    cache_->access(0x800, 8, false);
    memory_.copy(0x800, 0x4000, 64);    // DMA-style local copy
    EXPECT_EQ(cache_->access(0x800, 8, false),
              Dcache::missCycles);
}

// ---------------------------------------------------------------------
// Whole-machine coherence: the motivating scenario.
// ---------------------------------------------------------------------

TEST(DcacheMachine, PollingLoopSeesDmaResult)
{
    MachineConfig config;
    configureNode(config.node, DmaMethod::ExtShadow);
    config.node.cpu.dcache.enabled = true;
    Machine machine(config);
    prepareMachine(machine, DmaMethod::ExtShadow);

    Kernel &kernel = machine.node(0).kernel();
    Process &proc = kernel.createProcess("app");
    ASSERT_TRUE(prepareProcess(kernel, proc, DmaMethod::ExtShadow));

    const Addr size = 256;
    const Addr src = kernel.allocate(proc, pageSize, Rights::ReadWrite);
    const Addr dst = kernel.allocate(proc, pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(proc, src, pageSize);
    kernel.createShadowMappings(proc, dst, pageSize);
    const Addr src_paddr =
        kernel.translateFor(proc, src, Rights::Read).paddr;
    const Addr dst_paddr =
        kernel.translateFor(proc, dst, Rights::Write).paddr;
    machine.node(0).memory().fill(src_paddr, 0x4D, size);
    // Note: fill() above happens before the program runs, so the
    // pre-warmed cache state does not matter; the poll loop below
    // caches the stale 0x00 flag and must be invalidated by the DMA.

    Program prog;
    // Warm the flag's line into the cache with a read.
    prog.load(reg::t0, dst + size - 1, 1);
    emitInitiation(prog, kernel, proc, DmaMethod::ExtShadow, src, dst,
                   size);
    const int poll = prog.here();
    prog.load(reg::t0, dst + size - 1, 1);
    prog.branchNe(reg::t0, 0x4D, poll);
    prog.exit();
    kernel.launch(proc, std::move(prog));
    machine.start();

    // If the DMA's payload write did not invalidate the polled line,
    // the loop would spin on the cached 0x00 forever.
    ASSERT_TRUE(machine.run(tickPerSec))
        << "polling loop never observed the DMA payload (coherence)";

    Dcache *dcache = machine.node(0).cpu().dcache();
    ASSERT_NE(dcache, nullptr);
    EXPECT_GE(dcache->invalidations(), 1u);
    EXPECT_GT(dcache->hits(), 0u);   // the poll loop did hit the cache
    EXPECT_EQ(machine.node(0).memory().readInt(dst_paddr, 1), 0x4Du);
}

TEST(DcacheMachine, AtomicWriteInvalidatesCachedCounterLine)
{
    // The atomic unit's read-modify-write is a DRAM write like any
    // other, so the CPU's next load of the counter must miss.  A
    // compare_and_swap that fails writes nothing.
    MachineConfig config;
    configureNode(config.node, DmaMethod::ExtShadow);
    config.node.cpu.dcache.enabled = true;
    Machine machine(config);
    prepareMachine(machine, DmaMethod::ExtShadow);

    Kernel &kernel = machine.node(0).kernel();
    Process &proc = kernel.createProcess("app");
    const Addr counter = kernel.allocate(proc, pageSize, Rights::ReadWrite);
    for (AtomicOp op : {AtomicOp::Add, AtomicOp::CompareSwap})
        kernel.createAtomicShadowMappings(proc, counter, pageSize, op);
    const Dcache *dcache = machine.node(0).cpu().dcache();
    ASSERT_NE(dcache, nullptr);

    std::uint64_t hits = 0, misses = 0, invalidations = 0;
    auto snapshot = [&](ExecContext &) {
        hits = dcache->hits();
        misses = dcache->misses();
        invalidations = dcache->invalidations();
    };
    std::uint64_t cached_hits = 0, added_invalidations = 0;
    std::uint64_t reload_misses = 0, reload_value = 0;
    std::uint64_t failed_cas_invalidations = 0, after_cas_hits = 0;

    Program prog;
    prog.load(reg::t0, counter, 8);   // miss: the line is now cached
    prog.callback(snapshot);
    prog.load(reg::t0, counter, 8);
    prog.callback([&](ExecContext &) {
        cached_hits = dcache->hits() - hits;
    });
    prog.callback(snapshot);
    emitAtomicAdd(prog, kernel, proc, counter, 5);
    prog.callback([&](ExecContext &) {
        added_invalidations = dcache->invalidations() - invalidations;
    });
    prog.callback(snapshot);
    prog.load(reg::t1, counter, 8);
    prog.callback([&](ExecContext &ctx) {
        reload_misses = dcache->misses() - misses;
        reload_value = ctx.reg(reg::t1);
    });
    // A compare_and_swap that fails (5 != 7) writes nothing, so the
    // line stays cached.
    prog.callback(snapshot);
    emitCompareAndSwap(prog, kernel, proc, counter, 7, 9);
    prog.load(reg::t1, counter, 8);
    prog.callback([&](ExecContext &) {
        failed_cas_invalidations = dcache->invalidations() - invalidations;
        after_cas_hits = dcache->hits() - hits;
    });
    prog.exit();
    kernel.launch(proc, std::move(prog));
    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));

    EXPECT_EQ(cached_hits, 1u);
    EXPECT_EQ(added_invalidations, 1u);
    EXPECT_EQ(reload_misses, 1u);
    EXPECT_EQ(reload_value, 5u);
    EXPECT_EQ(failed_cas_invalidations, 0u);
    EXPECT_EQ(after_cas_hits, 1u);
    EXPECT_EQ(machine.node(0).atomicUnit().numExecuted(), 2u);
}

TEST(DcacheMachine, Table1ShapeSurvivesCacheEnabled)
{
    // The initiation path is all uncached accesses; enabling the data
    // cache must not disturb the Table-1 shape materially.
    MeasureConfig config;
    config.method = DmaMethod::ExtShadow;
    config.iterations = 100;
    config.cpu.dcache.enabled = true;
    const double with_cache = measureInitiation(config).avgUs;

    config.cpu.dcache.enabled = false;
    const double without = measureInitiation(config).avgUs;
    EXPECT_NEAR(with_cache, without, without * 0.15);
}

} // namespace
} // namespace uldma
