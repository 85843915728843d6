/**
 * @file
 * Property tests for the descriptor ring (docs/RING.md): for random
 * descriptor chains, draining the ring is observably equivalent to
 * issuing the same transfers one by one through the cheapest existing
 * per-transfer protocol (ext-shadow) — same memory effects, same
 * engine-visible transfer sequence — while the ring's own bookkeeping
 * (doorbells, descriptors, rejects) amortizes exactly as configured.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/machine.hh"
#include "core/methods.hh"

namespace uldma {
namespace {

constexpr unsigned kSlots = 8;

/** One transfer of a random chain, in slot coordinates. */
struct ChainItem
{
    unsigned srcSlot;
    unsigned dstSlot;
    Addr size;
};

/** Deterministic source-pattern byte for slot @p s, offset @p i. */
std::uint8_t
patternByte(unsigned s, Addr i)
{
    return static_cast<std::uint8_t>(0x40 + s * 37 + (i & 0x3F));
}

std::vector<ChainItem>
randomChain(std::mt19937_64 &rng, unsigned length)
{
    std::uniform_int_distribution<unsigned> slot(0, kSlots - 1);
    std::uniform_int_distribution<Addr> size(1, pageSize);
    std::vector<ChainItem> chain;
    for (unsigned i = 0; i < length; ++i)
        chain.push_back({slot(rng), slot(rng), size(rng)});
    return chain;
}

/** Host-side model: destination slots after applying @p chain in
 *  order (last writer to an overlapping range wins). */
std::vector<std::vector<std::uint8_t>>
expectedDst(const std::vector<ChainItem> &chain)
{
    std::vector<std::vector<std::uint8_t>> slots(
        kSlots, std::vector<std::uint8_t>(pageSize, 0));
    for (const ChainItem &t : chain) {
        for (Addr i = 0; i < t.size; ++i)
            slots[t.dstSlot][i] = patternByte(t.srcSlot, i);
    }
    return slots;
}

/** What one run exposed to the outside world. */
struct Observed
{
    /// Destination slot contents after the run.
    std::vector<std::vector<std::uint8_t>> dst;
    /// Engine transfer sequence mapped back to slot coordinates.
    std::vector<ChainItem> transfers;
    std::uint64_t failures = 0;
};

/**
 * Run @p chain on a fresh machine.  @p ring_depth == 0 issues one by
 * one through ext-shadow (the cheapest per-transfer protocol);
 * otherwise the chain goes through a ring of that depth, batched
 * @p ring_depth descriptors per doorbell.
 */
Observed
runChain(const std::vector<ChainItem> &chain, unsigned ring_depth)
{
    const DmaMethod method =
        ring_depth > 0 ? DmaMethod::Ring : DmaMethod::ExtShadow;

    MachineConfig config;
    configureNode(config.node, method);
    Machine machine(config);
    prepareMachine(machine, method);
    Node &node = machine.node(0);
    Kernel &kernel = node.kernel();
    Process &proc = kernel.createProcess("chain");

    if (ring_depth > 0) {
        EXPECT_TRUE(kernel.setupRing(proc, ring_depth));
    } else {
        EXPECT_TRUE(prepareProcess(kernel, proc, method));
    }

    const Addr region = Addr(kSlots) * pageSize;
    const Addr src = kernel.allocate(proc, region, Rights::ReadWrite);
    const Addr dst = kernel.allocate(proc, region, Rights::ReadWrite);
    if (ring_depth > 0) {
        kernel.authorizeRingDma(proc, src, region);
        kernel.authorizeRingDma(proc, dst, region);
    } else {
        kernel.createShadowMappings(proc, src, region);
        kernel.createShadowMappings(proc, dst, region);
    }

    // Fill every source slot with its pattern; zero the destinations.
    PhysicalMemory &mem = node.memory();
    std::vector<Addr> src_paddr(kSlots), dst_paddr(kSlots);
    for (unsigned s = 0; s < kSlots; ++s) {
        src_paddr[s] =
            kernel.translateFor(proc, src + Addr(s) * pageSize,
                                Rights::Read).paddr;
        dst_paddr[s] =
            kernel.translateFor(proc, dst + Addr(s) * pageSize,
                                Rights::Read).paddr;
        for (Addr i = 0; i < pageSize; ++i)
            mem.writeInt(src_paddr[s] + i, patternByte(s, i), 1);
        mem.fill(dst_paddr[s], 0, pageSize);
    }

    Observed out;
    Observed *out_ptr = &out;
    auto check_status = [out_ptr](ExecContext &ctx) {
        if (ctx.reg(reg::v0) == dmastatus::failure)
            ++out_ptr->failures;
    };

    Program prog;
    if (ring_depth > 0) {
        std::vector<RingTransfer> batch;
        for (const ChainItem &t : chain) {
            batch.push_back({src + Addr(t.srcSlot) * pageSize,
                             dst + Addr(t.dstSlot) * pageSize, t.size});
            if (batch.size() == ring_depth) {
                emitRingBatch(prog, kernel, proc, batch);
                batch.clear();
                prog.callback(check_status);
            }
        }
        if (!batch.empty()) {
            emitRingBatch(prog, kernel, proc, batch);
            prog.callback(check_status);
        }
    } else {
        for (const ChainItem &t : chain) {
            emitInitiation(prog, kernel, proc, method,
                           src + Addr(t.srcSlot) * pageSize,
                           dst + Addr(t.dstSlot) * pageSize, t.size);
            prog.callback(check_status);
            prog.membar();
        }
    }
    prog.exit();

    kernel.launch(proc, std::move(prog));
    machine.start();
    EXPECT_TRUE(machine.run(60 * tickPerSec)) << "machine did not finish";

    out.dst.resize(kSlots);
    for (unsigned s = 0; s < kSlots; ++s) {
        out.dst[s].resize(pageSize);
        for (Addr i = 0; i < pageSize; ++i)
            out.dst[s][i] = static_cast<std::uint8_t>(
                mem.readInt(dst_paddr[s] + i, 1));
    }

    // Map the engine's transfer sequence back to slot coordinates so
    // runs on different machines (different paddrs) are comparable.
    for (const auto &rec : node.dmaEngine().initiations()) {
        EXPECT_EQ(rec.viaRing, ring_depth > 0);
        ChainItem item{kSlots, kSlots, rec.size};
        for (unsigned s = 0; s < kSlots; ++s) {
            if (rec.src == src_paddr[s])
                item.srcSlot = s;
            if (rec.dst == dst_paddr[s])
                item.dstSlot = s;
        }
        EXPECT_LT(item.srcSlot, kSlots) << "transfer outside the slots";
        EXPECT_LT(item.dstSlot, kSlots) << "transfer outside the slots";
        out.transfers.push_back(item);
    }
    return out;
}

void
expectEquivalent(const std::vector<ChainItem> &chain, unsigned depth)
{
    const Observed ring = runChain(chain, depth);
    const Observed oneby = runChain(chain, 0);

    // Same engine-visible transfer sequence, in order.
    ASSERT_EQ(ring.transfers.size(), chain.size());
    ASSERT_EQ(oneby.transfers.size(), chain.size());
    for (std::size_t i = 0; i < chain.size(); ++i) {
        EXPECT_EQ(ring.transfers[i].srcSlot, chain[i].srcSlot) << i;
        EXPECT_EQ(ring.transfers[i].dstSlot, chain[i].dstSlot) << i;
        EXPECT_EQ(ring.transfers[i].size, chain[i].size) << i;
        EXPECT_EQ(oneby.transfers[i].srcSlot, chain[i].srcSlot) << i;
        EXPECT_EQ(oneby.transfers[i].dstSlot, chain[i].dstSlot) << i;
        EXPECT_EQ(oneby.transfers[i].size, chain[i].size) << i;
    }

    EXPECT_EQ(ring.failures, 0u);
    EXPECT_EQ(oneby.failures, 0u);

    // Same memory effects, and both match the host-side model.
    const auto model = expectedDst(chain);
    EXPECT_EQ(ring.dst, oneby.dst);
    EXPECT_EQ(ring.dst, model);
}

TEST(RingProperties, RandomChainsMatchOneByOneTransfers)
{
    std::mt19937_64 rng(0xB00C5EED);
    const unsigned depths[] = {1, 3, 4, 8};
    for (unsigned trial = 0; trial < 8; ++trial) {
        const unsigned depth = depths[trial % 4];
        std::uniform_int_distribution<unsigned> len(depth, 20);
        const std::vector<ChainItem> chain = randomChain(rng, len(rng));
        SCOPED_TRACE("trial " + std::to_string(trial) + " depth " +
                     std::to_string(depth) + " len " +
                     std::to_string(chain.size()));
        expectEquivalent(chain, depth);
    }
}

TEST(RingProperties, DoorbellCountAmortizesExactlyAsConfigured)
{
    // 12 transfers at depth 4: three doorbells, twelve descriptors,
    // nothing rejected — the initiation cost the crossover bench
    // amortizes is exactly one uncached doorbell per batch.
    std::mt19937_64 rng(0x5EEDB011);
    const std::vector<ChainItem> chain = randomChain(rng, 12);

    MachineConfig config;
    configureNode(config.node, DmaMethod::Ring);
    Machine machine(config);
    prepareMachine(machine, DmaMethod::Ring);
    Node &node = machine.node(0);
    Kernel &kernel = node.kernel();
    Process &proc = kernel.createProcess("chain");
    ASSERT_TRUE(kernel.setupRing(proc, 4));

    const Addr region = Addr(kSlots) * pageSize;
    const Addr src = kernel.allocate(proc, region, Rights::ReadWrite);
    const Addr dst = kernel.allocate(proc, region, Rights::ReadWrite);
    kernel.authorizeRingDma(proc, src, region);
    kernel.authorizeRingDma(proc, dst, region);

    Program prog;
    std::vector<RingTransfer> batch;
    for (const ChainItem &t : chain) {
        batch.push_back({src + Addr(t.srcSlot) * pageSize,
                         dst + Addr(t.dstSlot) * pageSize, t.size});
        if (batch.size() == 4) {
            emitRingBatch(prog, kernel, proc, batch);
            batch.clear();
        }
    }
    // Exit-time reaping resets the ring (ctxReset clears the per-ring
    // counters), so retirement is only observable while the process
    // lives — capture it just before the exit.
    DmaEngine &engine = node.dmaEngine();
    const unsigned ctx = *proc.dmaGrant().keyContext;
    std::uint64_t retired_before_exit = 0;
    unsigned outstanding_before_exit = ~0u;
    prog.callback([&](ExecContext &) {
        retired_before_exit = engine.ringRetired(ctx);
        outstanding_before_exit = engine.ringOutstanding(ctx);
    });
    prog.exit();
    kernel.launch(proc, std::move(prog));
    machine.start();
    ASSERT_TRUE(machine.run(60 * tickPerSec));

    EXPECT_EQ(engine.numRingDoorbells(), 3u);
    EXPECT_EQ(engine.numRingDescriptors(), 12u);
    EXPECT_EQ(engine.numRingRejects(), 0u);
    EXPECT_EQ(engine.numKeyMismatches(), 0u);
    EXPECT_EQ(engine.initiations().size(), 12u);
    EXPECT_EQ(retired_before_exit, 12u);
    EXPECT_EQ(outstanding_before_exit, 0u);
}

TEST(RingProperties, FenceDescriptorDrainsEverythingQueuedBeforeIt)
{
    // Hand-written descriptors: two transfers then a fence.  When the
    // fence's completion record lands, both transfers must be retired
    // and their payloads delivered — the flush primitive's contract.
    MachineConfig config;
    configureNode(config.node, DmaMethod::Ring);
    Machine machine(config);
    prepareMachine(machine, DmaMethod::Ring);
    Node &node = machine.node(0);
    Kernel &kernel = node.kernel();
    Process &proc = kernel.createProcess("fence");
    ASSERT_TRUE(kernel.setupRing(proc, 4));

    const Addr src = kernel.allocate(proc, pageSize, Rights::ReadWrite);
    const Addr dst = kernel.allocate(proc, pageSize, Rights::ReadWrite);
    kernel.authorizeRingDma(proc, src, pageSize);
    kernel.authorizeRingDma(proc, dst, pageSize);

    PhysicalMemory &mem = node.memory();
    const Addr src_paddr =
        kernel.translateFor(proc, src, Rights::Read).paddr;
    const Addr dst_paddr =
        kernel.translateFor(proc, dst, Rights::Read).paddr;
    for (Addr i = 0; i < 128; ++i)
        mem.writeInt(src_paddr + i, patternByte(0, i), 1);
    mem.fill(dst_paddr, 0, pageSize);

    const auto &grant = proc.dmaGrant();
    const std::uint64_t payload =
        keyfield::pack(grant.key, *grant.keyContext);
    const Addr doorbell =
        grant.contextPageVaddr + ctxpage::ringDoorbell;
    auto desc = [&](unsigned slot) {
        return grant.ringDescVaddr + Addr(slot) * ringdesc::descBytes;
    };
    auto cpl = [&](unsigned slot) {
        return grant.ringCplVaddr + Addr(slot) * ringdesc::cplBytes;
    };

    Program prog;
    // Slot 0 and 1: real transfers (64 bytes each, disjoint halves).
    for (unsigned slot = 0; slot < 2; ++slot) {
        prog.store(cpl(slot), 0);
        prog.store(desc(slot) + ringdesc::srcOff,
                   src_paddr + slot * 64);
        prog.store(desc(slot) + ringdesc::dstOff,
                   dst_paddr + slot * 64);
        prog.store(desc(slot) + ringdesc::sizeOff, 64);
        prog.membar();
        prog.store(desc(slot) + ringdesc::ctrlOff,
                   ringdesc::ctrl::valid);
    }
    // Slot 2: the fence.
    prog.store(cpl(2), 0);
    prog.store(desc(2) + ringdesc::ctrlOff,
               ringdesc::ctrl::valid | ringdesc::ctrl::fence);
    prog.membar();
    prog.store(doorbell, payload);
    // Poll the fence's completion record only.
    const int poll = prog.here();
    prog.load(reg::v0, cpl(2));
    prog.membar();
    prog.compute(8);
    prog.branchEq(reg::v0, 0, poll);
    std::uint64_t fence_status = 0;
    std::uint64_t retired_at_fence = 0;
    DmaEngine *engine = &node.dmaEngine();
    prog.callback([&, engine](ExecContext &ctx) {
        fence_status = ctx.reg(reg::v0);
        retired_at_fence = engine->ringRetired(0);
    });
    prog.exit();

    kernel.launch(proc, std::move(prog));
    machine.start();
    ASSERT_TRUE(machine.run(60 * tickPerSec));

    EXPECT_NE(fence_status, dmastatus::failure);
    // All three descriptors (two transfers + fence) retired by the
    // time the program observed the fence completion.
    EXPECT_EQ(retired_at_fence, 3u);
    EXPECT_EQ(node.dmaEngine().initiations().size(), 2u);
    for (Addr i = 0; i < 128; ++i) {
        ASSERT_EQ(mem.readInt(dst_paddr + i, 1), patternByte(0, i))
            << "byte " << i << " not delivered before the fence";
    }
}

} // namespace
} // namespace uldma
