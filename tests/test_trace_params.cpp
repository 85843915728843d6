/**
 * @file
 * Tests for the trace facility, the warn counter, and the address
 * encode/decode properties of the DMA-engine and atomic-unit parameter
 * blocks (shadow windows must be lossless bijections).
 */

#include <gtest/gtest.h>

#include "dma/dma_params.hh"
#include "nic/atomic_unit.hh"
#include "sim/trace.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace uldma {
namespace {

// ---------------------------------------------------------------------
// Trace flags.
// ---------------------------------------------------------------------

TEST(Trace, EnableDisable)
{
    trace::disableAll();
    EXPECT_FALSE(trace::enabled("Dma"));
    trace::enable("Dma");
    EXPECT_TRUE(trace::enabled("Dma"));
    EXPECT_FALSE(trace::enabled("Bus"));
    trace::disable("Dma");
    EXPECT_FALSE(trace::enabled("Dma"));
}

TEST(Trace, AllFlag)
{
    trace::disableAll();
    trace::enableAll();
    EXPECT_TRUE(trace::enabled("Anything"));
    trace::disableAll();
    EXPECT_FALSE(trace::enabled("Anything"));
}

TEST(Trace, MacroIsCheapWhenDisabled)
{
    trace::disableAll();
    int evaluations = 0;
    auto count = [&evaluations]() {
        ++evaluations;
        return 1;
    };
    ULDMA_TRACE("Off", 0, "value=", count());
    EXPECT_EQ(evaluations, 0) << "arguments evaluated while disabled";
}

// ---------------------------------------------------------------------
// Logging.
// ---------------------------------------------------------------------

TEST(Logging, WarnCounterIncrements)
{
    const unsigned before = warnCount();
    ULDMA_WARN("test warning ", 42);
    EXPECT_EQ(warnCount(), before + 1);
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(ULDMA_PANIC("boom ", 1, 2, 3), "boom 123");
}

TEST(LoggingDeath, AssertMessage)
{
    const int x = 4;
    EXPECT_DEATH(ULDMA_ASSERT(x == 5, "x was ", x), "x was 4");
}

// ---------------------------------------------------------------------
// DMA shadow window encode/decode.
// ---------------------------------------------------------------------

TEST(DmaParams, ShadowRoundTripExhaustiveCtx)
{
    DmaEngineParams params;
    params.ctxIdBits = 2;
    Random rng(321);
    for (int i = 0; i < 2000; ++i) {
        const Addr paddr = rng.below(shadowCoverage);
        const unsigned ctx = static_cast<unsigned>(rng.below(4));
        const Addr shadow = params.shadowAddr(paddr, ctx);

        ASSERT_GE(shadow, dmaShadowBase);
        ASSERT_LT(shadow, dmaShadowBase + params.shadowWindowSize());

        Addr out_paddr = 0;
        unsigned out_ctx = 99;
        params.decodeShadow(shadow, out_paddr, out_ctx);
        ASSERT_EQ(out_paddr, paddr);
        ASSERT_EQ(out_ctx, ctx);
    }
}

TEST(DmaParams, ShadowWindowsDoNotOverlapOtherRanges)
{
    DmaEngineParams params;
    params.ctxIdBits = 2;
    const AddrRange kernel_regs(dmaKernelRegsBase,
                                dmaKernelRegsBase + kregs::blockSize);
    const AddrRange ctx_pages(
        dmaContextPagesBase,
        dmaContextPagesBase + params.numContexts * pageSize);
    const AddrRange shadow(dmaShadowBase,
                           dmaShadowBase + params.shadowWindowSize());
    EXPECT_FALSE(kernel_regs.overlaps(ctx_pages));
    EXPECT_FALSE(kernel_regs.overlaps(shadow));
    EXPECT_FALSE(ctx_pages.overlaps(shadow));
}

TEST(DmaParamsDeath, ShadowAddrRangeChecks)
{
    DmaEngineParams params;
    EXPECT_DEATH(params.shadowAddr(shadowCoverage, 0),
                 "not representable");
}

TEST(DmaParams, KeyFieldPacking)
{
    const std::uint64_t key = 0x00AB'CDEF'0123'4567ull &
                              mask(keyfield::keyBits);
    for (unsigned ctx = 0; ctx < 8; ++ctx) {
        const std::uint64_t payload = keyfield::pack(key, ctx);
        EXPECT_EQ(keyfield::ctxOf(payload), ctx);
        EXPECT_EQ(keyfield::keyOf(payload), key);
    }
}

// ---------------------------------------------------------------------
// Atomic shadow window encode/decode.
// ---------------------------------------------------------------------

TEST(AtomicParams, ShadowRoundTrip)
{
    AtomicUnitParams params;
    params.ctxIdBits = 2;
    Random rng(654);
    const AtomicOp ops[] = {AtomicOp::Add, AtomicOp::FetchStore,
                            AtomicOp::CompareSwap};
    for (int i = 0; i < 2000; ++i) {
        const Addr paddr = rng.below(shadowCoverage);
        const unsigned ctx = static_cast<unsigned>(rng.below(4));
        const AtomicOp op = ops[rng.below(3)];

        const Addr shadow = params.shadowAddr(op, paddr, ctx);
        ASSERT_GE(shadow, atomicShadowBase);
        ASSERT_LT(shadow, atomicShadowBase + params.windowSize());

        AtomicOp out_op = AtomicOp::Add;
        unsigned out_ctx = 99;
        Addr out_paddr = 0;
        params.decodeShadow(shadow, out_op, out_ctx, out_paddr);
        ASSERT_EQ(out_paddr, paddr);
        ASSERT_EQ(out_ctx, ctx);
        ASSERT_EQ(out_op, op);
    }
}

TEST(AtomicParams, WindowsDisjointFromDmaWindows)
{
    DmaEngineParams dma;
    dma.ctxIdBits = 2;
    AtomicUnitParams atomic;
    atomic.ctxIdBits = 2;

    const AddrRange dma_shadow(dmaShadowBase,
                               dmaShadowBase + dma.shadowWindowSize());
    const AddrRange atomic_shadow(
        atomicShadowBase, atomicShadowBase + atomic.windowSize());
    const AddrRange atomic_regs(
        atomicKernelRegsBase,
        atomicKernelRegsBase + akregs::blockSize);
    const AddrRange atomic_ctx(
        atomicContextPagesBase,
        atomicContextPagesBase + AtomicUnit::numContexts * pageSize);
    const AddrRange dma_regs(dmaKernelRegsBase,
                             dmaKernelRegsBase + kregs::blockSize);
    const AddrRange dma_ctx(
        dmaContextPagesBase,
        dmaContextPagesBase + dma.numContexts * pageSize);

    EXPECT_FALSE(dma_shadow.overlaps(atomic_shadow));
    EXPECT_FALSE(atomic_regs.overlaps(dma_regs));
    EXPECT_FALSE(atomic_regs.overlaps(dma_ctx));
    EXPECT_FALSE(atomic_ctx.overlaps(dma_regs));
    EXPECT_FALSE(atomic_ctx.overlaps(dma_ctx));
    EXPECT_FALSE(atomic_ctx.overlaps(atomic_regs));
}

} // namespace
} // namespace uldma
