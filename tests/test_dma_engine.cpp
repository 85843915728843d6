/**
 * @file
 * Unit tests for the DMA engine device: shadow-window decode, the
 * kernel register channel, register-context pages and their
 * remaining-bytes semantics, key matching, the repeated-passing FSM,
 * per-CONTEXT_ID latches, and transfer-argument validation.
 *
 * These tests drive the engine directly with bus packets — no CPU, no
 * kernel — so each protocol behaviour is pinned down in isolation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dma/dma_engine.hh"
#include "dma/transfer_backend.hh"
#include "mem/bus.hh"
#include "mem/physical_memory.hh"
#include "sim/span.hh"
#include "sim/ticks.hh"
#include "util/bitfield.hh"
#include "util/fnv.hh"
#include "util/random.hh"

namespace uldma {
namespace {

class EngineTest : public ::testing::Test
{
  protected:
    static constexpr Addr memSize = 4 * 1024 * 1024;

    EngineTest() : memory_(memSize), backend_(memory_) {}

    /** Build the engine in the given mode. */
    DmaEngine &
    make(EngineMode mode, unsigned ctx_bits = 0, bool flash = false)
    {
        DmaEngineParams params;
        params.mode = mode;
        params.ctxIdBits = ctx_bits;
        params.flashTagCheck = flash;
        bus_clock_ =
            std::make_unique<ClockDomain>("bus.clk", 80 * tickPerNs);
        engine_ = std::make_unique<DmaEngine>(eq_, "dma", *bus_clock_,
                                              params, backend_);
        return *engine_;
    }

    /** Shadow store as pid. */
    void
    sstore(Addr target, std::uint64_t data, Pid pid = 1, unsigned ctx = 0)
    {
        Packet pkt = Packet::makeWrite(
            engine_->params().shadowAddr(target, ctx), data);
        pkt.srcPid = pid;
        engine_->access(pkt);
    }

    /** Shadow load as pid; returns response. */
    std::uint64_t
    sload(Addr target, Pid pid = 1, unsigned ctx = 0)
    {
        Packet pkt =
            Packet::makeRead(engine_->params().shadowAddr(target, ctx));
        pkt.srcPid = pid;
        engine_->access(pkt);
        return pkt.data;
    }

    /** Kernel register write/read. */
    void
    kwrite(Addr offset, std::uint64_t data)
    {
        Packet pkt = Packet::makeWrite(dmaKernelRegsBase + offset, data);
        engine_->access(pkt);
    }

    std::uint64_t
    kread(Addr offset)
    {
        Packet pkt = Packet::makeRead(dmaKernelRegsBase + offset);
        engine_->access(pkt);
        return pkt.data;
    }

    /** Context-page store/load. */
    void
    cstore(unsigned ctx, std::uint64_t data, Pid pid = 1)
    {
        Packet pkt =
            Packet::makeWrite(engine_->contextPageAddr(ctx), data);
        pkt.srcPid = pid;
        engine_->access(pkt);
    }

    std::uint64_t
    cload(unsigned ctx, Pid pid = 1)
    {
        Packet pkt = Packet::makeRead(engine_->contextPageAddr(ctx));
        pkt.srcPid = pid;
        engine_->access(pkt);
        return pkt.data;
    }

    /** Drain all pending simulation events (transfer completions). */
    void settle() { eq_.runToExhaustion(); }

    EventQueue eq_;
    PhysicalMemory memory_;
    LocalBackend backend_;
    std::unique_ptr<ClockDomain> bus_clock_;
    std::unique_ptr<DmaEngine> engine_;
};

// ---------------------------------------------------------------------
// Kernel channel (figure 1).
// ---------------------------------------------------------------------

TEST_F(EngineTest, KernelChannelTransfers)
{
    make(EngineMode::ShadowPair);
    memory_.fill(0x1000, 0x77, 256);

    kwrite(kregs::source, 0x1000);
    kwrite(kregs::destination, 0x8000);
    kwrite(kregs::size, 256);   // starts the DMA
    settle();

    EXPECT_EQ(kread(kregs::status), 0u);   // complete
    EXPECT_EQ(memory_.readInt(0x8000, 1), 0x77u);
    EXPECT_EQ(memory_.readInt(0x80FF, 1), 0x77u);
    ASSERT_EQ(engine_->initiations().size(), 1u);
    EXPECT_TRUE(engine_->initiations()[0].viaKernel);
}

TEST_F(EngineTest, KernelChannelMayCrossPages)
{
    make(EngineMode::ShadowPair);
    kwrite(kregs::source, 0x1000);
    kwrite(kregs::destination, 0x10000);
    kwrite(kregs::size, 3 * pageSize);
    settle();
    EXPECT_EQ(kread(kregs::status), 0u);
    EXPECT_EQ(engine_->numInitiations(), 1u);
}

TEST_F(EngineTest, KernelChannelRejectsZeroAndHugeSizes)
{
    make(EngineMode::ShadowPair);
    kwrite(kregs::source, 0x1000);
    kwrite(kregs::destination, 0x8000);
    kwrite(kregs::size, 0);
    EXPECT_EQ(kread(kregs::status), dmastatus::failure);

    kwrite(kregs::size, kernelMaxTransfer + 1);
    EXPECT_EQ(kread(kregs::status), dmastatus::failure);
    EXPECT_EQ(engine_->numInitiations(), 0u);
}

TEST_F(EngineTest, KernelStatusReportsRemainingDuringTransfer)
{
    make(EngineMode::ShadowPair);
    kwrite(kregs::source, 0x1000);
    kwrite(kregs::destination, 0x10000);
    kwrite(kregs::size, 64 * 1024);

    // Immediately after the start, nothing has moved.
    const std::uint64_t r0 = kread(kregs::status);
    EXPECT_GT(r0, 0u);
    EXPECT_LE(r0, 64u * 1024);

    // Midway through, remaining is strictly between 0 and size.
    eq_.advanceTo(eq_.now() + 500 * tickPerUs);
    const std::uint64_t r1 = kread(kregs::status);
    EXPECT_LT(r1, r0);

    settle();
    EXPECT_EQ(kread(kregs::status), 0u);
}

// ---------------------------------------------------------------------
// ShadowPair protocol (SHRIMP-2 / FLASH / PAL / ext-shadow).
// ---------------------------------------------------------------------

TEST_F(EngineTest, PairStoreLoadStartsDma)
{
    make(EngineMode::ShadowPair);
    memory_.fill(0x2000, 0x11, 128);

    sstore(0x4000, 128);          // STORE size TO shadow(dst)
    EXPECT_TRUE(engine_->pairLatchValid());
    const std::uint64_t status = sload(0x2000);   // LOAD shadow(src)
    EXPECT_EQ(status, dmastatus::ok);
    EXPECT_FALSE(engine_->pairLatchValid());

    settle();
    EXPECT_EQ(memory_.readInt(0x4000, 1), 0x11u);
    ASSERT_EQ(engine_->initiations().size(), 1u);
    EXPECT_EQ(engine_->initiations()[0].src, 0x2000u);
    EXPECT_EQ(engine_->initiations()[0].dst, 0x4000u);
}

TEST_F(EngineTest, PairLoadWithoutStoreFails)
{
    make(EngineMode::ShadowPair);
    EXPECT_EQ(sload(0x2000), dmastatus::failure);
    EXPECT_EQ(engine_->numInitiations(), 0u);
    EXPECT_EQ(engine_->numRejects(), 1u);
}

TEST_F(EngineTest, PairLatchIsConsumedOnce)
{
    make(EngineMode::ShadowPair);
    sstore(0x4000, 64);
    EXPECT_EQ(sload(0x2000), dmastatus::ok);
    // A second load has no latch to pair with.
    EXPECT_EQ(sload(0x2000), dmastatus::failure);
    EXPECT_EQ(engine_->numInitiations(), 1u);
}

TEST_F(EngineTest, PairSecondStoreOverwritesFirst)
{
    make(EngineMode::ShadowPair);
    sstore(0x4000, 64);
    sstore(0x6000, 32);   // replaces the latch
    EXPECT_EQ(sload(0x2000), dmastatus::ok);
    settle();
    ASSERT_EQ(engine_->initiations().size(), 1u);
    EXPECT_EQ(engine_->initiations()[0].dst, 0x6000u);
    EXPECT_EQ(engine_->initiations()[0].size, 32u);
}

TEST_F(EngineTest, ExtShadowLatchesArePerContextId)
{
    make(EngineMode::ShadowPair, /*ctx_bits=*/2);

    // Two processes interleave; each uses its own CONTEXT_ID.
    sstore(0x4000, 64, /*pid=*/1, /*ctx=*/0);
    sstore(0x6000, 32, /*pid=*/2, /*ctx=*/1);
    EXPECT_EQ(sload(0x2000, 1, 0), dmastatus::ok);
    EXPECT_EQ(sload(0x8000, 2, 1), dmastatus::ok);
    settle();

    ASSERT_EQ(engine_->initiations().size(), 2u);
    EXPECT_EQ(engine_->initiations()[0].dst, 0x4000u);
    EXPECT_EQ(engine_->initiations()[0].ctx, 0u);
    EXPECT_EQ(engine_->initiations()[1].dst, 0x6000u);
    EXPECT_EQ(engine_->initiations()[1].ctx, 1u);
}

TEST_F(EngineTest, FlashTagMismatchRejects)
{
    make(EngineMode::ShadowPair, 0, /*flash=*/true);

    kwrite(kregs::osProcessTag, 1);   // OS says process 1 runs
    sstore(0x4000, 64, 1);
    kwrite(kregs::osProcessTag, 2);   // context switch to process 2
    EXPECT_EQ(sload(0x2000, 2), dmastatus::failure);
    EXPECT_EQ(engine_->numInitiations(), 0u);

    // Same-process pair succeeds.
    kwrite(kregs::osProcessTag, 1);
    sstore(0x4000, 64, 1);
    EXPECT_EQ(sload(0x2000, 1), dmastatus::ok);
}

TEST_F(EngineTest, InvalidateRegisterClearsLatch)
{
    make(EngineMode::ShadowPair);
    sstore(0x4000, 64);
    kwrite(kregs::invalidate, 1);   // SHRIMP-2 context-switch hook
    EXPECT_EQ(sload(0x2000), dmastatus::failure);
}

// ---------------------------------------------------------------------
// Key-based protocol (figure 3).
// ---------------------------------------------------------------------

class KeyEngineTest : public EngineTest
{
  protected:
    void
    SetUp() override
    {
        make(EngineMode::KeyBased);
        kwrite(kregs::keyCtxSelect, 0);
        kwrite(kregs::keyValue, key_);
    }

    std::uint64_t payload() const { return keyfield::pack(key_, 0); }

    const std::uint64_t key_ = 0xABCD'1234'55AAull;
};

TEST_F(KeyEngineTest, FullSequenceStartsDma)
{
    memory_.fill(0x2000, 0x3C, 200);
    sstore(0x4000, payload());   // dst
    sstore(0x2000, payload());   // src
    cstore(0, 200);              // size
    const std::uint64_t status = cload(0);
    EXPECT_NE(status, dmastatus::failure);
    EXPECT_EQ(status, 200u);     // remaining right after start

    settle();
    EXPECT_EQ(cload(0), 0u);     // completed
    EXPECT_EQ(memory_.readInt(0x4000, 1), 0x3Cu);
}

TEST_F(KeyEngineTest, WrongKeyIsIgnored)
{
    sstore(0x4000, keyfield::pack(key_ ^ 1, 0));
    sstore(0x2000, keyfield::pack(key_ ^ 1, 0));
    cstore(0, 64);
    EXPECT_EQ(cload(0), dmastatus::failure);
    EXPECT_EQ(engine_->numKeyMismatches(), 2u);
    EXPECT_EQ(engine_->numInitiations(), 0u);
}

TEST_F(KeyEngineTest, GuessingKeysNeverHits)
{
    // A "lucky user" probing with random keys (paper §3.1's analysis:
    // with ~56 key bits the chance is practically zero).
    Random rng(2024);
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t guess = rng.next64() & mask(keyfield::keyBits);
        if (guess == key_)
            continue;   // astronomically unlikely; keep the test honest
        sstore(0x4000, keyfield::pack(guess, 0), 66);
    }
    cstore(0, 64, 66);
    EXPECT_EQ(cload(0, 66), dmastatus::failure);
    EXPECT_EQ(engine_->numInitiations(), 0u);
}

TEST_F(KeyEngineTest, MissingArgumentsFail)
{
    // Size but no addresses.
    cstore(0, 64);
    EXPECT_EQ(cload(0), dmastatus::failure);

    // Addresses but no size: loading returns failure and resets.
    sstore(0x4000, payload());
    sstore(0x2000, payload());
    EXPECT_EQ(cload(0), dmastatus::failure);
}

TEST_F(KeyEngineTest, ShadowLoadIsRejectedInKeyMode)
{
    EXPECT_EQ(sload(0x2000), dmastatus::failure);
}

TEST_F(KeyEngineTest, ThirdStoreStartsFreshPair)
{
    // dst, src, then an extra store: begins a new argument pair.
    sstore(0x4000, payload());
    sstore(0x2000, payload());
    sstore(0x6000, payload());   // new dst
    sstore(0x2000, payload());   // new src
    cstore(0, 96);
    EXPECT_NE(cload(0), dmastatus::failure);
    settle();
    ASSERT_EQ(engine_->initiations().size(), 1u);
    EXPECT_EQ(engine_->initiations()[0].dst, 0x6000u);
}

TEST_F(KeyEngineTest, ContextsAreIndependent)
{
    const std::uint64_t key1 = 0x1111'2222'3333ull;
    kwrite(kregs::keyCtxSelect, 1);
    kwrite(kregs::keyValue, key1);

    // Interleaved argument passing by two processes, two contexts.
    sstore(0x4000, keyfield::pack(key_, 0), 1);
    sstore(0x6000, keyfield::pack(key1, 1), 2);
    sstore(0x2000, keyfield::pack(key_, 0), 1);
    sstore(0x3000, keyfield::pack(key1, 1), 2);
    cstore(0, 64, 1);
    cstore(1, 32, 2);
    EXPECT_NE(cload(0, 1), dmastatus::failure);
    EXPECT_NE(cload(1, 2), dmastatus::failure);
    settle();

    ASSERT_EQ(engine_->initiations().size(), 2u);
    EXPECT_EQ(engine_->initiations()[0].src, 0x2000u);
    EXPECT_EQ(engine_->initiations()[0].dst, 0x4000u);
    EXPECT_EQ(engine_->initiations()[1].src, 0x3000u);
    EXPECT_EQ(engine_->initiations()[1].dst, 0x6000u);
}

TEST_F(KeyEngineTest, CtxResetClearsKeyAndArgs)
{
    sstore(0x4000, payload());
    kwrite(kregs::ctxReset, 0);
    sstore(0x2000, payload());   // key now invalid -> dropped
    EXPECT_EQ(engine_->numKeyMismatches(), 1u);
}

// ---------------------------------------------------------------------
// Repeated passing of arguments (§3.3).
// ---------------------------------------------------------------------

TEST_F(EngineTest, Repeated5HappyPath)
{
    make(EngineMode::Repeated5);
    memory_.fill(0x2000, 0x99, 64);

    sstore(0x4000, 64);                         // 1: ST dst
    EXPECT_EQ(sload(0x2000), dmastatus::pending);   // 2: LD src
    sstore(0x4000, 64);                         // 3: ST dst
    EXPECT_EQ(sload(0x2000), dmastatus::pending);   // 4: LD src
    EXPECT_EQ(sload(0x4000), dmastatus::ok);        // 5: LD dst
    settle();
    EXPECT_EQ(memory_.readInt(0x4000, 1), 0x99u);
    EXPECT_EQ(engine_->numInitiations(), 1u);
}

TEST_F(EngineTest, Repeated5MismatchedDstResets)
{
    make(EngineMode::Repeated5);
    sstore(0x4000, 64);
    EXPECT_EQ(sload(0x2000), dmastatus::pending);
    sstore(0x6000, 64);   // wrong dst: reset, seeds a new sequence
    EXPECT_EQ(sload(0x2000), dmastatus::pending);
    sstore(0x6000, 64);
    EXPECT_EQ(sload(0x2000), dmastatus::pending);
    EXPECT_EQ(sload(0x6000), dmastatus::ok);   // the new sequence wins
    EXPECT_EQ(engine_->numInitiations(), 1u);
    EXPECT_EQ(engine_->initiations()[0].dst, 0x6000u);
}

TEST_F(EngineTest, Repeated5MismatchedSrcFails)
{
    make(EngineMode::Repeated5);
    sstore(0x4000, 64);
    EXPECT_EQ(sload(0x2000), dmastatus::pending);
    sstore(0x4000, 64);
    // Step 4 load from a different address: reset; a load cannot seed
    // step 0 (which needs a store), so it reports failure.
    EXPECT_EQ(sload(0x3000), dmastatus::failure);
    EXPECT_EQ(engine_->fsmStep(), 0u);
    EXPECT_EQ(engine_->numInitiations(), 0u);
}

TEST_F(EngineTest, Repeated5SizeComesFromLatestStore)
{
    make(EngineMode::Repeated5);
    sstore(0x4000, 64);
    sload(0x2000);
    sstore(0x4000, 32);   // updated size
    sload(0x2000);
    EXPECT_EQ(sload(0x4000), dmastatus::ok);
    settle();
    EXPECT_EQ(engine_->initiations()[0].size, 32u);
}

TEST_F(EngineTest, Repeated3SequenceAndReset)
{
    make(EngineMode::Repeated3);
    memory_.fill(0x2000, 0x42, 16);

    EXPECT_EQ(sload(0x2000), dmastatus::pending);   // 1: LD src
    sstore(0x4000, 16);                             // 2: ST dst
    EXPECT_EQ(sload(0x2000), dmastatus::ok);        // 3: LD src
    settle();
    EXPECT_EQ(engine_->numInitiations(), 1u);
    EXPECT_EQ(memory_.readInt(0x4000, 1), 0x42u);

    // Third load to the wrong address resets the sequence; because
    // rep-3 sequences *begin* with a load, the mismatching access
    // seeds a fresh sequence (gets `pending`) — exactly the behaviour
    // the figure-5 exploit relies on.  No DMA starts.
    sload(0x2000);
    sstore(0x4000, 16);
    EXPECT_EQ(sload(0x3000), dmastatus::pending);
    EXPECT_EQ(engine_->fsmStep(), 1u);
    EXPECT_EQ(engine_->numInitiations(), 1u);
}

TEST_F(EngineTest, Repeated4Sequence)
{
    make(EngineMode::Repeated4);
    sstore(0x4000, 48);
    EXPECT_EQ(sload(0x2000), dmastatus::pending);
    sstore(0x4000, 48);
    EXPECT_EQ(sload(0x2000), dmastatus::ok);
    EXPECT_EQ(engine_->numInitiations(), 1u);
}

TEST_F(EngineTest, FsmResetCounterTracksGarbledSequences)
{
    make(EngineMode::Repeated5);
    sstore(0x4000, 64);
    sload(0x2000);
    sload(0x3000);   // garbled
    EXPECT_GE(engine_->numFsmResets(), 1u);
}

// ---------------------------------------------------------------------
// Mapped-out pages (SHRIMP-1, §2.4).
// ---------------------------------------------------------------------

TEST_F(EngineTest, MappedOutTransfersToArrangedDestination)
{
    make(EngineMode::MappedOut);
    memory_.fill(0x2000, 0x5F, 100);

    kwrite(kregs::mapOutPfn, pageNumber(0x2000));
    kwrite(kregs::mapOutTarget, 0x10000);

    Packet pkt =
        Packet::makeWrite(engine_->params().shadowAddr(0x2000), 100);
    pkt.rmw = true;
    pkt.srcPid = 1;
    engine_->access(pkt);
    EXPECT_EQ(pkt.data, dmastatus::ok);
    settle();

    ASSERT_EQ(engine_->initiations().size(), 1u);
    EXPECT_EQ(engine_->initiations()[0].dst, 0x10000u);
    EXPECT_EQ(memory_.readInt(0x10000, 1), 0x5Fu);
}

TEST_F(EngineTest, MappedOutPreservesPageOffset)
{
    make(EngineMode::MappedOut);
    kwrite(kregs::mapOutPfn, pageNumber(0x2000));
    kwrite(kregs::mapOutTarget, 0x10000);

    Packet pkt = Packet::makeWrite(
        engine_->params().shadowAddr(0x2000 + 0x80), 16);
    pkt.rmw = true;
    engine_->access(pkt);
    settle();
    ASSERT_EQ(engine_->initiations().size(), 1u);
    EXPECT_EQ(engine_->initiations()[0].dst, 0x10080u);
}

TEST_F(EngineTest, MappedOutWithoutMappingFails)
{
    make(EngineMode::MappedOut);
    Packet pkt =
        Packet::makeWrite(engine_->params().shadowAddr(0x2000), 100);
    pkt.rmw = true;
    engine_->access(pkt);
    EXPECT_EQ(pkt.data, dmastatus::failure);
    EXPECT_EQ(engine_->numInitiations(), 0u);
}

TEST_F(EngineTest, MappedOutShadowLoadFails)
{
    // SHRIMP-1 initiates with one store to shadow(src); a shadow load
    // names no transfer, so it reads failure and counts as a reject.
    make(EngineMode::MappedOut);
    kwrite(kregs::mapOutPfn, pageNumber(0x2000));
    kwrite(kregs::mapOutTarget, 0x10000);
    EXPECT_EQ(sload(0x2000), dmastatus::failure);
    EXPECT_EQ(engine_->numRejects(), 1u);
    EXPECT_EQ(engine_->numInitiations(), 0u);
}

// ---------------------------------------------------------------------
// User-transfer validation.
// ---------------------------------------------------------------------

TEST_F(EngineTest, UserTransferMayNotCrossPages)
{
    make(EngineMode::ShadowPair);
    // Destination starts 8 bytes before a page boundary.
    sstore(pageSize - 8, 64);
    EXPECT_EQ(sload(0x2000), dmastatus::failure);
    EXPECT_EQ(engine_->numInitiations(), 0u);

    // Source crossing rejected too.
    sstore(0x4000, 64);
    EXPECT_EQ(sload(2 * pageSize - 8), dmastatus::failure);
}

TEST_F(EngineTest, UserTransferSizeLimits)
{
    make(EngineMode::ShadowPair);
    sstore(0x4000, 0);   // zero size
    EXPECT_EQ(sload(0x2000), dmastatus::failure);

    sstore(0x4000, userMaxTransfer + 1);
    EXPECT_EQ(sload(0x2000), dmastatus::failure);
}

TEST_F(EngineTest, UserTransferRejectsInvalidEndpoints)
{
    make(EngineMode::ShadowPair);
    // Beyond the backing memory (but inside shadow coverage).
    sstore(memSize + pageSize, 64);
    EXPECT_EQ(sload(0x2000), dmastatus::failure);
    EXPECT_EQ(engine_->numInitiations(), 0u);
}

TEST_F(EngineTest, FullPageTransferIsAllowed)
{
    make(EngineMode::ShadowPair);
    sstore(2 * pageSize, pageSize);   // page-aligned, full page
    EXPECT_EQ(sload(5 * pageSize), dmastatus::ok);
    EXPECT_EQ(engine_->numInitiations(), 1u);
}

// ---------------------------------------------------------------------
// Security-oracle provenance recording.
// ---------------------------------------------------------------------

TEST_F(EngineTest, InitiationRecordsContributors)
{
    make(EngineMode::Repeated5);
    sstore(0x4000, 64, /*pid=*/7);
    sload(0x2000, 7);
    sstore(0x4000, 64, 7);
    sload(0x2000, 8);    // interloper's load completes step 4
    sload(0x4000, 7);
    settle();

    ASSERT_EQ(engine_->initiations().size(), 1u);
    const auto &rec = engine_->initiations()[0];
    ASSERT_EQ(rec.contributors.size(), 5u);
    EXPECT_EQ(rec.contributors[3], 8);
    EXPECT_EQ(rec.contributors[0], 7);
}

// ---------------------------------------------------------------------
// Recognizer digests: the §3.3 recognizer's observable behaviour over
// a seeded access stream, pinned for every mode and variant.
// ---------------------------------------------------------------------

/** One recognizer configuration of the digest sweep. */
struct RecognizerConfig
{
    EngineMode mode;
    bool weak;          ///< DmaEngineParams::weakRecognizer
    unsigned ctxBits;   ///< DmaEngineParams::ctxIdBits
    bool capture;       ///< span capture on
};

/**
 * Drive a repeated-passing engine with @p accesses seeded shadow
 * accesses and fold everything observable into one FNV-1a digest:
 * each response, fsmStep() and stateHash() after every access, then
 * every initiation record and every span outcome.
 *
 * Four pids each follow the mode's own access sequence over their own
 * (src, dst, CONTEXT_ID), in bursts, with one access in eight replaced
 * by a random load or store; bursts of different pids interleave, so
 * the stream mixes complete sequences, splices and resets.  The event
 * queue drains every 256 accesses.
 */
std::uint64_t
recognizerDigest(const RecognizerConfig &config, std::uint64_t seed,
                 unsigned accesses)
{
    EventQueue eq;
    PhysicalMemory memory(1024 * 1024);
    LocalBackend backend(memory);
    ClockDomain clock("bus.clk", 80 * tickPerNs);
    DmaEngineParams params;
    params.mode = config.mode;
    params.weakRecognizer = config.weak;
    params.ctxIdBits = config.ctxBits;
    DmaEngine engine(eq, "dma", clock, params, backend);
    if (config.capture)
        span::tracker().enable();

    // The mode's access sequence: store?, and which address it names.
    struct Step
    {
        bool store;
        bool dst;
    };
    const std::vector<Step> seq =
        config.mode == EngineMode::Repeated3
            ? std::vector<Step>{{false, false}, {true, true}, {false, false}}
        : config.mode == EngineMode::Repeated4
            ? std::vector<Step>{{true, true}, {false, false}, {true, true},
                                {false, false}}
            : std::vector<Step>{{true, true}, {false, false}, {true, true},
                                {false, false}, {false, true}};

    // The third target ends 32 bytes before a page boundary, so larger
    // sizes make the engine refuse a cross-page transfer.
    const Addr targets[3] = {0x2000, 0x4000, 0x7FE0};
    const unsigned contexts = 1u << config.ctxBits;
    struct Walker
    {
        Addr src = 0, dst = 0;
        unsigned ctx = 0;
        std::size_t step = 0;
    };
    Random rng(seed);
    Walker walkers[4];
    for (Walker &w : walkers) {
        w.src = targets[rng.below(3)];
        w.dst = targets[rng.below(3)];
        w.ctx = static_cast<unsigned>(rng.below(contexts));
    }

    Fnv1a f;
    unsigned issued = 0;
    while (issued < accesses) {
        const Pid pid = static_cast<Pid>(1 + rng.below(4));
        Walker &w = walkers[pid - 1];
        const unsigned burst = static_cast<unsigned>(rng.inRange(1, 6));
        for (unsigned b = 0; b < burst && issued < accesses; ++b) {
            bool store;
            Addr target;
            unsigned ctx;
            if (rng.below(8) == 0) {
                store = rng.below(2) == 0;
                target = targets[rng.below(3)];
                ctx = static_cast<unsigned>(rng.below(contexts));
            } else {
                const Step &s = seq[w.step];
                store = s.store;
                target = s.dst ? w.dst : w.src;
                ctx = w.ctx;
                w.step = (w.step + 1) % seq.size();
            }
            const Addr paddr = params.shadowAddr(target, ctx);
            Packet pkt = store
                ? Packet::makeWrite(paddr, rng.inRange(16, 64))
                : Packet::makeRead(paddr);
            pkt.srcPid = pid;
            f.mix(engine.access(pkt));
            f.mix(pkt.data);
            f.mix(engine.fsmStep());
            f.mix(engine.stateHash());
            if (++issued % 256 == 0)
                eq.runToExhaustion();
        }
    }
    eq.runToExhaustion();

    for (const DmaEngine::InitiationRecord &r : engine.initiations()) {
        f.mix(r.when);
        f.mix(static_cast<std::uint64_t>(r.mode));
        f.mix(r.src);
        f.mix(r.dst);
        f.mix(r.size);
        f.mix(r.ctx);
        f.mix(r.viaKernel);
        f.mix(r.viaRing);
        f.mix(r.contributors.size());
        for (Pid p : r.contributors)
            f.mix(p);
    }
    if (config.capture) {
        const span::Tracker &t = span::tracker();
        f.mix(t.size());
        for (std::size_t i = 0; i < t.size(); ++i) {
            const span::Span &s = t.at(i);
            f.mix(s.id);
            f.mixBytes(s.protocol);
            f.mix(static_cast<std::uint64_t>(s.outcome));
            f.mix(s.ctx);
            f.mix(s.size);
            f.mix(s.firstAccess);
            f.mix(s.recognized);
            f.mix(s.queued);
            f.mix(s.busStart);
            f.mix(s.busEnd);
            f.mix(s.completed);
        }
        span::tracker().disable();
    }
    return f.h;
}

TEST(RecognizerDigest, EveryModeAndVariantMatchesTheRecordedDigest)
{
    // Recorded before the recognizer became one table per mode, so
    // they pin the behaviour that rewrite had to keep.  index =
    // ((mode * 2 + weak) * 2 + ctxBits) * 2 + capture.
    static constexpr std::uint64_t recorded[24] = {
        0x4bac3c8b40c49732ULL, 0x0a75e63cd4b52415ULL, 0x86748d1550a5528eULL,
        0x7c90a1ec905473abULL, 0x968f74c384b7c43cULL, 0xa56e6eb112e40565ULL,
        0xf561ab2f0e404b1eULL, 0x8cb4aeb2e872fe23ULL, 0xe2593d2ee4f778b9ULL,
        0xdbff0fbf0bfc4cc2ULL, 0xb1d89c80fa4fa9e4ULL, 0x38ace2130a26988cULL,
        0xa90d82ac64a67841ULL, 0xa990403efec7e227ULL, 0xa27cc3b9cfa699efULL,
        0xbacd92c381a9960aULL, 0xd329d9da0c04073cULL, 0x3a91df65fee092c1ULL,
        0x839851fe5f783e4fULL, 0xb420e55f95b20581ULL, 0x452369a54517d51fULL,
        0xf323726c2b0ceefdULL, 0xa8b97f8cc0e78b1cULL, 0xa685a18b6ad40ab1ULL,
    };
    const EngineMode modes[3] = {EngineMode::Repeated3, EngineMode::Repeated4,
                                 EngineMode::Repeated5};
    unsigned index = 0;
    for (EngineMode mode : modes) {
        for (bool weak : {false, true}) {
            for (unsigned ctx_bits : {0u, 1u}) {
                for (bool capture : {false, true}) {
                    SCOPED_TRACE(testing::Message()
                                 << toString(mode) << " weak=" << weak
                                 << " ctxBits=" << ctx_bits
                                 << " capture=" << capture);
                    const std::uint64_t digest = recognizerDigest(
                        {mode, weak, ctx_bits, capture}, 1997 + index,
                        20000);
                    EXPECT_EQ(digest, recorded[index]);
                    ++index;
                }
            }
        }
    }
}

/**
 * Drive a 256-slot cap engine with @p steps seeded steps and fold
 * stateHash() after every access into one FNV-1a digest, along with
 * the value each load returned.
 *
 * Presentations land on the first and last slots and on a few
 * scattered between them, so the latch table keeps idle runs of many
 * lengths, at its start and at its end too.  Every other one of those
 * slots holds a capability the kernel installed through its register
 * block.  A step is a status load, a presentation (each argument store
 * may be skipped, the capword store too, which leaves a half-filled
 * latch; the capword is mostly right, sometimes forged or stale, and
 * an endpoint sometimes escapes the span), or a kernel revoke and
 * re-arm.  The event queue drains every 16 steps, so transfers finish.
 */
std::uint64_t
capDigest(bool weak_cap, std::uint64_t seed, unsigned steps)
{
    EventQueue eq;
    PhysicalMemory memory(1024 * 1024);
    LocalBackend backend(memory);
    ClockDomain clock("bus.clk", 80 * tickPerNs);
    DmaEngineParams params;
    params.mode = EngineMode::KeyBased;
    params.cap.enabled = true;
    params.weakCap = weak_cap;
    DmaEngine engine(eq, "dma", clock, params, backend);

    Fnv1a f;
    const auto access = [&](Packet pkt) {
        f.mix(engine.access(pkt));
        f.mix(pkt.data);
        f.mix(engine.stateHash());
    };
    const auto kernelWrite = [&](Addr reg, std::uint64_t value) {
        access(Packet::makeWrite(dmaKernelRegsBase + reg, value));
    };
    f.mix(engine.stateHash());

    const unsigned slots[] = {0, 1, 2, 40, 97, 98, 128, 200, 253, 255};
    std::uint64_t secrets[256] = {};
    Random rng(seed);
    const auto arm = [&](unsigned slot) {
        secrets[slot] = rng.next64() & mask(capfield::secretBits);
        kernelWrite(kregs::capSlotSelect, slot);
        kernelWrite(kregs::capSecret, secrets[slot]);
    };
    for (std::size_t i = 0; i < std::size(slots); i += 2) {
        kernelWrite(kregs::capSlotSelect, slots[i]);
        kernelWrite(kregs::capSpanBase, 0);
        kernelWrite(kregs::capSpanLimit, 0x80000);
        kernelWrite(kregs::capConfig,
                    capconfig::pack(caprights::read | caprights::write,
                                    static_cast<unsigned>(i % 4)));
        arm(slots[i]);
    }

    // A page-local endpoint; one in eight lies past the span's end.
    const auto endpoint = [&]() {
        const Addr page = rng.below(8) == 0 ? 64 + rng.below(56)
                                            : rng.below(64);
        return page * pageSize + 8 * rng.below(64);
    };
    for (unsigned step = 0; step < steps; ++step) {
        const unsigned slot = slots[rng.below(std::size(slots))];
        const Addr page = engine.capPageAddr(slot);
        const Pid pid = static_cast<Pid>(1 + rng.below(4));
        const auto store = [&](Addr reg, std::uint64_t value) {
            Packet pkt = Packet::makeWrite(page + reg, value);
            pkt.srcPid = pid;
            access(pkt);
        };
        const std::uint64_t kind = rng.below(8);
        if (kind == 0) {
            Packet pkt = Packet::makeRead(page + cappage::word);
            pkt.srcPid = pid;
            access(pkt);
        } else if (kind == 7) {
            kernelWrite(kregs::capSlotSelect, slot);
            kernelWrite(kregs::capOp, capop::revoke);
            if (secrets[slot] != 0)
                arm(slot);
        } else {
            if (rng.below(8) != 0)
                store(cappage::src, endpoint());
            if (rng.below(8) != 0)
                store(cappage::dst, endpoint());
            if (rng.below(8) != 0)
                store(cappage::size, 8 * rng.below(33));
            if (rng.below(4) != 0) {
                std::uint64_t gen = engine.cap()->generation(slot);
                std::uint64_t secret = secrets[slot];
                const std::uint64_t forge = rng.below(8);
                if (forge == 0)
                    secret ^= 1;
                else if (forge == 1)
                    gen -= 1;
                store(cappage::word, capfield::pack(slot, gen, secret));
            }
        }
        if (step % 16 == 15)
            eq.runToExhaustion();
    }
    eq.runToExhaustion();
    f.mix(engine.stateHash());
    f.mix(engine.initiations().size());
    return f.h;
}

TEST(CapDigest, SeededPresentationsMatchTheRecordedDigest)
{
    // Recorded before idle presentation latches were folded into one
    // multiply (Fnv1a::mixZeros), which had to keep every digest.
    static constexpr std::uint64_t recorded[2] = {
        0x79e813e3208a7897ULL, 0x2a20d413074d5207ULL,
    };
    for (bool weak : {false, true}) {
        SCOPED_TRACE(testing::Message() << "weakCap=" << weak);
        const std::uint64_t digest = capDigest(weak, 1997, 3000);
        EXPECT_EQ(digest, recorded[weak]) << std::hex << digest;
    }
}

} // namespace
} // namespace uldma
