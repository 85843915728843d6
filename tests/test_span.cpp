/**
 * @file
 * Tests for the end-to-end span tracker (sim/span.hh): the zero-cost
 * disabled path, per-protocol outcome classification (completed /
 * rejected / key-mismatch / aborted), phase-timestamp ordering, the
 * uldma-spans-v1 export, coexistence with a saturated trace ring, and
 * a machine-level golden check that the Table-1 methods' end-to-end
 * p50 latencies stay within calibration bounds of the paper's numbers.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hh"
#include "dma/dma_engine.hh"
#include "dma/transfer_backend.hh"
#include "mem/bus.hh"
#include "sim/json.hh"
#include "sim/span.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"
#include "util/bitfield.hh"

namespace uldma {
namespace {

/**
 * Engine-level harness (mirrors test_dma_engine's fixture): drives a
 * DmaEngine directly with bus packets, no CPU or kernel in the way, so
 * each span transition can be provoked in isolation.
 */
class SpanEngineTest : public ::testing::Test
{
  protected:
    static constexpr Addr memSize = 4 * 1024 * 1024;

    SpanEngineTest() : memory_(memSize), backend_(memory_) {}

    ~SpanEngineTest() override { span::tracker().disable(); }

    DmaEngine &
    make(EngineMode mode, unsigned ctx_bits = 0)
    {
        DmaEngineParams params;
        params.mode = mode;
        params.ctxIdBits = ctx_bits;
        bus_clock_ =
            std::make_unique<ClockDomain>("bus.clk", 80 * tickPerNs);
        engine_ = std::make_unique<DmaEngine>(eq_, "dma", *bus_clock_,
                                              params, backend_);
        return *engine_;
    }

    void
    sstore(Addr target, std::uint64_t data, Pid pid = 1, unsigned ctx = 0)
    {
        Packet pkt = Packet::makeWrite(
            engine_->params().shadowAddr(target, ctx), data);
        pkt.srcPid = pid;
        engine_->access(pkt);
    }

    std::uint64_t
    sload(Addr target, Pid pid = 1, unsigned ctx = 0)
    {
        Packet pkt =
            Packet::makeRead(engine_->params().shadowAddr(target, ctx));
        pkt.srcPid = pid;
        engine_->access(pkt);
        return pkt.data;
    }

    void
    kwrite(Addr offset, std::uint64_t data)
    {
        Packet pkt = Packet::makeWrite(dmaKernelRegsBase + offset, data);
        engine_->access(pkt);
    }

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

    void settle() { eq_.runToExhaustion(); }

    EventQueue eq_;
    PhysicalMemory memory_;
    LocalBackend backend_;
    std::unique_ptr<ClockDomain> bus_clock_;
    std::unique_ptr<DmaEngine> engine_;
};

/** Same harness with span capture on for the duration of the test. */
class SpanCaptureTest : public SpanEngineTest
{
  protected:
    void SetUp() override { span::tracker().enable(); }
    void TearDown() override { span::tracker().disable(); }
};

// ---------------------------------------------------------------------
// Zero-cost disabled path.
// ---------------------------------------------------------------------

TEST_F(SpanEngineTest, DisabledPathDoesNoBookkeepingOrAllocation)
{
    span::tracker().disable();
    make(EngineMode::ShadowPair);
    memory_.fill(0x2000, 0x11, 128);

    // User-level pair and a kernel-channel transfer both run...
    sstore(0x4000, 128);
    EXPECT_EQ(sload(0x2000), dmastatus::ok);
    kwrite(kregs::source, 0x1000);
    kwrite(kregs::destination, 0x8000);
    kwrite(kregs::size, 64);
    settle();
    EXPECT_EQ(engine_->numInitiations(), 2u);

    // ...but the disabled tracker saw nothing and allocated nothing.
    EXPECT_FALSE(span::captureOn());
    EXPECT_EQ(span::tracker().opened(), 0u);
    EXPECT_EQ(span::tracker().size(), 0u);
    EXPECT_EQ(span::tracker().storageCapacity(), 0u);
}

// ---------------------------------------------------------------------
// Outcomes and phase ordering.
// ---------------------------------------------------------------------

TEST_F(SpanCaptureTest, CompletedShadowPairSpanOrdersPhases)
{
    make(EngineMode::ShadowPair);
    memory_.fill(0x2000, 0x11, 128);

    sstore(0x4000, 128);
    EXPECT_EQ(sload(0x2000), dmastatus::ok);
    settle();

    ASSERT_EQ(span::tracker().size(), 1u);
    const span::Span &s = span::tracker().at(0);
    EXPECT_EQ(s.protocol, "shadow-pair");
    EXPECT_EQ(s.outcome, span::Outcome::Completed);
    EXPECT_FALSE(s.viaKernel);
    EXPECT_FALSE(s.remote);
    EXPECT_EQ(s.size, 128u);
    // first-access -> recognized -> queued -> bus window -> delivery.
    EXPECT_LE(s.firstAccess, s.recognized);
    EXPECT_LE(s.recognized, s.queued);
    EXPECT_LE(s.queued, s.busStart);
    EXPECT_LT(s.busStart, s.busEnd);   // 128 bytes take bus time
    EXPECT_LE(s.busEnd, s.completed);
    EXPECT_GT(s.completed, s.firstAccess);
}

TEST_F(SpanCaptureTest, KernelChannelSpanIsViaKernel)
{
    make(EngineMode::ShadowPair);
    kwrite(kregs::source, 0x1000);
    kwrite(kregs::destination, 0x8000);
    kwrite(kregs::size, 256);
    settle();

    ASSERT_EQ(span::tracker().size(), 1u);
    const span::Span &s = span::tracker().at(0);
    EXPECT_EQ(s.protocol, "kernel");
    EXPECT_TRUE(s.viaKernel);
    EXPECT_EQ(s.size, 256u);
    EXPECT_EQ(s.outcome, span::Outcome::Completed);
}

TEST_F(SpanCaptureTest, RejectedLoadHasNoTransferPhases)
{
    make(EngineMode::ShadowPair);
    // LOAD with no latched destination: the initiation is refused
    // before anything reaches the transfer engine.
    EXPECT_EQ(sload(0x2000), dmastatus::failure);

    ASSERT_EQ(span::tracker().size(), 1u);
    const span::Span &s = span::tracker().at(0);
    EXPECT_EQ(s.outcome, span::Outcome::Rejected);
    EXPECT_EQ(s.queued, 0u);
    EXPECT_EQ(s.busStart, 0u);
    EXPECT_EQ(s.busEnd, 0u);
    EXPECT_GE(s.completed, s.firstAccess);
}

TEST_F(SpanCaptureTest, WrongKeyStoreRecordsKeyMismatch)
{
    const std::uint64_t key = 0xABCD'1234'55AAull;
    make(EngineMode::KeyBased);
    kwrite(kregs::keyCtxSelect, 0);
    kwrite(kregs::keyValue, key);

    sstore(0x4000, keyfield::pack(key ^ 1, 0));

    ASSERT_EQ(span::tracker().size(), 1u);
    EXPECT_EQ(span::tracker().at(0).outcome,
              span::Outcome::KeyMismatch);
    EXPECT_EQ(span::tracker().at(0).queued, 0u);
    EXPECT_EQ(engine_->numKeyMismatches(), 1u);
}

TEST_F(SpanCaptureTest, InvalidateAbortsHalfInitiatedPair)
{
    make(EngineMode::ShadowPair);
    sstore(0x4000, 128);                   // latch armed, span open
    kwrite(kregs::invalidate, 1);          // §2.5 context-switch hook

    ASSERT_EQ(span::tracker().size(), 1u);
    EXPECT_EQ(span::tracker().at(0).outcome, span::Outcome::Aborted);
    EXPECT_EQ(span::tracker().at(0).queued, 0u);
}

TEST_F(SpanCaptureTest, ContextSwitchResetAbortsRepeatedSequence)
{
    make(EngineMode::Repeated5);
    memory_.fill(0x2000, 0x42, 64);

    // Two of five steps, then the §3.3 context-switch reset.
    sstore(0x4000, 64);
    EXPECT_EQ(sload(0x2000), dmastatus::pending);
    kwrite(kregs::invalidate, 1);

    ASSERT_EQ(span::tracker().size(), 1u);
    EXPECT_EQ(span::tracker().at(0).outcome, span::Outcome::Aborted);

    // A fresh full sequence after the reset completes normally.
    sstore(0x4000, 64);
    EXPECT_EQ(sload(0x2000), dmastatus::pending);
    sstore(0x4000, 64);
    EXPECT_EQ(sload(0x2000), dmastatus::pending);
    EXPECT_EQ(sload(0x4000), dmastatus::ok);
    settle();

    ASSERT_EQ(span::tracker().size(), 2u);
    EXPECT_EQ(span::tracker().at(1).outcome, span::Outcome::Completed);
    EXPECT_EQ(span::tracker().at(1).protocol, "repeated-5");
}

// ---------------------------------------------------------------------
// Coexistence with a saturated trace ring.
// ---------------------------------------------------------------------

TEST_F(SpanCaptureTest, SpanCaptureSurvivesTraceRingOverflow)
{
    // A tiny event ring overflows immediately; span capture must keep
    // every span regardless — the two stores are independent.
    trace::eventRing().enable(4);
    make(EngineMode::ShadowPair);

    constexpr unsigned kPairs = 6;
    for (unsigned i = 0; i < kPairs; ++i) {
        const Addr src = 0x2000 + i * pageSize;
        const Addr dst = 0x100000 + i * pageSize;
        memory_.fill(src, 0x50 + i, 64);
        sstore(dst, 64);
        EXPECT_EQ(sload(src), dmastatus::ok);
        settle();
    }

    EXPECT_GT(trace::eventRing().dropped(), 0u);
    ASSERT_EQ(span::tracker().size(), kPairs);
    for (std::size_t i = 0; i < kPairs; ++i) {
        EXPECT_EQ(span::tracker().at(i).outcome,
                  span::Outcome::Completed);
    }
    trace::eventRing().disable();
}

// ---------------------------------------------------------------------
// uldma-spans-v1 export.
// ---------------------------------------------------------------------

TEST_F(SpanCaptureTest, ExportJsonCarriesSpansAndProtocolSummary)
{
    make(EngineMode::ShadowPair);
    memory_.fill(0x2000, 0x11, 128);
    sstore(0x4000, 128);
    EXPECT_EQ(sload(0x2000), dmastatus::ok);
    sload(0x3000);   // rejected: no latch
    settle();

    std::ostringstream os;
    span::tracker().exportJson(os);
    ASSERT_TRUE(json::valid(os.str())) << os.str();

    const json::Value root = json::parse(os.str());
    EXPECT_EQ(root["schema"].asString(), "uldma-spans-v1");
    EXPECT_EQ(root["opened"].asNumber(), 2.0);
    ASSERT_EQ(root["spans"].size(), 2u);

    const json::Value &done = root["spans"][0];
    EXPECT_EQ(done["outcome"].asString(), "completed");
    EXPECT_TRUE(done["phases_us"].isObject());
    EXPECT_GT(done["phases_us"]["total"].asNumber(), 0.0);

    const json::Value &refused = root["spans"][1];
    EXPECT_EQ(refused["outcome"].asString(), "rejected");
    // Rejected spans never reached a transfer: no phases block.
    EXPECT_FALSE(refused.has("phases_us"));

    ASSERT_EQ(root["summary"]["protocols"].size(), 1u);
    const json::Value &ps = root["summary"]["protocols"][0];
    EXPECT_EQ(ps["protocol"].asString(), "shadow-pair");
    EXPECT_EQ(ps["completed"].asNumber(), 1.0);
    EXPECT_EQ(ps["rejected"].asNumber(), 1.0);
    EXPECT_EQ(ps["end_to_end_us"]["count"].asNumber(), 1.0);
    EXPECT_EQ(ps["end_to_end_us"]["p50"].asNumber(),
              done["phases_us"]["total"].asNumber());
}

// ---------------------------------------------------------------------
// Machine-level golden check against the paper's Table 1.
// ---------------------------------------------------------------------

namespace {

/** Run @p n initiations of @p method with spans on; parsed export. */
json::Value
spansAfterInitiations(DmaMethod method, unsigned n)
{
    span::tracker().enable();

    // The Table-1 calibration point (uldma_run's defaults): 150 MHz
    // CPU, TURBOchannel I/O bus, 2300-cycle syscall overhead.
    MachineConfig config;
    config.node.cpu.clockMHz = 150;
    config.node.kernel.syscallOverheadCycles = Cycles(2300);
    configureNode(config.node, method);
    Machine machine(config);
    prepareMachine(machine, method);
    Kernel &kernel = machine.node(0).kernel();
    Process &p = kernel.createProcess("p");
    EXPECT_TRUE(prepareProcess(kernel, p, method));
    const Addr src = kernel.allocate(p, n * pageSize, Rights::ReadWrite);
    const Addr dst = kernel.allocate(p, n * pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(p, src, n * pageSize);
    kernel.createShadowMappings(p, dst, n * pageSize);

    Program prog;
    for (unsigned i = 0; i < n; ++i)
        emitInitiation(prog, kernel, p, method, src + i * pageSize,
                       dst + i * pageSize, 8);
    prog.exit();
    kernel.launch(p, std::move(prog));
    machine.start();
    EXPECT_TRUE(machine.run(60 * tickPerSec));

    std::ostringstream os;
    span::tracker().exportJson(os);
    span::tracker().disable();
    EXPECT_TRUE(json::valid(os.str()));
    return json::parse(os.str());
}

const json::Value &
protocolSummary(const json::Value &root, const std::string &protocol)
{
    static const json::Value null_value;
    for (const json::Value &ps :
         root["summary"]["protocols"].asArray()) {
        if (ps["protocol"].asString() == protocol)
            return ps;
    }
    return null_value;
}

} // namespace

TEST(SpanTable1, EndToEndP50WithinPaperCalibrationBounds)
{
    constexpr unsigned kInitiations = 10;
    for (DmaMethod method : table1Methods) {
        SCOPED_TRACE(toString(method));
        const json::Value root =
            spansAfterInitiations(method, kInitiations);

        const std::string protocol = method == DmaMethod::Kernel
            ? "kernel"
            : toString(engineModeFor(method));
        const json::Value &ps = protocolSummary(root, protocol);
        ASSERT_TRUE(ps.isObject()) << "no summary for " << protocol;
        EXPECT_EQ(ps["completed"].asNumber(),
                  static_cast<double>(kInitiations));
        EXPECT_EQ(ps["rejected"].asNumber(), 0.0);

        // The simulator is calibrated against Table 1's numbers, not
        // cycle-identical to them, and a span measures the
        // *engine-side* window (first engine-visible access to
        // delivery) where Table 1 times CPU occupancy — for protocols
        // whose argument stores post through the write buffer
        // (key-based) the engine window is compressed relative to the
        // CPU's.  Observed ratios sit in [0.35, 0.75], so [0.3x, 2.0x]
        // pins the calibration without chasing exact constants.
        const double p50 = ps["end_to_end_us"]["p50"].asNumber();
        const double paper = paperTable1Us(method);
        EXPECT_GE(p50, 0.3 * paper) << "p50 " << p50 << "us";
        EXPECT_LE(p50, 2.0 * paper) << "p50 " << p50 << "us";

        // Phase accounting adds up: every phase is non-negative and no
        // phase exceeds the end-to-end figure.
        for (const char *phase :
             {"initiation", "queue", "bus", "delivery"}) {
            const double v =
                ps["phases_us"][phase]["p50"].asNumber();
            EXPECT_GE(v, 0.0) << phase;
            EXPECT_LE(v, p50 + 1e-9) << phase;
        }

        // The kernel method pays its syscall overhead before the
        // engine sees the registers; user-level methods do not.
        const double queue_p50 =
            ps["phases_us"]["queue"]["p50"].asNumber();
        if (method == DmaMethod::Kernel)
            EXPECT_GT(queue_p50, 1.0);
        else
            EXPECT_LT(queue_p50, 1.0);
    }
}

} // namespace
} // namespace uldma
