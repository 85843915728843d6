/**
 * @file
 * Unit tests for the nic module: network message delivery and timing,
 * remote-memory windows (Telegraphos-style), the NIC as DMA transfer
 * backend, and the atomic-operation unit of paper §3.5.
 */

#include <gtest/gtest.h>

#include "nic/atomic_unit.hh"
#include "nic/network.hh"
#include "nic/network_interface.hh"
#include "sim/ticks.hh"

namespace uldma {
namespace {

class NicTest : public ::testing::Test
{
  protected:
    static constexpr Addr memSize = 4 * 1024 * 1024;

    NicTest()
        : network_(eq_), mem0_(memSize), mem1_(memSize),
          busClock_("bus.clk", 80 * tickPerNs)
    {
        NicParams params;
        params.windowSize = memSize;
        network_.addNode(mem0_);
        network_.addNode(mem1_);
        nic0_ = std::make_unique<NetworkInterface>("nic0", params,
                                                   busClock_, network_, 0,
                                                   mem0_);
        nic1_ = std::make_unique<NetworkInterface>("nic1", params,
                                                   busClock_, network_, 1,
                                                   mem1_);
    }

    EventQueue eq_;
    Network network_;
    PhysicalMemory mem0_, mem1_;
    ClockDomain busClock_;
    std::unique_ptr<NetworkInterface> nic0_, nic1_;
};

// ---------------------------------------------------------------------
// Network.
// ---------------------------------------------------------------------

TEST_F(NicTest, SendDeliversAfterLatency)
{
    const std::uint64_t value = 0xFACE;
    const Tick arrival =
        network_.send(0, 1, 0x1000, &value, 8);
    EXPECT_GT(arrival, Network::linkLatency);

    // Not yet delivered.
    EXPECT_EQ(mem1_.readInt(0x1000, 8), 0u);
    eq_.runToExhaustion();
    EXPECT_EQ(mem1_.readInt(0x1000, 8), value);
    EXPECT_EQ(eq_.now(), arrival);
}

TEST_F(NicTest, SendCapturesPayloadAtSendTime)
{
    std::uint64_t value = 0x1111;
    network_.send(0, 1, 0x2000, &value, 8);
    value = 0x2222;   // mutate after send
    eq_.runToExhaustion();
    EXPECT_EQ(mem1_.readInt(0x2000, 8), 0x1111u);
}

TEST_F(NicTest, SerializationScalesWithSize)
{
    const Tick small = network_.serialization(64);
    const Tick big = network_.serialization(64 * 1024);
    EXPECT_GT(big, 100 * small);

    // 1 Gb/s: 64 KiB + overhead ~= 524 us of wire time.
    EXPECT_NEAR(ticksToUs(big), 524.0, 10.0);
}

TEST_F(NicTest, LinkSerializesBackToBackMessages)
{
    const std::vector<std::uint8_t> big(8 * 1024, 0x7E);
    const std::uint64_t v = 1;
    const Tick first = network_.send(0, 1, 0x0, big.data(), big.size());
    const Tick second = network_.send(0, 1, 0x4000, &v, 8);
    // The second message queues behind the first on the sender's link.
    EXPECT_GT(second, first);
    eq_.runToExhaustion();
}

TEST_F(NicTest, RemoteReadReturnsDataAndRtt)
{
    mem1_.writeInt(0x3000, 0xBEEF, 8);
    std::uint64_t out = 0;
    const Tick rtt = network_.remoteRead(0, 1, 0x3000, &out, 8);
    EXPECT_EQ(out, 0xBEEFu);
    EXPECT_GE(rtt, 2 * Network::linkLatency);
}

TEST_F(NicTest, DeliveryCallbackFires)
{
    bool delivered = false;
    const std::uint64_t v = 9;
    network_.send(0, 1, 0x100, &v, 8, [&] { delivered = true; });
    EXPECT_FALSE(delivered);
    eq_.runToExhaustion();
    EXPECT_TRUE(delivered);
}

// ---------------------------------------------------------------------
// Remote-memory windows.
// ---------------------------------------------------------------------

TEST_F(NicTest, WindowAddressRoundTrip)
{
    const Addr w = nic0_->remoteWindowAddr(1, 0x1234);
    EXPECT_TRUE(nic0_->isRemote(w));
    NodeId node = 99;
    Addr remote = 0;
    nic0_->decodeRemote(w, node, remote);
    EXPECT_EQ(node, 1u);
    EXPECT_EQ(remote, 0x1234u);
}

TEST_F(NicTest, UncachedStoreToWindowReachesRemoteMemory)
{
    Packet pkt =
        Packet::makeWrite(nic0_->remoteWindowAddr(1, 0x5000), 0x42);
    nic0_->access(pkt);
    eq_.runToExhaustion();
    EXPECT_EQ(mem1_.readInt(0x5000, 8), 0x42u);
    EXPECT_EQ(nic0_->remoteStores(), 1u);
}

TEST_F(NicTest, UncachedLoadFromWindowReadsRemoteMemory)
{
    mem1_.writeInt(0x6000, 0x77, 8);
    Packet pkt = Packet::makeRead(nic0_->remoteWindowAddr(1, 0x6000));
    const Tick latency = nic0_->access(pkt);
    EXPECT_EQ(pkt.data, 0x77u);
    // Synchronous remote read pays the round trip.
    EXPECT_GE(latency, 2 * Network::linkLatency);
}

TEST_F(NicTest, OwnWindowLoopsBackLocally)
{
    Packet pkt =
        Packet::makeWrite(nic0_->remoteWindowAddr(0, 0x7000), 0x99);
    nic0_->access(pkt);
    EXPECT_EQ(mem0_.readInt(0x7000, 8), 0x99u);
}

TEST_F(NicTest, WindowForAbsentNodeReadsAllOnes)
{
    Packet pkt = Packet::makeRead(nic0_->remoteWindowAddr(3, 0x0));
    nic0_->access(pkt);
    EXPECT_EQ(pkt.data, ~std::uint64_t(0));
}

// ---------------------------------------------------------------------
// NIC as the DMA engine's transfer backend.
// ---------------------------------------------------------------------

TEST_F(NicTest, ValidEndpoints)
{
    EXPECT_TRUE(nic0_->validEndpoint(0x1000, 64));
    EXPECT_TRUE(nic0_->validEndpoint(memSize - 64, 64));
    EXPECT_FALSE(nic0_->validEndpoint(memSize - 32, 64));
    EXPECT_FALSE(nic0_->validEndpoint(0x1000, 0));
    EXPECT_TRUE(
        nic0_->validEndpoint(nic0_->remoteWindowAddr(1, 0x0), 128));
    // Window of a node beyond the registered network.
    EXPECT_FALSE(
        nic0_->validEndpoint(nic0_->remoteWindowAddr(3, 0x0), 128));
}

TEST_F(NicTest, MoveBytesLocalToRemote)
{
    mem0_.fill(0x1000, 0x5A, 256);
    const Tick extra = nic0_->moveBytes(
        0x1000, nic0_->remoteWindowAddr(1, 0x9000), 256);
    EXPECT_GT(extra, 0u);   // network delivery latency
    eq_.runToExhaustion();
    EXPECT_EQ(mem1_.readInt(0x9000, 1), 0x5Au);
    EXPECT_EQ(mem1_.readInt(0x90FF, 1), 0x5Au);
}

TEST_F(NicTest, MoveBytesRemoteToLocal)
{
    mem1_.fill(0x2000, 0x33, 64);
    nic0_->moveBytes(nic0_->remoteWindowAddr(1, 0x2000), 0x8000, 64);
    eq_.runToExhaustion();
    EXPECT_EQ(mem0_.readInt(0x8000, 1), 0x33u);
}

TEST_F(NicTest, MoveBytesLocalIsImmediate)
{
    mem0_.fill(0x1000, 0x11, 32);
    const Tick extra = nic0_->moveBytes(0x1000, 0x2000, 32);
    EXPECT_EQ(extra, 0u);
    EXPECT_EQ(mem0_.readInt(0x2000, 1), 0x11u);
}

// ---------------------------------------------------------------------
// Atomic unit (§3.5).
// ---------------------------------------------------------------------

class AtomicUnitTest : public NicTest
{
  protected:
    AtomicUnitTest()
    {
        AtomicUnitParams params;
        unit_ = std::make_unique<AtomicUnit>("atomic", params, busClock_,
                                             *nic0_);
    }

    void
    arm(AtomicOp op, Addr target, std::uint64_t operand, Pid pid = 1)
    {
        Packet pkt = Packet::makeWrite(
            unit_->params().shadowAddr(op, target), operand);
        pkt.srcPid = pid;
        unit_->access(pkt);
    }

    std::uint64_t
    exec(AtomicOp op, Addr target, Pid pid = 1)
    {
        Packet pkt =
            Packet::makeRead(unit_->params().shadowAddr(op, target));
        pkt.srcPid = pid;
        unit_->access(pkt);
        return pkt.data;
    }

    std::unique_ptr<AtomicUnit> unit_;
};

TEST_F(AtomicUnitTest, AtomicAdd)
{
    mem0_.writeInt(0x1000, 10, 8);
    arm(AtomicOp::Add, 0x1000, 5);
    EXPECT_EQ(exec(AtomicOp::Add, 0x1000), 10u);   // returns old
    EXPECT_EQ(mem0_.readInt(0x1000, 8), 15u);
    EXPECT_EQ(unit_->numExecuted(), 1u);
}

TEST_F(AtomicUnitTest, FetchAndStore)
{
    mem0_.writeInt(0x1000, 111, 8);
    arm(AtomicOp::FetchStore, 0x1000, 222);
    EXPECT_EQ(exec(AtomicOp::FetchStore, 0x1000), 111u);
    EXPECT_EQ(mem0_.readInt(0x1000, 8), 222u);
}

TEST_F(AtomicUnitTest, CompareAndSwapBothWays)
{
    mem0_.writeInt(0x1000, 7, 8);

    // Matching expectation: swap happens.
    arm(AtomicOp::CompareSwap, 0x1000, 7);    // expected
    arm(AtomicOp::CompareSwap, 0x1000, 99);   // new value
    EXPECT_EQ(exec(AtomicOp::CompareSwap, 0x1000), 7u);
    EXPECT_EQ(mem0_.readInt(0x1000, 8), 99u);

    // Mismatched expectation: no swap, old value returned.
    arm(AtomicOp::CompareSwap, 0x1000, 7);
    arm(AtomicOp::CompareSwap, 0x1000, 55);
    EXPECT_EQ(exec(AtomicOp::CompareSwap, 0x1000), 99u);
    EXPECT_EQ(mem0_.readInt(0x1000, 8), 99u);
}

TEST_F(AtomicUnitTest, CasNeedsBothOperands)
{
    mem0_.writeInt(0x1000, 7, 8);
    arm(AtomicOp::CompareSwap, 0x1000, 7);   // only one operand
    EXPECT_EQ(exec(AtomicOp::CompareSwap, 0x1000), ~std::uint64_t(0));
    EXPECT_EQ(unit_->numRefused(), 1u);
    EXPECT_EQ(mem0_.readInt(0x1000, 8), 7u);
}

TEST_F(AtomicUnitTest, MismatchedTargetRefused)
{
    arm(AtomicOp::Add, 0x1000, 5);
    EXPECT_EQ(exec(AtomicOp::Add, 0x2000), ~std::uint64_t(0));
    EXPECT_EQ(unit_->numRefused(), 1u);
}

TEST_F(AtomicUnitTest, MismatchedOpRefused)
{
    arm(AtomicOp::Add, 0x1000, 5);
    EXPECT_EQ(exec(AtomicOp::FetchStore, 0x1000), ~std::uint64_t(0));
}

TEST_F(AtomicUnitTest, LatchConsumedOnce)
{
    mem0_.writeInt(0x1000, 0, 8);
    arm(AtomicOp::Add, 0x1000, 1);
    exec(AtomicOp::Add, 0x1000);
    EXPECT_EQ(exec(AtomicOp::Add, 0x1000), ~std::uint64_t(0));
    EXPECT_EQ(mem0_.readInt(0x1000, 8), 1u);   // only one add
}

TEST_F(AtomicUnitTest, RemoteTargetWorksAndPaysRtt)
{
    mem1_.writeInt(0x4000, 100, 8);
    const Addr remote = nic0_->remoteWindowAddr(1, 0x4000);
    arm(AtomicOp::Add, remote, 11);

    Packet pkt =
        Packet::makeRead(unit_->params().shadowAddr(AtomicOp::Add, remote));
    const Tick latency = unit_->access(pkt);
    EXPECT_EQ(pkt.data, 100u);
    EXPECT_EQ(mem1_.readInt(0x4000, 8), 111u);
    EXPECT_GE(latency, 2 * Network::linkLatency);
}

TEST_F(AtomicUnitTest, KernelRegisterBaseline)
{
    mem0_.writeInt(0x1000, 41, 8);
    auto kwrite = [&](Addr offset, std::uint64_t data) {
        Packet pkt = Packet::makeWrite(atomicKernelRegsBase + offset, data);
        unit_->access(pkt);
    };
    kwrite(akregs::address, 0x1000);
    kwrite(akregs::operand1, 1);
    kwrite(akregs::opcodeExec,
           static_cast<std::uint64_t>(AtomicOp::Add));

    Packet res = Packet::makeRead(atomicKernelRegsBase + akregs::result);
    unit_->access(res);
    EXPECT_EQ(res.data, 41u);
    EXPECT_EQ(mem0_.readInt(0x1000, 8), 42u);

    ASSERT_EQ(unit_->operations().size(), 1u);
    EXPECT_TRUE(unit_->operations()[0].viaKernel);
}

TEST_F(AtomicUnitTest, OperationRecordsContributors)
{
    mem0_.writeInt(0x1000, 0, 8);
    arm(AtomicOp::Add, 0x1000, 3, /*pid=*/5);
    exec(AtomicOp::Add, 0x1000, /*pid=*/6);
    ASSERT_EQ(unit_->operations().size(), 1u);
    const auto &rec = unit_->operations()[0];
    ASSERT_EQ(rec.contributors.size(), 2u);
    EXPECT_EQ(rec.contributors[0], 5);
    EXPECT_EQ(rec.contributors[1], 6);
    EXPECT_EQ(rec.result, 0u);
}

TEST_F(AtomicUnitTest, InvalidTargetRefused)
{
    arm(AtomicOp::Add, memSize + pageSize, 1);
    EXPECT_EQ(exec(AtomicOp::Add, memSize + pageSize),
              ~std::uint64_t(0));
}

} // namespace
} // namespace uldma
