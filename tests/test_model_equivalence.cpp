/**
 * @file
 * Model-equivalence checks: the TLB must agree with the raw page table
 * on every translation under random mapping churn, and the network
 * must deliver each sender's messages in order.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "nic/network.hh"
#include "util/random.hh"
#include "vm/tlb.hh"

namespace uldma {
namespace {

class TlbEquivalence : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TlbEquivalence, AgreesWithPageTableUnderChurn)
{
    Random rng(GetParam());
    PageTable pt;
    TlbParams params;
    params.entries = 4;   // tiny: lots of evictions
    Tlb tlb("tlb", params);

    const Rights rights_options[] = {Rights::None, Rights::Read,
                                     Rights::ReadWrite};

    for (int op = 0; op < 4000; ++op) {
        const Addr vpn = rng.below(24);
        const Addr vaddr = (vpn << pageShift) | rng.below(pageSize);
        const double roll = rng.nextDouble();

        if (roll < 0.15) {
            pt.mapPage(vaddr, (rng.below(64) << pageShift),
                       rights_options[rng.below(3)],
                       rng.chance(0.2));
        } else if (roll < 0.2) {
            pt.unmapPage(vaddr);
        } else {
            const Rights need =
                rng.chance(0.5) ? Rights::Read : Rights::Write;
            Cycles miss = 0;
            const Translation via_tlb =
                tlb.translate(pt, vaddr, need, miss);
            const Translation direct = pt.translate(vaddr, need);
            ASSERT_EQ(via_tlb.fault, direct.fault) << "op " << op;
            if (direct.ok()) {
                ASSERT_EQ(via_tlb.paddr, direct.paddr) << "op " << op;
                ASSERT_EQ(via_tlb.uncacheable, direct.uncacheable);
            }
        }
        if (rng.chance(0.01))
            tlb.flush();
    }
    // The tiny TLB really was exercised.
    EXPECT_GT(tlb.misses(), 100u);
    EXPECT_GT(tlb.hits(), 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlbEquivalence,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(NetworkOrdering, PerSenderFifoDelivery)
{
    EventQueue eq;
    Network network(eq);
    PhysicalMemory mem0(1 << 20), mem1(1 << 20);
    network.addNode(mem0);
    network.addNode(mem1);

    // Send 50 messages to the same destination word; after each
    // delivery, record the observed value.  FIFO per-sender delivery
    // means the observations are exactly 1..50 in order.
    std::vector<std::uint64_t> observed;
    Random rng(5);
    for (std::uint64_t i = 1; i <= 50; ++i) {
        const std::uint64_t value = i;
        // Random payload sizes stress the serialization arithmetic.
        std::vector<std::uint8_t> payload(8 + rng.below(512) * 8, 0);
        std::memcpy(payload.data(), &value, 8);
        network.send(0, 1, 0x1000, payload.data(), payload.size(),
                     [&observed, &mem1]() {
                         observed.push_back(mem1.readInt(0x1000, 8));
                     });
    }
    eq.runToExhaustion();

    ASSERT_EQ(observed.size(), 50u);
    for (std::uint64_t i = 0; i < 50; ++i)
        ASSERT_EQ(observed[i], i + 1) << "delivery " << i;
}

TEST(NetworkOrdering, DistinctSendersDoNotBlockEachOther)
{
    EventQueue eq;
    Network network(eq);
    PhysicalMemory mem0(1 << 20), mem1(1 << 20), mem2(1 << 20);
    network.addNode(mem0);
    network.addNode(mem1);
    network.addNode(mem2);

    // Node 0 sends a huge message to node 2; node 1's small message
    // to node 2 is NOT delayed behind it (separate source links).
    std::vector<std::uint8_t> big(64 * 1024, 1);
    const std::uint64_t small_value = 7;
    const Tick big_arrival = network.send(0, 2, 0x0, big.data(),
                                          big.size());
    const Tick small_arrival =
        network.send(1, 2, 0x20000, &small_value, 8);
    EXPECT_LT(small_arrival, big_arrival);
    eq.runToExhaustion();
    EXPECT_EQ(mem2.readInt(0x20000, 8), 7u);
}

} // namespace
} // namespace uldma
