/**
 * @file
 * Unit tests for the TransferEngine's bookkeeping of pending transfers
 * under a deep queue: remaining() / complete() / cancel() on the
 * front, middle and back of a thousand queued transfers, on retired
 * ids and on ids never issued, and payload suppression by a cancel.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dma/transfer_backend.hh"
#include "dma/transfer_engine.hh"
#include "sim/ticks.hh"

namespace uldma {
namespace {

class DeepQueueTest : public ::testing::Test
{
  protected:
    static constexpr unsigned count = 1024;
    static constexpr Addr size = 64;
    static constexpr Addr srcBase = 0x10000;
    static constexpr Addr dstBase = 0x40000;

    DeepQueueTest()
        : memory_(1024 * 1024), backend_(memory_),
          busClock_("bus.clk", 80 * tickPerNs),
          xfer_(eq_, "xfer", busClock_, backend_)
    {
        for (unsigned i = 0; i < count; ++i)
            memory_.fill(src(i), static_cast<std::uint8_t>(i % 255 + 1),
                         size);
        // Every transfer is queued at tick 0, so they wait behind each
        // other in the serialized pipeline.
        for (unsigned i = 0; i < count; ++i) {
            ids_.push_back(xfer_.start(src(i), dst(i), size, [this, i] {
                completedOrder_.push_back(i);
            }));
            ends_.push_back(xfer_.busyUntil());
        }
    }

    static Addr src(unsigned i) { return srcBase + i * size; }
    static Addr dst(unsigned i) { return dstBase + i * size; }

    /** True if transfer @p i's payload reached its destination. */
    bool
    delivered(unsigned i) const
    {
        const std::uint64_t want = i % 255 + 1;
        return memory_.readInt(dst(i), 1) == want &&
               memory_.readInt(dst(i) + size - 1, 1) == want;
    }

    EventQueue eq_;
    PhysicalMemory memory_;
    LocalBackend backend_;
    ClockDomain busClock_;
    TransferEngine xfer_;
    std::vector<TransferId> ids_;
    std::vector<Tick> ends_;
    std::vector<unsigned> completedOrder_;
};

TEST_F(DeepQueueTest, IdsAreConsecutiveAndEndTicksSerialized)
{
    for (unsigned i = 1; i < count; ++i) {
        EXPECT_EQ(ids_[i], ids_[i - 1] + 1);
        EXPECT_GT(ends_[i], ends_[i - 1]);
    }
}

TEST_F(DeepQueueTest, QueriesAcrossTheQueueKeepTheContract)
{
    // Retire the first ten transfers.
    eq_.runUntil(ends_[9]);
    ASSERT_EQ(xfer_.transfersCompleted(), 10u);

    const TransferId retired = ids_[5];
    const TransferId front = ids_[10];
    const TransferId middle = ids_[count / 2];
    const TransferId back = ids_[count - 1];
    const TransferId never = ids_.back() + 1;

    // A retired id reads as done: nothing remaining, complete, and too
    // late to cancel.
    EXPECT_EQ(xfer_.remaining(retired), 0u);
    EXPECT_TRUE(xfer_.complete(retired));
    EXPECT_FALSE(xfer_.cancel(retired));

    // The front starts now; middle and back have not started.
    for (const TransferId id : {front, middle, back}) {
        EXPECT_EQ(xfer_.remaining(id), size) << id;
        EXPECT_FALSE(xfer_.complete(id)) << id;
    }

    // Halfway through the front's bus window, its remaining count is
    // interpolated; the others are untouched.
    eq_.advanceTo(ends_[9] + (ends_[10] - ends_[9]) / 2);
    EXPECT_GT(xfer_.remaining(front), 0u);
    EXPECT_LT(xfer_.remaining(front), size);
    EXPECT_EQ(xfer_.remaining(middle), size);

    // Ids never issued (and the invalid handle) read as done too.
    for (const TransferId id : {never, never + 1000, TransferId(0),
                                invalidTransfer}) {
        EXPECT_EQ(xfer_.remaining(id), 0u) << id;
        EXPECT_TRUE(xfer_.complete(id)) << id;
        EXPECT_FALSE(xfer_.cancel(id)) << id;
    }

    eq_.runToExhaustion();
    for (const TransferId id : {front, middle, back}) {
        EXPECT_EQ(xfer_.remaining(id), 0u) << id;
        EXPECT_TRUE(xfer_.complete(id)) << id;
        EXPECT_FALSE(xfer_.cancel(id)) << id;
    }
    EXPECT_EQ(xfer_.transfersCancelled(), 0u);
}

TEST_F(DeepQueueTest, CancelSuppressesOnlyThatPayload)
{
    eq_.runUntil(ends_[9]);
    const unsigned front = 10, middle = count / 2, back = count - 1;
    for (const unsigned i : {front, middle, back})
        EXPECT_TRUE(xfer_.cancel(ids_[i])) << i;

    eq_.runToExhaustion();
    EXPECT_EQ(xfer_.transfersCompleted(), count);
    EXPECT_EQ(xfer_.transfersCancelled(), 3u);
    for (unsigned i = 0; i < count; ++i) {
        const bool cancelled = i == front || i == middle || i == back;
        EXPECT_EQ(delivered(i), !cancelled) << i;
        if (cancelled) {
            EXPECT_EQ(memory_.readInt(dst(i), 8), 0u) << i;
        }
    }

    // A cancelled transfer still occupies the pipeline and still
    // reports completion to its initiator, in issue order.
    ASSERT_EQ(completedOrder_.size(), count);
    for (unsigned i = 0; i < count; ++i)
        EXPECT_EQ(completedOrder_[i], i);
    EXPECT_EQ(eq_.now(), ends_.back());
}

} // namespace
} // namespace uldma
