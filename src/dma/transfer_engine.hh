/**
 * @file
 * The data-mover inside the DMA engine.  Transfers are serialized
 * through one engine pipeline (busyUntil); each transfer costs a fixed
 * startup plus size / bytesPerBusCycle bus cycles, and the payload is
 * applied functionally at completion time.  The "remaining bytes"
 * readback the register-context pages expose (paper §3.1: a read
 * returns the number of bytes yet to transfer) is interpolated from
 * the transfer schedule.
 */

#ifndef ULDMA_DMA_TRANSFER_ENGINE_HH
#define ULDMA_DMA_TRANSFER_ENGINE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "dma/transfer_backend.hh"
#include "sim/clocked.hh"
#include "sim/span.hh"
#include "sim/stats.hh"

namespace uldma {

/** Handle identifying an in-flight transfer. */
using TransferId = std::uint64_t;
inline constexpr TransferId invalidTransfer = ~TransferId(0);

/**
 * Schedules and applies DMA data movement.
 */
class TransferEngine : public Clocked
{
  public:
    /** Bytes moved per bus cycle once a transfer is running: a 32-bit
     *  TurboChannel slave streaming one word per cycle. */
    static constexpr Addr bytesPerBusCycle = 4;
    /** Fixed start-up cost of a transfer in bus cycles. */
    static constexpr Cycles startupCycles = 8;

    TransferEngine(EventQueue &eq, std::string name,
                   const ClockDomain &bus_clock, TransferBackend &backend);

    /**
     * Begin a transfer.  Bytes materialize at the destination when the
     * transfer completes; @p on_complete (may be null) runs then.
     * @param not_before earliest tick the transfer may begin (used by
     *        the kernel channel's start-delay model).
     * @param span span of the initiation this transfer serves; queue /
     *        bus-active / completed phases are recorded against it when
     *        span capture is enabled.
     * @return a handle usable with remaining().
     */
    TransferId start(Addr src, Addr dst, Addr size,
                     std::function<void()> on_complete = nullptr,
                     Tick not_before = 0,
                     span::SpanId span = span::invalidSpan);

    /** Bytes not yet transferred (0 once complete / unknown handle). */
    Addr remaining(TransferId id) const;

    /** True if the identified transfer has fully completed. */
    bool complete(TransferId id) const;

    /**
     * Cancel an in-flight transfer (capability revocation,
     * docs/CAPABILITIES.md): the pipeline stays occupied — the bus
     * cycles were spent — but the payload is never applied and the
     * transfer's span is aborted instead of completed.  on_complete
     * still runs so the initiator can observe the failure.
     * @return true if the payload was suppressed in time; false when
     *         the transfer already delivered (or is unknown).
     */
    bool cancel(TransferId id);

    /** Transfers whose payload a cancel() suppressed. */
    std::uint64_t transfersCancelled() const { return cancelledCount_; }

    /** Tick at which the engine pipeline frees up. */
    Tick busyUntil() const { return busyUntil_; }

    std::uint64_t transfersStarted() const { return started_.value(); }
    std::uint64_t transfersCompleted() const { return completed_.value(); }
    std::uint64_t bytesMoved() const { return bytes_.value(); }

    /**
     * Total ticks the serialized pipeline has been (or is committed to
     * be) busy.  Windows never overlap, so busyTicks() / now() is the
     * engine's utilization fraction — the queueing metric the sampler
     * turns into a busy/idle timeline.
     */
    std::uint64_t busyTicks() const { return busyTicks_.value(); }
    stats::Group &statsGroup() { return statsGroup_; }
    void registerStats(stats::Registry &r) { r.add(&statsGroup_); }

  private:
    struct Flight
    {
        TransferId id;
        Addr size;
        Tick startTick;
        Tick endTick;
        bool cancelled = false;
    };

    /** The pending flight @p id, or null once retired / never issued. */
    Flight *findFlight(TransferId id);
    const Flight *findFlight(TransferId id) const;

    std::string name_;
    TransferBackend &backend_;

    Tick busyUntil_ = 0;
    TransferId nextId_ = 1;
    /** Plain counter, deliberately not a registered stat: cancels only
     *  happen with capabilities enabled, and the shared stats document
     *  must stay byte-identical for disabled configurations. */
    std::uint64_t cancelledCount_ = 0;

    /**
     * Transfers not yet applied, in id order with consecutive ids, so
     * transfer `id` sits at index `id - front().id`.  Completions
     * retire from the front: busyUntil_ serializes end ticks, and
     * same-tick completions fire in schedule (= id) order.
     */
    std::deque<Flight> flights_;

    stats::Group statsGroup_;
    stats::Scalar started_;
    stats::Scalar completed_;
    stats::Scalar bytes_;
    stats::Scalar busyTicks_;
    stats::Histogram latencyUs_;
    stats::Average queueWaitUs_;
};

} // namespace uldma

#endif // ULDMA_DMA_TRANSFER_ENGINE_HH
