#include "dma/transfer_engine.hh"

#include <algorithm>
#include <utility>

#include "prof/profiler.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"

namespace uldma {

TransferEngine::TransferEngine(EventQueue &eq, std::string name,
                               const ClockDomain &bus_clock,
                               TransferBackend &backend)
    : Clocked(eq, bus_clock), name_(std::move(name)), backend_(backend),
      statsGroup_(name_), latencyUs_(0.0, 100.0, 100)
{
    statsGroup_.addScalar("transfers_started", &started_,
                          "DMA transfers begun");
    statsGroup_.addScalar("transfers_completed", &completed_,
                          "DMA transfers finished");
    statsGroup_.addScalar("bytes_moved", &bytes_, "payload bytes moved");
    statsGroup_.addScalar("busy_ticks", &busyTicks_,
                          "ticks the pipeline was committed busy");
    statsGroup_.addHistogram("latency_us", &latencyUs_,
                             "transfer latency, queue to delivery (us)");
    statsGroup_.addAverage("queue_wait_us", &queueWaitUs_,
                           "time a transfer waited for the pipeline (us)");
}

TransferId
TransferEngine::start(Addr src, Addr dst, Addr size,
                      std::function<void()> on_complete, Tick not_before,
                      span::SpanId span)
{
    ULDMA_ASSERT(backend_.validEndpoint(src, size),
                 name_, ": invalid transfer source 0x", std::hex, src);
    ULDMA_ASSERT(backend_.validEndpoint(dst, size),
                 name_, ": invalid transfer destination 0x", std::hex, dst);

    ULDMA_PROF_SCOPE("dma.transfer_start");

    ++started_;
    bytes_ += size;

    const Tick begin = std::max({now(), busyUntil_, not_before});
    const Cycles busy_cycles =
        startupCycles + divCeil(size, bytesPerBusCycle);
    const Tick end = begin + clockDomain().cyclesToTicks(busy_cycles);
    busyUntil_ = end;
    // Busy windows are serialized (begin >= the previous end), so the
    // accumulated width is exact pipeline-occupied time.
    busyTicks_ += end - begin;
    queueWaitUs_.sample(ticksToUs(begin - std::max(now(), not_before)));

    const TransferId id = nextId_++;
    flights_.push_back(Flight{id, size, begin, end});

    ULDMA_TRACE("Dma", now(), name_, ": transfer ", id, " 0x", std::hex,
                src, " -> 0x", dst, std::dec, " size ", size,
                " completes at ", end);
    ULDMA_TRACE_EVENT(name_, now(), "xfer_start",
                      "id ", id, " size ", size);

    if (span::captureOn()) {
        auto &tracker = span::tracker();
        tracker.queue(span, now());
        tracker.busWindow(span, begin, end);
        tracker.setRemote(span, backend_.remoteEndpoint(src) ||
                                backend_.remoteEndpoint(dst));
    }

    eventq().scheduleLambda(
        name_ + ".complete", end,
        [this, id, src, dst, size, span, queued_at = now(),
         cb = std::move(on_complete)]() {
            ULDMA_PROF_SCOPE("dma.transfer_complete");
            ULDMA_ASSERT(!flights_.empty() && flights_.front().id == id,
                         name_, ": transfer ", id,
                         " completed out of issue order");
            const bool cancelled = flights_.front().cancelled;
            const Tick extra =
                cancelled ? 0 : backend_.moveBytes(src, dst, size);
            ++completed_;
            if (cancelled) {
                ++cancelledCount_;
                if (span::captureOn())
                    span::tracker().abort(span, now());
            } else {
                latencyUs_.sample(ticksToUs(now() + extra - queued_at));
                if (span::captureOn())
                    span::tracker().complete(span, now() + extra);
            }
            ULDMA_TRACE_EVENT(name_, now(), "xfer_complete",
                              "id ", id, " size ", size);
            flights_.pop_front();
            if (cb) {
                if (extra == 0) {
                    cb();
                } else {
                    eventq().scheduleLambda(name_ + ".deliver",
                                            now() + extra, cb);
                }
            }
        },
        Event::DevicePrio);

    return id;
}

const TransferEngine::Flight *
TransferEngine::findFlight(TransferId id) const
{
    if (flights_.empty() || id < flights_.front().id)
        return nullptr;
    const TransferId index = id - flights_.front().id;
    return index < flights_.size() ? &flights_[index] : nullptr;
}

TransferEngine::Flight *
TransferEngine::findFlight(TransferId id)
{
    return const_cast<Flight *>(std::as_const(*this).findFlight(id));
}

Addr
TransferEngine::remaining(TransferId id) const
{
    const Flight *f = findFlight(id);
    if (f == nullptr)
        return 0;
    const Tick t = now();
    if (t >= f->endTick)
        return 0;
    if (t <= f->startTick)
        return f->size;
    // Linear interpolation across the active window.
    const double frac = static_cast<double>(t - f->startTick) /
                        static_cast<double>(f->endTick - f->startTick);
    const Addr moved = static_cast<Addr>(frac * static_cast<double>(f->size));
    return f->size - std::min(moved, f->size);
}

bool
TransferEngine::cancel(TransferId id)
{
    Flight *f = findFlight(id);
    if (f == nullptr)
        return false;
    f->cancelled = true;
    ULDMA_TRACE("Dma", now(), name_, ": transfer ", id,
                " cancelled (payload suppressed)");
    return true;
}

bool
TransferEngine::complete(TransferId id) const
{
    const Flight *f = findFlight(id);
    return f == nullptr || now() >= f->endTick;
}

} // namespace uldma
