/**
 * @file
 * CPU-side write/merge buffer.
 *
 * Models the hardware the paper's footnote 6 warns about: "Some hardware
 * devices (e.g. write buffers) may attempt to collapse successive
 * read/write operations to the same address. In these cases appropriate
 * memory barrier commands should be used to ensure that all issued
 * instructions will reach the DMA engine."
 *
 * Behaviours (each individually configurable for ablation):
 *  - store collapsing: a store whose address matches a pending buffered
 *    store overwrites it; only one transaction reaches the bus.
 *  - load merging: a load whose address matches a recently completed
 *    load is serviced from the read buffer; no transaction reaches the
 *    bus.
 *  - a MEMBAR drains all pending stores and invalidates the read
 *    buffer, restoring a one-access-per-instruction view.
 *
 * The repeated-passing protocol (paper §3.3) repeats addresses by
 * design, so without memory barriers its accesses never all reach the
 * DMA engine — exactly why §3.4 says a memory barrier was used in the
 * measurement.
 */

#ifndef ULDMA_MEM_MERGE_BUFFER_HH
#define ULDMA_MEM_MERGE_BUFFER_HH

#include <array>
#include <deque>
#include <unordered_map>

#include "mem/bus.hh"
#include "mem/packet.hh"
#include "sim/stats.hh"

namespace uldma {

/** Configuration for MergeBuffer behaviours. */
struct MergeBufferParams
{
    /** Collapse same-address pending stores. */
    bool collapseStores = true;
    /** Service repeat loads from the read buffer. */
    bool mergeLoads = true;
    /** Maximum pending buffered stores before forced drain. */
    unsigned capacity = 4;
    /** Read-buffer entries (recent load results that can service a
     *  repeat load).  Real read buffers are tiny. */
    unsigned readBufferEntries = 2;
};

/**
 * Sits between the CPU and the bus for *uncacheable* traffic.  All
 * methods return the number of ticks the access occupied the bus (zero
 * for buffered/merged accesses); the CPU adds its own issue cost.
 */
class MergeBuffer
{
  public:
    MergeBuffer(std::string name, Bus &bus, const MergeBufferParams &params);

    /** Issue (or buffer) an uncached store. */
    Tick store(Packet pkt);

    /** Issue (or merge) an uncached load; fills @p pkt.data. */
    Tick load(Packet &pkt);

    /**
     * Issue an atomic read-modify-write.  Never buffered or merged;
     * drains pending stores first to preserve program order.
     */
    Tick rmw(Packet &pkt);

    /** Memory barrier: drain stores, invalidate the read buffer. */
    Tick membar();

    /** Drain pending stores without touching the read buffer. */
    Tick drain();

    /** membar() semantics; invoked by the kernel on context switch. */
    Tick flushForContextSwitch() { return membar(); }

    bool hasPendingStores() const { return !pending_.empty(); }
    std::size_t numPendingStores() const { return pending_.size(); }

    const MergeBufferParams &params() const { return params_; }
    stats::Group &statsGroup() { return statsGroup_; }
    void registerStats(stats::Registry &r) { r.add(&statsGroup_); }

    std::uint64_t numCollapsedStores() const { return collapsed_.value(); }
    std::uint64_t numMergedLoads() const { return merged_.value(); }

    /// @name Replay of a repeating CPU loop (Cpu's poll fast-forward).
    /// @{
    /** Collapsed stores, merged loads, drains and membars so far. */
    using Counters = std::array<std::uint64_t, 4>;
    Counters
    counters() const
    {
        return {collapsed_.value(), merged_.value(), drains_.value(),
                membars_.value()};
    }
    /** Add @p k times @p delta to counters(). */
    void
    replay(const Counters &delta, std::uint64_t k)
    {
        collapsed_ += k * delta[0];
        merged_ += k * delta[1];
        drains_ += k * delta[2];
        membars_ += k * delta[3];
    }
    /// @}

  private:
    /** Pop and issue the oldest pending store. */
    Tick drainOne();

    std::string name_;
    Bus &bus_;
    MergeBufferParams params_;

    std::deque<Packet> pending_;

    /** Read buffer: recent (address, value) pairs, LRU at the front. */
    struct ReadEntry
    {
        Addr paddr;
        std::uint64_t value;
    };
    std::deque<ReadEntry> readBuffer_;

    /** Find a read-buffer entry; returns readBuffer_.end() if none. */
    std::deque<ReadEntry>::iterator findRead(Addr paddr);
    /** Drop the read-buffer entry for @p paddr, if any. */
    void invalidateRead(Addr paddr);
    /** Record a completed load. */
    void recordRead(Addr paddr, std::uint64_t value);

    stats::Group statsGroup_;
    stats::Scalar collapsed_;
    stats::Scalar merged_;
    stats::Scalar drains_;
    stats::Scalar membars_;
};

} // namespace uldma

#endif // ULDMA_MEM_MERGE_BUFFER_HH
