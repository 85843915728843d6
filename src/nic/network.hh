/**
 * @file
 * The interconnect of the simulated Network of Workstations: nodes
 * exchange write messages over point-to-point links with a fixed
 * per-hop latency and a serialization bandwidth, the Gbps-class LAN of
 * the paper's introduction (ATM 155/622 Mb/s, Gigabit LANs).
 *
 * Remote writes are applied to the destination node's physical memory
 * when the message arrives.  Remote reads and atomics are serviced
 * synchronously (functionally now, with the round-trip latency charged
 * to the requester) — safe because the simulation is single-threaded.
 */

#ifndef ULDMA_NIC_NETWORK_HH
#define ULDMA_NIC_NETWORK_HH

#include <functional>
#include <vector>

#include "mem/physical_memory.hh"
#include "sim/event.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "util/types.hh"

namespace uldma {

/**
 * A full crossbar between N workstations.
 */
class Network
{
  public:
    /** One-way link latency. */
    static constexpr Tick linkLatency = 2 * tickPerUs;
    /** Link bandwidth in bits per second: a 1 Gb/s LAN. */
    static constexpr std::uint64_t bitsPerSecond = 1'000'000'000ULL;
    /** Fixed per-message overhead (header/framing) in bytes. */
    static constexpr Addr messageOverheadBytes = 16;

    explicit Network(EventQueue &eq);

    /** Current simulated time. */
    Tick now() const { return eventq_.now(); }

    /**
     * Register a node's memory.  Node ids are assigned densely in
     * registration order.
     * @return the node id.
     */
    NodeId addNode(PhysicalMemory &memory);

    unsigned numNodes() const { return nodes_.size(); }
    PhysicalMemory &nodeMemory(NodeId node);

    /**
     * Send @p size bytes (captured from @p payload now) to
     * (@p dst_node, @p dst_paddr); the bytes appear in the destination
     * memory after serialization + latency.
     * @param on_delivered optional completion hook at the destination
     *        arrival time.
     * @return the arrival tick.
     */
    Tick send(NodeId src_node, NodeId dst_node, Addr dst_paddr,
              const void *payload, Addr size,
              std::function<void()> on_delivered = nullptr);

    /**
     * Synchronous remote read: functional now; @return the round-trip
     * latency to charge the requester.
     */
    Tick remoteRead(NodeId src_node, NodeId dst_node, Addr dst_paddr,
                    void *out, Addr size);

    /** Round-trip latency for a small request/response exchange. */
    Tick roundTripLatency(Addr request_bytes, Addr response_bytes) const;

    /** Serialization time of @p size bytes on a link. */
    Tick serialization(Addr size) const;

    stats::Group &statsGroup() { return statsGroup_; }
    void registerStats(stats::Registry &r) { r.add(&statsGroup_); }
    std::uint64_t messagesSent() const { return messages_.value(); }

  private:
    EventQueue &eventq_;
    std::vector<PhysicalMemory *> nodes_;
    /** Per-source-node link occupancy. */
    std::vector<Tick> linkBusyUntil_;

    stats::Group statsGroup_;
    stats::Scalar messages_;
    stats::Scalar bytes_;
};

} // namespace uldma

#endif // ULDMA_NIC_NETWORK_HH
