#include "nic/network.hh"

#include <cstring>
#include <memory>

#include "sim/trace.hh"
#include "util/logging.hh"

namespace uldma {

Network::Network(EventQueue &eq) : eventq_(eq), statsGroup_("network")
{
    statsGroup_.addScalar("messages", &messages_, "messages sent");
    statsGroup_.addScalar("bytes", &bytes_, "payload bytes sent");
}

NodeId
Network::addNode(PhysicalMemory &memory)
{
    nodes_.push_back(&memory);
    linkBusyUntil_.push_back(0);
    return static_cast<NodeId>(nodes_.size() - 1);
}

PhysicalMemory &
Network::nodeMemory(NodeId node)
{
    ULDMA_ASSERT(node < nodes_.size(), "unknown node ", node);
    return *nodes_[node];
}

Tick
Network::serialization(Addr size) const
{
    const Addr wire_bytes = size + messageOverheadBytes;
    // ticks = bytes * 8 bits * (ticks/sec) / (bits/sec)
    return wire_bytes * 8 * tickPerSec / bitsPerSecond;
}

Tick
Network::roundTripLatency(Addr request_bytes, Addr response_bytes) const
{
    return 2 * linkLatency + serialization(request_bytes) +
           serialization(response_bytes);
}

Tick
Network::send(NodeId src_node, NodeId dst_node, Addr dst_paddr,
              const void *payload, Addr size,
              std::function<void()> on_delivered)
{
    ULDMA_ASSERT(src_node < nodes_.size(), "unknown source node");
    ULDMA_ASSERT(dst_node < nodes_.size(), "unknown destination node");
    PhysicalMemory &dst_mem = *nodes_[dst_node];
    ULDMA_ASSERT(dst_paddr + size <= dst_mem.size(),
                 "remote write beyond destination memory");

    ++messages_;
    bytes_ += size;

    // Capture the payload now: the sender's buffer may change before
    // delivery.
    auto data = std::make_shared<std::vector<std::uint8_t>>(size);
    std::memcpy(data->data(), payload, size);

    Tick &busy = linkBusyUntil_[src_node];
    const Tick launch = std::max(eventq_.now(), busy);
    const Tick sent = launch + serialization(size);
    busy = sent;
    const Tick arrival = sent + linkLatency;

    ULDMA_TRACE("Net", eventq_.now(), "node ", src_node, " -> node ",
                dst_node, " paddr 0x", std::hex, dst_paddr, std::dec,
                " size ", size, " arrives at ", arrival);

    eventq_.scheduleLambda(
        "network.deliver", arrival,
        [&dst_mem, dst_paddr, data, cb = std::move(on_delivered)]() {
            dst_mem.write(dst_paddr, data->data(), data->size());
            if (cb)
                cb();
        },
        Event::DevicePrio);
    return arrival;
}

Tick
Network::remoteRead(NodeId src_node, NodeId dst_node, Addr dst_paddr,
                    void *out, Addr size)
{
    ULDMA_ASSERT(src_node < nodes_.size(), "unknown source node");
    ULDMA_ASSERT(dst_node < nodes_.size(), "unknown destination node");
    PhysicalMemory &dst_mem = *nodes_[dst_node];
    dst_mem.read(dst_paddr, out, size);
    return roundTripLatency(16, size);
}

} // namespace uldma
