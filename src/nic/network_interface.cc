#include "nic/network_interface.hh"

#include <vector>

#include "sim/trace.hh"
#include "util/logging.hh"
#include "vm/layout.hh"

namespace uldma {

NetworkInterface::NetworkInterface(std::string name, const NicParams &params,
                                   const ClockDomain &bus_clock,
                                   Network &network, NodeId node,
                                   PhysicalMemory &local_memory)
    : name_(std::move(name)), params_(params), busClock_(bus_clock),
      network_(network), node_(node), localMemory_(local_memory),
      statsGroup_(name_)
{
    ULDMA_ASSERT(params_.windowSize >= local_memory.size(),
                 "remote window smaller than node memory");
    statsGroup_.addScalar("remote_stores", &remoteStores_,
                          "uncached stores forwarded to remote memory");
    statsGroup_.addScalar("remote_loads", &remoteLoads_,
                          "uncached loads serviced from remote memory");
    statsGroup_.addScalar("dma_forwards", &dmaForwards_,
                          "DMA payloads forwarded over the network");
}

std::vector<AddrRange>
NetworkInterface::deviceRanges() const
{
    return {AddrRange(remoteWindowBase,
                      remoteWindowBase + Addr(maxNodes) * params_.windowSize)};
}

bool
NetworkInterface::isRemote(Addr paddr) const
{
    return paddr >= remoteWindowBase &&
           paddr < remoteWindowBase + Addr(maxNodes) * params_.windowSize;
}

void
NetworkInterface::decodeRemote(Addr paddr, NodeId &node,
                               Addr &remote_paddr) const
{
    ULDMA_ASSERT(isRemote(paddr), "not a remote-window address");
    const Addr offset = paddr - remoteWindowBase;
    node = static_cast<NodeId>(offset / params_.windowSize);
    remote_paddr = offset % params_.windowSize;
}

Addr
NetworkInterface::remoteWindowAddr(NodeId node, Addr remote_paddr) const
{
    ULDMA_ASSERT(node < maxNodes, "node id beyond window region");
    ULDMA_ASSERT(remote_paddr < params_.windowSize,
                 "remote paddr beyond window");
    return remoteWindowBase + Addr(node) * params_.windowSize +
           remote_paddr;
}

Tick
NetworkInterface::access(Packet &pkt)
{
    const Tick base = busClock_.cyclesToTicks(niAccessCycles);

    NodeId dst_node = 0;
    Addr remote_paddr = 0;
    decodeRemote(pkt.paddr, dst_node, remote_paddr);

    if (dst_node >= network_.numNodes()) {
        // Window for a node that does not exist: reads return all-ones
        // (classic bus behaviour), writes vanish.
        if (pkt.isRead())
            pkt.data = ~std::uint64_t(0);
        return base;
    }

    if (pkt.isWrite()) {
        ++remoteStores_;
        ULDMA_TRACE_EVENT(name_, network_.now(), "remote_store",
                          "node ", dst_node);
        std::uint64_t value = pkt.data;
        if (dst_node == node_) {
            localMemory_.writeInt(remote_paddr, value, pkt.size);
        } else {
            // Fire-and-forget remote write: the store completes locally
            // once handed to the NI; delivery is asynchronous.
            network_.send(node_, dst_node, remote_paddr, &value, pkt.size);
        }
        return base;
    }

    ++remoteLoads_;
    ULDMA_TRACE_EVENT(name_, network_.now(), "remote_load",
                      "node ", dst_node);
    if (dst_node == node_) {
        pkt.data = localMemory_.readInt(remote_paddr, pkt.size);
        return base;
    }
    std::uint64_t value = 0;
    const Tick rtt = network_.remoteRead(node_, dst_node, remote_paddr,
                                         &value, pkt.size);
    pkt.data = value;
    return base + rtt;
}

bool
NetworkInterface::validEndpoint(Addr paddr, Addr size) const
{
    if (size == 0)
        return false;
    if (paddr + size <= localMemory_.size())
        return true;
    if (!isRemote(paddr) || !isRemote(paddr + size - 1))
        return false;
    NodeId node = 0;
    Addr remote = 0;
    decodeRemote(paddr, node, remote);
    return node < network_.numNodes() &&
           remote + size <= network_.nodeMemory(node).size();
}

Tick
NetworkInterface::moveBytes(Addr src, Addr dst, Addr size)
{
    // Stage the source bytes.
    std::vector<std::uint8_t> buffer(size);
    Tick extra = 0;
    if (isRemote(src)) {
        NodeId src_node = 0;
        Addr remote = 0;
        decodeRemote(src, src_node, remote);
        extra += network_.remoteRead(node_, src_node, remote,
                                     buffer.data(), size);
    } else {
        localMemory_.read(src, buffer.data(), size);
    }

    // Deliver to the destination.
    if (isRemote(dst)) {
        NodeId dst_node = 0;
        Addr remote = 0;
        decodeRemote(dst, dst_node, remote);
        if (dst_node == node_) {
            localMemory_.write(remote, buffer.data(), size);
        } else {
            ++dmaForwards_;
            ULDMA_TRACE_EVENT(name_, network_.now(), "dma_forward",
                              "node ", dst_node, " size ", size);
            const Tick arrival = network_.send(node_, dst_node, remote,
                                               buffer.data(), size);
            extra += arrival - network_.now();
        }
    } else {
        localMemory_.write(dst, buffer.data(), size);
    }
    return extra;
}

NetworkInterface::Target
NetworkInterface::resolve(Addr paddr, Addr size)
{
    if (paddr + size <= localMemory_.size())
        return {&localMemory_, paddr, 0};
    if (isRemote(paddr)) {
        NodeId node = 0;
        Addr remote = 0;
        decodeRemote(paddr, node, remote);
        if (node < network_.numNodes() &&
            remote + size <= network_.nodeMemory(node).size()) {
            const Tick rtt =
                node != node_ ? network_.roundTripLatency(24, 8) : 0;
            return {&network_.nodeMemory(node), remote, rtt};
        }
    }
    return {};
}

} // namespace uldma
