/**
 * @file
 * The Telegraphos-style network interface (paper [9]): exposes the
 * memory of every other workstation as a *remote-memory window* on the
 * local bus, and acts as the DMA engine's transfer backend so a DMA
 * whose destination (or source) falls in a remote window moves bytes
 * across the network.
 *
 * Physical map (within the DMA shadow coverage, so shadow addressing
 * works for remote destinations too; remoteWindowBase and maxNodes are
 * in vm/layout.hh):
 *
 *   [remoteWindowBase + n*windowSize, +windowSize)  = node n's DRAM
 */

#ifndef ULDMA_NIC_NETWORK_INTERFACE_HH
#define ULDMA_NIC_NETWORK_INTERFACE_HH

#include <string>
#include <vector>

#include "dma/transfer_backend.hh"
#include "mem/bus.hh"
#include "nic/network.hh"
#include "sim/clocked.hh"
#include "sim/stats.hh"

namespace uldma {

/** Remote-window configuration. */
struct NicParams
{
    /** Per-node window size (>= every node's DRAM size). */
    Addr windowSize = 0x0400'0000;   // 64 MiB
};

/**
 * One workstation's NI: remote-window bus device + DMA transfer
 * backend + target resolver for the atomic unit.
 */
class NetworkInterface : public BusDevice, public TransferBackend
{
  public:
    NetworkInterface(std::string name, const NicParams &params,
                     const ClockDomain &bus_clock, Network &network,
                     NodeId node, PhysicalMemory &local_memory);

    const NicParams &params() const { return params_; }
    NodeId node() const { return node_; }
    Network &network() { return network_; }

    /// @name BusDevice: uncached loads/stores to remote windows.
    /// @{
    const std::string &deviceName() const override { return name_; }
    std::vector<AddrRange> deviceRanges() const override;
    Tick access(Packet &pkt) override;
    /// @}

    /// @name TransferBackend for the DMA engine.
    /// @{
    bool validEndpoint(Addr paddr, Addr size) const override;
    Tick moveBytes(Addr src, Addr dst, Addr size) override;
    bool remoteEndpoint(Addr paddr) const override
    { return isRemote(paddr); }
    /// @}

    /** True if @p paddr falls in the remote-window region. */
    bool isRemote(Addr paddr) const;

    /** Decode a remote-window address into (node, remote paddr). */
    void decodeRemote(Addr paddr, NodeId &node, Addr &remote_paddr) const;

    /** Physical (local-bus) address of @p remote_paddr on @p node. */
    Addr remoteWindowAddr(NodeId node, Addr remote_paddr) const;

    /** A valid endpoint resolved to the DRAM that backs it. */
    struct Target
    {
        PhysicalMemory *memory = nullptr;   ///< nullptr: not an endpoint
        Addr addr = 0;                      ///< address inside *memory
        Tick extraLatency = 0;              ///< round trip if remote
    };

    /**
     * Resolve the @p size bytes at @p paddr, local or in a remote
     * window, for the atomic unit's functional read-modify-write.
     */
    Target resolve(Addr paddr, Addr size);

    stats::Group &statsGroup() { return statsGroup_; }
    void registerStats(stats::Registry &r) { r.add(&statsGroup_); }
    std::uint64_t remoteStores() const { return remoteStores_.value(); }

  private:
    std::string name_;
    NicParams params_;
    ClockDomain busClock_;
    Network &network_;
    NodeId node_;
    PhysicalMemory &localMemory_;

    stats::Group statsGroup_;
    stats::Scalar remoteStores_;
    stats::Scalar remoteLoads_;
    stats::Scalar dmaForwards_;
};

} // namespace uldma

#endif // ULDMA_NIC_NETWORK_INTERFACE_HH
