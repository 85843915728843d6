#include "mem/bus.hh"

#include "sim/ticks.hh"
#include "sim/trace.hh"
#include "util/logging.hh"

namespace uldma {

BusParams
BusParams::pci33()
{
    BusParams p;
    p.clockMHz = 33;
    p.clockPeriod = 0;
    p.arbitrationCycles = 1;
    p.writeDataCycles = 2;
    p.readResponseCycles = 2;
    return p;
}

BusParams
BusParams::pci66()
{
    BusParams p;
    p.clockMHz = 66;
    p.clockPeriod = 0;
    p.arbitrationCycles = 1;
    p.writeDataCycles = 2;
    p.readResponseCycles = 2;
    return p;
}

namespace {

ClockDomain
busClock(const std::string &name, const BusParams &params)
{
    if (params.clockPeriod != 0)
        return ClockDomain(name + ".clk", params.clockPeriod);
    return ClockDomain::fromMHz(name + ".clk", params.clockMHz);
}

} // namespace

Bus::Bus(EventQueue &eq, std::string name, const BusParams &params)
    : Clocked(eq, busClock(name, params)), name_(std::move(name)),
      params_(params), statsGroup_(name_),
      latencyHistNs_(0.0, 4000.0, 80)
{
    statsGroup_.addScalar("reads", &reads_, "read transactions routed");
    statsGroup_.addScalar("writes", &writes_, "write transactions routed");
    statsGroup_.addScalar("contended", &contended_,
                          "transactions delayed by DMA cycle stealing");
    statsGroup_.addAverage("latency_ns", &latencyNs_,
                           "per-transaction latency");
    statsGroup_.addHistogram("latency_hist_ns", &latencyHistNs_,
                             "per-transaction latency distribution (ns)");
}

void
Bus::attach(BusDevice *device)
{
    ULDMA_ASSERT(device != nullptr, "attaching null device");
    for (const AddrRange &range : device->deviceRanges()) {
        for (const Mapping &existing : mappings_) {
            if (existing.range.overlaps(range)) {
                ULDMA_PANIC("bus '", name_, "': device '",
                            device->deviceName(), "' range ",
                            range.toString(), " overlaps '",
                            existing.device->deviceName(), "' range ",
                            existing.range.toString());
            }
        }
        mappings_.push_back(Mapping{range, device});
    }
}

BusDevice *
Bus::deviceAt(Addr addr) const
{
    for (const Mapping &m : mappings_) {
        if (m.range.contains(addr))
            return m.device;
    }
    return nullptr;
}

Tick
Bus::access(Packet &pkt)
{
    BusDevice *device = deviceAt(pkt.paddr);
    if (device == nullptr) {
        ULDMA_PANIC("bus '", name_, "': no device at paddr 0x", std::hex,
                    pkt.paddr);
    }

    if (pkt.isRead())
        ++reads_;
    else
        ++writes_;
    ULDMA_TRACE_EVENT(name_, now(),
                      pkt.isRead() ? "bus_read" : "bus_write",
                      "paddr 0x", std::hex, pkt.paddr, std::dec,
                      " size ", pkt.size);

    const Tick device_ticks = device->access(pkt);
    Cycles phases = params_.arbitrationCycles;
    phases += pkt.isRead() ? params_.readResponseCycles
                           : params_.writeDataCycles;

    // Cycle stealing: an active DMA stream makes arbitration slower.
    if (params_.dmaContentionCycles != 0) {
        for (const auto &busy : contentionSources_) {
            if (busy()) {
                phases += params_.dmaContentionCycles;
                ++contended_;
                break;
            }
        }
    }

    // Align the start of the transaction to the next bus clock edge,
    // then charge the bus phases plus the device-side latency.
    const Tick start = clockDomain().nextEdgeAtOrAfter(now());
    const Tick finish =
        start + clockDomain().cyclesToTicks(phases) + device_ticks;
    const Tick latency = finish - now();
    latencyNs_.sample(ticksToNs(latency));
    latencyHistNs_.sample(ticksToNs(latency));
    lastLatency_ = latency;
    return latency;
}

void
Bus::replay(const Counters &delta, Tick latency, std::uint64_t k)
{
    reads_ += k * delta[0];
    writes_ += k * delta[1];
    contended_ += k * delta[2];
    const std::uint64_t samples = k * (delta[0] + delta[1]);
    latencyNs_.sampleRepeated(ticksToNs(latency), samples);
    latencyHistNs_.sampleRepeated(ticksToNs(latency), samples);
}

} // namespace uldma
