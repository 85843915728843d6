/**
 * @file
 * The I/O bus model (TurboChannel-class by default, PCI presets
 * available).  Devices claim address ranges; the bus routes single-beat
 * transactions and charges per-transaction latency in bus cycles, which
 * is where the paper's §3.4 observation — user-level initiation time
 * scales with bus frequency — enters the model.
 */

#ifndef ULDMA_MEM_BUS_HH
#define ULDMA_MEM_BUS_HH

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "mem/addr_range.hh"
#include "mem/packet.hh"
#include "sim/clocked.hh"
#include "sim/stats.hh"

namespace uldma {

/**
 * A bus target.  access() performs the transaction functionally and
 * returns the device-side latency in *bus* cycles.
 */
class BusDevice
{
  public:
    virtual ~BusDevice() = default;

    /** Human-readable device name (for routing errors and traces). */
    virtual const std::string &deviceName() const = 0;

    /** Address ranges this device responds to. */
    virtual std::vector<AddrRange> deviceRanges() const = 0;

    /**
     * Perform @p pkt.  For reads the device fills pkt.data.
     * @return device-side latency in ticks (devices translate their
     *         own cycle counts; the NIC also folds in network
     *         round-trips for remote reads).
     */
    virtual Tick access(Packet &pkt) = 0;

    /**
     * True if reads of @p paddr have no side effect a repeat could see:
     * between two events, every read after the first returns the same
     * word at the same latency and changes no device state, stat or
     * event.  A CPU may then fast-forward a loop that polls the
     * address, once two iterations in a row matched.  Per address,
     * and false by default: a context-page load initiates a transfer,
     * a shadow load drives a recognizer.
     */
    virtual bool
    sideEffectFreeRead(Addr paddr) const
    {
        (void)paddr;
        return false;
    }
};

/** Timing parameters of a bus generation.  The defaults are the
 *  12.5 MHz TurboChannel of the paper's prototype board. */
struct BusParams
{
    /** Bus clock in MHz. */
    std::uint64_t clockMHz = 12;
    /**
     * Exact clock period override in ticks; 0 means derive from MHz.
     * 12.5 MHz is an 80 ns period, which clockMHz cannot express.
     */
    Tick clockPeriod = 80 * tickPerNs;
    /** Cycles to win arbitration and drive the address phase. */
    Cycles arbitrationCycles = 1;
    /** Cycles for the data phase of a write. */
    Cycles writeDataCycles = 2;
    /** Cycles for the turnaround + data phase of a read response. */
    Cycles readResponseCycles = 2;
    /**
     * Extra arbitration cycles charged to CPU-initiated transactions
     * while a bus master (the DMA engine) is streaming — cycle
     * stealing.  0 disables contention modeling (the default keeps
     * the Table-1 calibration untouched; transfers there are tiny).
     */
    Cycles dmaContentionCycles = 0;

    /** 33 MHz PCI. */
    static BusParams pci33();
    /** 66 MHz PCI. */
    static BusParams pci66();
};

/** Device-side latency of an access to the NI board in bus cycles:
 *  the prototype's FPGA (docs/CALIBRATION.md).  The DMA engine, the
 *  atomic unit and the NIC's remote windows all charge it. */
inline constexpr Cycles niAccessCycles = 3;

/**
 * Routes packets to devices and accounts bus occupancy.
 */
class Bus : public Clocked
{
  public:
    Bus(EventQueue &eq, std::string name, const BusParams &params);

    const std::string &name() const { return name_; }
    const BusParams &params() const { return params_; }

    /** Attach a device; its ranges must not overlap existing ones. */
    void attach(BusDevice *device);

    /**
     * Register a bus-master occupancy probe (returns true while the
     * master is streaming).  While any probe reports busy, CPU
     * transactions pay params().dmaContentionCycles extra.  Its answer
     * may change only at an event, as a CPU's poll fast-forward
     * assumes.
     */
    void
    addContentionSource(std::function<bool()> is_busy)
    {
        contentionSources_.push_back(std::move(is_busy));
    }

    /**
     * Perform a transaction now.
     * @return total latency in ticks (bus phases + device latency),
     *         aligned to bus clock edges.
     */
    Tick access(Packet &pkt);

    /** The device that would claim @p addr, or nullptr. */
    BusDevice *deviceAt(Addr addr) const;

    stats::Group &statsGroup() { return statsGroup_; }
    void registerStats(stats::Registry &r) { r.add(&statsGroup_); }

    /** Total transactions routed. */
    std::uint64_t numTransactions() const { return reads_.value() +
                                                   writes_.value(); }
    std::uint64_t numReads() const { return reads_.value(); }
    std::uint64_t numWrites() const { return writes_.value(); }

    /// @name Replay of a repeating CPU loop (Cpu's poll fast-forward).
    /// @{
    /** Reads, writes and contended transactions so far. */
    using Counters = std::array<std::uint64_t, 3>;
    Counters
    counters() const
    {
        return {reads_.value(), writes_.value(), contended_.value()};
    }
    /** Latency of the latest transaction. */
    Tick lastLatency() const { return lastLatency_; }
    /**
     * Account @p k more loop iterations, each of which moved
     * counters() by @p delta with every transaction taking
     * @p latency.
     */
    void replay(const Counters &delta, Tick latency, std::uint64_t k);
    /// @}

  private:
    struct Mapping
    {
        AddrRange range;
        BusDevice *device;
    };

    std::string name_;
    BusParams params_;
    std::vector<Mapping> mappings_;
    std::vector<std::function<bool()>> contentionSources_;

    stats::Group statsGroup_;
    stats::Scalar reads_;
    stats::Scalar writes_;
    stats::Scalar contended_;
    stats::Average latencyNs_;
    stats::Histogram latencyHistNs_;
    Tick lastLatency_ = 0;
};

} // namespace uldma

#endif // ULDMA_MEM_BUS_HH
