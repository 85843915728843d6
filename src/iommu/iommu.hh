/**
 * @file
 * Per-engine address-translation unit (docs/IOMMU.md).  Sits between
 * the DMA engine and the bus: descriptors carry user virtual
 * addresses (IOVAs), and every per-page segment the engine issues is
 * translated here against the originating context's I/O page table,
 * through a set-associative IOTLB with distinct hit / miss+walk
 * costs.
 *
 * The kernel owns the I/O page tables and programs them exclusively
 * through the engine's kernel register block (kregs::iommu*), the
 * same privilege argument as ring configuration: user processes can
 * never reach the kernel block, so they can never grow their own
 * device-visible mappings.
 *
 * Pinning is tracked per (ctx, page).  Under PinPolicy::OnMap the map
 * operation pins (and fails against an exhausted budget); under
 * PinPolicy::OnDemand the first device access pins, evicting the
 * least-recently-pinned page once the budget fills.
 */

#ifndef ULDMA_IOMMU_IOMMU_HH
#define ULDMA_IOMMU_IOMMU_HH

#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "iommu/iommu_params.hh"
#include "iommu/iotlb.hh"
#include "sim/stats.hh"
#include "vm/layout.hh"
#include "vm/page_table.hh"

namespace uldma {

/** Why a device-side translation failed. */
enum class IommuFault : std::uint8_t
{
    None,
    NotMapped,
    Protection,
    NotPinned,   ///< mapped, but unpinned and not demand-pinnable
};

const char *toString(IommuFault fault);

class Iommu
{
  public:
    /** Demand-pin cost in bus cycles (PinPolicy::OnDemand only). */
    static constexpr Cycles pinCycles = 30;
    /** Largest virtually-addressed descriptor the engine will
     *  scatter-gather (it becomes per-page bus transactions). */
    static constexpr Addr maxSgBytes = 8 * pageSize;

    Iommu(std::string name, const IommuParams &params,
          unsigned num_contexts);

    // --- kernel-facing (reached through kregs::iommu*) -------------

    /**
     * Install iova -> paddr for @p ctx (both page-aligned here).
     * @p pin requests an immediate pin; it fails (the mapping stays,
     * unpinned) when the pin budget is exhausted.
     * @return true if the map and any requested pin both succeeded.
     */
    bool mapPage(unsigned ctx, Addr iova, Addr paddr, Rights rights,
                 bool pin);

    /** Remove the mapping (and any pin) of @p iova; stale IOTLB
     *  entries die lazily via the generation tag. */
    void unmapPage(unsigned ctx, Addr iova);

    /** Pin an already-mapped page; false if unmapped or over
     *  budget. */
    bool pinPage(unsigned ctx, Addr iova);

    /** Drop every mapping, pin and IOTLB entry of @p ctx. */
    void resetContext(unsigned ctx);

    // --- engine-facing ---------------------------------------------

    struct Result
    {
        IommuFault fault = IommuFault::None;
        Addr paddr = 0;
        /** Bus-clock cycles this translation cost. */
        Cycles cycles = 0;
        bool ok() const { return fault == IommuFault::None; }
    };

    /** Translate @p iova for an access of @p ctx needing @p need. */
    Result translate(unsigned ctx, Addr iova, Rights need);

    // --- introspection ---------------------------------------------

    const IommuParams &params() const { return params_; }
    const PageTable &table(unsigned ctx) const { return ctxs_[ctx].table; }
    std::size_t pinnedPages(unsigned ctx) const
    {
        return ctxs_[ctx].pinnedLru.size();
    }

    stats::Group &statsGroup() { return statsGroup_; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t walks() const { return walks_.value(); }
    std::uint64_t faults() const { return faults_.value(); }
    std::uint64_t demandPins() const { return demandPins_.value(); }
    std::uint64_t pinEvictions() const { return pinEvictions_.value(); }

    /** FNV-1a mix of tables, pins and IOTLB (engine stateHash). */
    std::uint64_t stateHash() const;

  private:
    struct Ctx
    {
        PageTable table;
        /** Pinned pages (VPN), front = most recently pinned. */
        std::list<Addr> pinnedLru;
        std::unordered_map<Addr, std::list<Addr>::iterator> pinned;
    };

    bool pinLocked(Ctx &c, Addr vpn, bool evict_ok);

    std::string name_;
    IommuParams params_;
    std::vector<Ctx> ctxs_;
    IoTlb iotlb_;

    stats::Group statsGroup_;
    stats::Scalar hits_;
    stats::Scalar misses_;
    stats::Scalar walks_;
    stats::Scalar faults_;
    stats::Scalar maps_;
    stats::Scalar unmaps_;
    stats::Scalar demandPins_;
    stats::Scalar pinEvictions_;
};

} // namespace uldma

#endif // ULDMA_IOMMU_IOMMU_HH
