/**
 * @file
 * Configuration of the per-engine IOMMU (docs/IOMMU.md).  The unit is
 * strictly opt-in: with enabled=false no Iommu object is constructed,
 * no stats group is registered and no cost is charged anywhere, so a
 * disabled build is byte-identical to a tree without the subsystem.
 */

#ifndef ULDMA_IOMMU_IOMMU_PARAMS_HH
#define ULDMA_IOMMU_IOMMU_PARAMS_HH

#include "util/types.hh"

namespace uldma {

/** When a page gets pinned for device access (docs/IOMMU.md). */
enum class PinPolicy : std::uint8_t
{
    /** The map operation pins; translation of an unpinned page (pin
     *  budget was exhausted at map time) is a fault. */
    OnMap,
    /** Mapping installs the translation unpinned; first device access
     *  pins, evicting the least-recently-pinned page when the budget
     *  is full. */
    OnDemand,
};

struct IommuParams
{
    bool enabled = false;

    /** IOTLB geometry: total entries and set associativity. */
    unsigned iotlbEntries = 16;
    unsigned iotlbWays = 4;

    /** Bus-clock cycles charged per translated page. */
    Cycles iotlbHitCycles = 1;
    /** IOTLB lookup-and-refill overhead on a miss (on top of the
     *  walk). */
    Cycles iotlbMissCycles = 6;
    /** I/O page-table walk on an IOTLB miss. */
    Cycles walkCycles = 60;

    PinPolicy pinPolicy = PinPolicy::OnMap;
    /** Max pinned pages per context; 0 = unlimited. */
    unsigned pinBudgetPages = 0;
};

} // namespace uldma

#endif // ULDMA_IOMMU_IOMMU_PARAMS_HH
