#include "iommu/iommu.hh"

#include "util/fnv.hh"
#include "util/logging.hh"

namespace uldma {

const char *
toString(IommuFault fault)
{
    switch (fault) {
      case IommuFault::None: return "none";
      case IommuFault::NotMapped: return "not-mapped";
      case IommuFault::Protection: return "protection";
      case IommuFault::NotPinned: return "not-pinned";
    }
    return "?";
}

Iommu::Iommu(std::string name, const IommuParams &params,
             unsigned num_contexts)
    : name_(std::move(name)), params_(params),
      iotlb_(params.iotlbEntries, params.iotlbWays), statsGroup_(name_)
{
    ULDMA_ASSERT(num_contexts >= 1, "iommu needs at least one context");
    ctxs_.resize(num_contexts);
    statsGroup_.addScalar("iotlb_hits", &hits_,
                          "device translations served by the IOTLB");
    statsGroup_.addScalar("iotlb_misses", &misses_,
                          "device translations that missed the IOTLB");
    statsGroup_.addScalar("walks", &walks_,
                          "I/O page-table walks performed");
    statsGroup_.addScalar("faults", &faults_,
                          "device translation faults");
    statsGroup_.addScalar("maps", &maps_, "pages mapped for DMA");
    statsGroup_.addScalar("unmaps", &unmaps_, "pages unmapped");
    statsGroup_.addScalar("demand_pins", &demandPins_,
                          "pages pinned on first device access");
    statsGroup_.addScalar("pin_evictions", &pinEvictions_,
                          "pins evicted to make room in the budget");
}

bool
Iommu::pinLocked(Ctx &c, Addr vpn, bool evict_ok)
{
    if (c.pinned.count(vpn))
        return true;
    if (params_.pinBudgetPages != 0 &&
        c.pinnedLru.size() >= params_.pinBudgetPages) {
        if (!evict_ok)
            return false;
        const Addr victim = c.pinnedLru.back();
        c.pinnedLru.pop_back();
        c.pinned.erase(victim);
        ++pinEvictions_;
    }
    c.pinnedLru.push_front(vpn);
    c.pinned[vpn] = c.pinnedLru.begin();
    return true;
}

bool
Iommu::mapPage(unsigned ctx, Addr iova, Addr paddr, Rights rights,
               bool pin)
{
    ULDMA_ASSERT(ctx < ctxs_.size(), "iommu context out of range");
    Ctx &c = ctxs_[ctx];
    c.table.mapPage(iova, paddr, rights);
    ++maps_;
    if (!pin)
        return true;
    // Map-time pins never evict: the budget is a hard admission limit
    // under PinPolicy::OnMap, so the caller learns about exhaustion.
    return pinLocked(c, pageNumber(iova), /*evict_ok=*/false);
}

void
Iommu::unmapPage(unsigned ctx, Addr iova)
{
    ULDMA_ASSERT(ctx < ctxs_.size(), "iommu context out of range");
    Ctx &c = ctxs_[ctx];
    const Addr vpn = pageNumber(iova);
    c.table.unmapPage(iova);
    ++unmaps_;
    auto it = c.pinned.find(vpn);
    if (it != c.pinned.end()) {
        c.pinnedLru.erase(it->second);
        c.pinned.erase(it);
    }
}

bool
Iommu::pinPage(unsigned ctx, Addr iova)
{
    ULDMA_ASSERT(ctx < ctxs_.size(), "iommu context out of range");
    Ctx &c = ctxs_[ctx];
    if (!c.table.lookup(iova))
        return false;
    return pinLocked(c, pageNumber(iova), /*evict_ok=*/false);
}

void
Iommu::resetContext(unsigned ctx)
{
    if (ctx >= ctxs_.size())
        return;
    Ctx &c = ctxs_[ctx];
    c.table = PageTable();
    c.pinnedLru.clear();
    c.pinned.clear();
    iotlb_.invalidateContext(ctx);
}

Iommu::Result
Iommu::translate(unsigned ctx, Addr iova, Rights need)
{
    ULDMA_ASSERT(ctx < ctxs_.size(), "iommu context out of range");
    Ctx &c = ctxs_[ctx];
    const Addr vpn = pageNumber(iova);
    const std::uint64_t gen = c.table.generation();

    Result r;
    const PageTableEntry *pte = iotlb_.lookup(ctx, vpn, gen);
    if (pte != nullptr) {
        ++hits_;
        r.cycles = params_.iotlbHitCycles;
    } else {
        ++misses_;
        ++walks_;
        r.cycles = params_.iotlbMissCycles + params_.walkCycles;
        const auto walked = c.table.lookup(iova);
        if (!walked) {
            ++faults_;
            r.fault = IommuFault::NotMapped;
            return r;
        }
        iotlb_.insert(ctx, vpn, *walked, gen);
        pte = iotlb_.lookup(ctx, vpn, gen);
    }

    if (!allows(pte->rights, need)) {
        ++faults_;
        r.fault = IommuFault::Protection;
        return r;
    }

    // Residency: the frame must be pinned before the device touches
    // it.  OnDemand pins here (evicting within the budget); OnMap
    // treats an unpinned page as a fault — the map-time pin failed.
    if (!c.pinned.count(vpn)) {
        if (params_.pinPolicy == PinPolicy::OnDemand &&
            pinLocked(c, vpn, /*evict_ok=*/true)) {
            ++demandPins_;
            r.cycles += pinCycles;
        } else {
            ++faults_;
            r.fault = IommuFault::NotPinned;
            return r;
        }
    }

    r.paddr = (pte->pfn << pageShift) | pageOffset(iova);
    return r;
}

std::uint64_t
Iommu::stateHash() const
{
    Fnv1a f;
    for (std::size_t i = 0; i < ctxs_.size(); ++i) {
        const Ctx &c = ctxs_[i];
        f.mix(i);
        f.mix(c.table.size());
        f.mix(c.table.generation());
        f.mix(c.pinnedLru.size());
    }
    f.mix(iotlb_.stateHash());
    return f.h;
}

} // namespace uldma
