#include "vm/tlb.hh"

#include "util/logging.hh"

namespace uldma {

Tlb::Tlb(std::string name, const TlbParams &params)
    : name_(std::move(name)), params_(params), statsGroup_(name_)
{
    ULDMA_ASSERT(params_.entries >= 1, "TLB needs at least one entry");
    statsGroup_.addScalar("hits", &hits_, "TLB hits");
    statsGroup_.addScalar("misses", &misses_, "TLB misses");
    statsGroup_.addScalar("flushes", &flushes_, "TLB flushes");
}

void
Tlb::flush()
{
    entries_.clear();
    lru_.clear();
    ++flushes_;
}

void
Tlb::insert(Addr vpn, const PageTableEntry &pte)
{
    if (entries_.size() >= params_.entries) {
        // Evict least-recently-used.
        const Addr victim = lru_.back();
        lru_.pop_back();
        entries_.erase(victim);
    }
    lru_.push_front(vpn);
    entries_[vpn] = CachedEntry{pte, lru_.begin()};
}

Translation
Tlb::translate(const PageTable &pt, Addr vaddr, Rights need,
               Cycles &miss_cycles)
{
    // Invalidate wholesale if the table changed identity or content.
    if (cachedTable_ != &pt || cachedGeneration_ != pt.generation()) {
        entries_.clear();
        lru_.clear();
        cachedTable_ = &pt;
        cachedGeneration_ = pt.generation();
    }

    miss_cycles = 0;
    const Addr vpn = pageNumber(vaddr);

    auto it = entries_.find(vpn);
    if (it != entries_.end()) {
        ++hits_;
        lru_.splice(lru_.begin(), lru_, it->second.lruIt);
        it->second.lruIt = lru_.begin();

        Translation result;
        const PageTableEntry &pte = it->second.pte;
        if (!allows(pte.rights, need)) {
            result.fault = allows(need, Rights::Write)
                               ? Fault::ProtectionWrite
                               : Fault::ProtectionRead;
            return result;
        }
        result.paddr = (pte.pfn << pageShift) | pageOffset(vaddr);
        result.uncacheable = pte.uncacheable;
        return result;
    }

    ++misses_;
    miss_cycles = missCycles;

    const auto pte = pt.lookup(vaddr);
    if (!pte) {
        Translation result;
        result.fault = Fault::NotMapped;
        return result;
    }
    insert(vpn, *pte);

    Translation result;
    if (!allows(pte->rights, need)) {
        result.fault = allows(need, Rights::Write) ? Fault::ProtectionWrite
                                                   : Fault::ProtectionRead;
        return result;
    }
    result.paddr = (pte->pfn << pageShift) | pageOffset(vaddr);
    result.uncacheable = pte->uncacheable;
    return result;
}

} // namespace uldma
