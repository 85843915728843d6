#include "iommu/iotlb.hh"

#include <algorithm>

#include "util/fnv.hh"

namespace uldma {

IoTlb::IoTlb(unsigned entries, unsigned ways)
{
    ways_ = std::max(1u, ways);
    sets_ = std::max(1u, entries / ways_);
    entries_.resize(std::size_t(sets_) * ways_);
}

unsigned
IoTlb::setOf(unsigned ctx, Addr vpn) const
{
    return static_cast<unsigned>((vpn ^ (Addr(ctx) * 0x9E37)) % sets_);
}

const PageTableEntry *
IoTlb::lookup(unsigned ctx, Addr vpn, std::uint64_t gen)
{
    Entry *base = &entries_[std::size_t(setOf(ctx, vpn)) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        Entry &e = base[w];
        if (!e.valid || e.ctx != ctx || e.vpn != vpn)
            continue;
        if (e.gen != gen) {
            // Stale: the context's table changed since the fill.
            e.valid = false;
            return nullptr;
        }
        e.lastUse = ++useClock_;
        return &e.pte;
    }
    return nullptr;
}

void
IoTlb::insert(unsigned ctx, Addr vpn, const PageTableEntry &pte,
              std::uint64_t gen)
{
    Entry *base = &entries_[std::size_t(setOf(ctx, vpn)) * ways_];
    Entry *victim = &base[0];
    for (unsigned w = 0; w < ways_; ++w) {
        Entry &e = base[w];
        if (e.valid && e.ctx == ctx && e.vpn == vpn) {
            victim = &e;   // re-insert in place, never duplicate
            break;
        }
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    victim->valid = true;
    victim->ctx = ctx;
    victim->vpn = vpn;
    victim->pte = pte;
    victim->gen = gen;
    victim->lastUse = ++useClock_;
}

void
IoTlb::invalidateContext(unsigned ctx)
{
    for (Entry &e : entries_) {
        if (e.valid && e.ctx == ctx)
            e.valid = false;
    }
}

std::uint64_t
IoTlb::stateHash() const
{
    Fnv1a f;
    for (const Entry &e : entries_) {
        if (!e.valid)
            continue;
        f.mix(e.ctx);
        f.mix(e.vpn);
        f.mix(e.pte.pfn);
        f.mix(static_cast<std::uint64_t>(e.pte.rights));
        f.mix(e.gen);
    }
    return f.h;
}

} // namespace uldma
