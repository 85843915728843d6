/**
 * @file
 * A small fully-associative TLB with LRU replacement, caching
 * translations of the current process's page table.  Charged costs:
 * hits are free (folded into the base instruction cost), misses pay a
 * software-miss-handler cost in CPU cycles, as on the Alpha (PALcode
 * TLB refill).
 */

#ifndef ULDMA_VM_TLB_HH
#define ULDMA_VM_TLB_HH

#include <array>
#include <list>
#include <string>
#include <unordered_map>

#include "sim/stats.hh"
#include "vm/page_table.hh"

namespace uldma {

/** TLB configuration. */
struct TlbParams
{
    unsigned entries = 32;
};

/**
 * Fully-associative, LRU TLB over one PageTable at a time.
 */
class Tlb
{
  public:
    /** CPU cycles for a miss refill (software handler). */
    static constexpr Cycles missCycles = 20;

    Tlb(std::string name, const TlbParams &params);

    /**
     * Translate for the given page table.  Sets @p miss_cycles to the
     * refill penalty (0 on hit).  Faults are never cached.
     */
    Translation translate(const PageTable &pt, Addr vaddr, Rights need,
                          Cycles &miss_cycles);

    /** Drop all entries (on context switch). */
    void flush();

    const TlbParams &params() const { return params_; }
    stats::Group &statsGroup() { return statsGroup_; }
    void registerStats(stats::Registry &r) { r.add(&statsGroup_); }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    /// @name Replay of a repeating CPU loop (Cpu's poll fast-forward).
    /// @{
    /** Hits, misses and flushes so far. */
    using Counters = std::array<std::uint64_t, 3>;
    Counters
    counters() const
    {
        return {hits_.value(), misses_.value(), flushes_.value()};
    }
    /** Add @p k times @p delta to counters(). */
    void
    replay(const Counters &delta, std::uint64_t k)
    {
        hits_ += k * delta[0];
        misses_ += k * delta[1];
        flushes_ += k * delta[2];
    }
    /// @}

  private:
    struct CachedEntry
    {
        PageTableEntry pte;
        std::list<Addr>::iterator lruIt;
    };

    void insert(Addr vpn, const PageTableEntry &pte);

    std::string name_;
    TlbParams params_;

    /** Generation of the page table the cached entries belong to. */
    std::uint64_t cachedGeneration_ = ~std::uint64_t(0);
    const PageTable *cachedTable_ = nullptr;

    std::unordered_map<Addr, CachedEntry> entries_;  // keyed by VPN
    std::list<Addr> lru_;                            // front = most recent

    stats::Group statsGroup_;
    stats::Scalar hits_;
    stats::Scalar misses_;
    stats::Scalar flushes_;
};

} // namespace uldma

#endif // ULDMA_VM_TLB_HH
