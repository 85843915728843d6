/**
 * @file
 * Optional L1 data cache (timing model).
 *
 * Direct-mapped, physically tagged, write-through with
 * no-write-allocate — the simple on-chip data cache of an Alpha
 * 21064-class core.  Data always lives in PhysicalMemory (the cache
 * only decides access *cost*), so functional correctness never
 * depends on it; coherence with DMA and network writes is handled by
 * snooping PhysicalMemory's write-observer channel and invalidating
 * overlapping lines — which is why a polling loop sees fresh data the
 * access after a DMA lands.
 *
 * Disabled by default to keep the Table-1 calibration
 * (CpuParams::cachedMemExtraCycles models the typical hit) — enable
 * via CpuParams::dcache.enabled for cache-sensitive studies.
 */

#ifndef ULDMA_CPU_DCACHE_HH
#define ULDMA_CPU_DCACHE_HH

#include <string>
#include <vector>

#include "mem/physical_memory.hh"
#include "sim/stats.hh"
#include "util/bitfield.hh"
#include "util/types.hh"

namespace uldma {

/** Data-cache geometry. */
struct DcacheParams
{
    bool enabled = false;
    Addr sizeBytes = 16 * 1024;
    Addr lineBytes = 32;
};

/**
 * The cache: tag array only; data stays in PhysicalMemory.
 */
class Dcache
{
  public:
    /** Extra cycles on a hit (beyond the base instruction cost). */
    static constexpr Cycles hitExtraCycles = 1;
    /** Extra cycles on a read miss (DRAM fill). */
    static constexpr Cycles missCycles = 24;
    /** Extra cycles for a write (write-through buffer admission). */
    static constexpr Cycles writeCycles = 2;

    Dcache(std::string name, const DcacheParams &params,
           PhysicalMemory &memory);

    /**
     * Account one CPU access.
     * @return extra cycles beyond the base instruction cost.
     */
    Cycles access(Addr paddr, unsigned size, bool is_write);

    /** Invalidate lines overlapping [paddr, paddr+size). */
    void invalidate(Addr paddr, Addr size);

    /**
     * Scoped suppression of snoop invalidations while the owning CPU
     * performs its own (write-through) store — the store keeps the
     * line coherent, so no invalidation is needed.
     */
    class SelfAccess
    {
      public:
        explicit SelfAccess(Dcache *cache) : cache_(cache)
        {
            if (cache_ != nullptr)
                cache_->suppress_ = true;
        }

        ~SelfAccess()
        {
            if (cache_ != nullptr)
                cache_->suppress_ = false;
        }

        SelfAccess(const SelfAccess &) = delete;
        SelfAccess &operator=(const SelfAccess &) = delete;

      private:
        Dcache *cache_;
    };

    /** Drop every line. */
    void flush();

    const DcacheParams &params() const { return params_; }
    stats::Group &statsGroup() { return statsGroup_; }
    void registerStats(stats::Registry &r) { r.add(&statsGroup_); }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t invalidations() const { return invalidations_.value(); }

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
    };

    Addr lineIndex(Addr paddr) const
    {
        return (paddr / params_.lineBytes) % lines_.size();
    }

    Addr lineTag(Addr paddr) const { return paddr / params_.lineBytes; }

    std::string name_;
    DcacheParams params_;
    std::vector<Line> lines_;
    bool suppress_ = false;

    stats::Group statsGroup_;
    stats::Scalar hits_;
    stats::Scalar misses_;
    stats::Scalar writes_;
    stats::Scalar invalidations_;
};

} // namespace uldma

#endif // ULDMA_CPU_DCACHE_HH
