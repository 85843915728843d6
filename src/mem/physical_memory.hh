/**
 * @file
 * The DRAM of one simulated workstation: a flat byte array with typed
 * accessors.  Timing is modeled by the owning MemoryDevice / bus; this
 * class is purely functional state.  The array is an anonymous
 * private mapping, so pages the simulation never writes stay the
 * kernel's shared zero page instead of being zero-filled up front.
 * calloc is no substitute: glibc maps a block only above its mmap
 * threshold, and freeing a mapped block raises the threshold to that
 * block's size (up to 32 MiB).  So after the model checker freed its
 * first 2 MiB machine, every later one would come from dirty heap and
 * be cleared byte by byte.
 */

#ifndef ULDMA_MEM_PHYSICAL_MEMORY_HH
#define ULDMA_MEM_PHYSICAL_MEMORY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mem/addr_range.hh"
#include "util/types.hh"

namespace uldma {

/** Byte-addressable physical memory backing store. */
class PhysicalMemory
{
  public:
    explicit PhysicalMemory(Addr size_bytes);

    Addr size() const { return size_; }
    AddrRange range() const { return AddrRange(0, size()); }

    /** Read @p size bytes at @p addr into @p dst. */
    void read(Addr addr, void *dst, Addr size) const;

    /** Write @p size bytes from @p src at @p addr. */
    void write(Addr addr, const void *src, Addr size);

    /** Little-endian integer load of 1/2/4/8 bytes. */
    std::uint64_t readInt(Addr addr, unsigned size) const;

    /** Little-endian integer store of 1/2/4/8 bytes. */
    void writeInt(Addr addr, std::uint64_t value, unsigned size);

    /** Fill [addr, addr+size) with @p byte. */
    void fill(Addr addr, std::uint8_t byte, Addr size);

    /** memcpy inside this memory (ranges may not overlap). */
    void copy(Addr dst, Addr src, Addr size);

    /**
     * Direct pointer for bulk transfers (DMA engine fast path).
     * Writers through this pointer must call notifyWritten()
     * afterwards so caches stay coherent.
     */
    std::uint8_t *data() { return store_.get(); }
    const std::uint8_t *data() const { return store_.get(); }

    /**
     * Register a snooper invoked with (addr, size) after every write
     * into this memory — the invalidation channel that keeps CPU
     * caches coherent with DMA and network writes.
     */
    void
    addWriteObserver(std::function<void(Addr, Addr)> observer)
    {
        observers_.push_back(std::move(observer));
    }

    /** Announce an external write done through data(). */
    void
    notifyWritten(Addr addr, Addr size)
    {
        for (const auto &observer : observers_)
            observer(addr, size);
    }

  private:
    void checkSpan(Addr addr, Addr size) const;

    struct Unmapper
    {
        Addr size;
        void operator()(std::uint8_t *p) const;
    };

    Addr size_;
    std::unique_ptr<std::uint8_t[], Unmapper> store_;
    std::vector<std::function<void(Addr, Addr)>> observers_;
};

} // namespace uldma

#endif // ULDMA_MEM_PHYSICAL_MEMORY_HH
