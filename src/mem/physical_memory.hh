/**
 * @file
 * The DRAM of one simulated workstation: a flat byte array with typed
 * accessors.  Timing is modeled by the owning MemoryDevice / bus; this
 * class is purely functional state.
 *
 * The array is an anonymous private mapping, so pages the simulation
 * never writes stay the kernel's shared zero page instead of being
 * zero-filled up front.  calloc is no substitute: glibc maps a block
 * only above its mmap threshold, and freeing a mapped block raises the
 * threshold to that block's size (up to 32 MiB).  So after the model
 * checker freed its first 2 MiB machine, every later one would come
 * from dirty heap and be cleared byte by byte.
 *
 * Mappings are recycled per thread.  Every write marks the 4 KiB
 * granules it touches in a bitmap.  A destroyed memory parks its
 * mapping and bitmap in its thread's one spare slot, and the next
 * memory of the same size built on that thread takes them and clears
 * only the marked granules.  So a checker exec that builds and frees
 * a 2 MiB machine pays for neither mmap, munmap nor page faults, only
 * for zeroing the few pages the previous run wrote.  A size mismatch
 * or thread exit unmaps the spare, and so does a memory freed after
 * its thread's slot is gone.  The scheme is only sound because write,
 * writeInt, fill and copy are the only ways to change the bytes: no
 * writable pointer into the array leaves this class.
 */

#ifndef ULDMA_MEM_PHYSICAL_MEMORY_HH
#define ULDMA_MEM_PHYSICAL_MEMORY_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/addr_range.hh"
#include "util/types.hh"

namespace uldma {

/** Byte-addressable physical memory backing store. */
class PhysicalMemory
{
  public:
    explicit PhysicalMemory(Addr size_bytes);
    ~PhysicalMemory();

    PhysicalMemory(const PhysicalMemory &) = delete;
    PhysicalMemory &operator=(const PhysicalMemory &) = delete;

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

    /** Read-only view of the array (tests check which mapping a
     *  memory got). */
    const std::uint8_t *data() const { return store_; }

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

  private:
    void checkSpan(Addr addr, Addr size) const;

    /** Mark the granules under a write dirty and run the observers. */
    void notifyWritten(Addr addr, Addr size);

    /** Zero every marked granule of a recycled mapping. */
    void clearDirty();

    Addr size_;
    std::uint8_t *store_;
    /** One bit per 4 KiB granule written since the array was zero. */
    std::vector<std::uint64_t> dirty_;
    std::vector<std::function<void(Addr, Addr)>> observers_;
};

} // namespace uldma

#endif // ULDMA_MEM_PHYSICAL_MEMORY_HH
