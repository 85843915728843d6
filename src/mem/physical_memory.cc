#include "mem/physical_memory.hh"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "util/logging.hh"

namespace uldma {
namespace {

/** Dirty-tracking granule: 4 KiB, the usual host page. */
constexpr unsigned granuleShift = 12;

/** Map @p size bytes of zero pages (see the file comment). */
std::uint8_t *
mapZeroed(Addr size)
{
    void *p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    ULDMA_ASSERT(p != MAP_FAILED, "cannot allocate 0x", std::hex, size,
                 " bytes of physical memory");
    return static_cast<std::uint8_t *>(p);
}

/** Set once this thread's Spare is destroyed; trivially destructible,
 *  so it stays readable until the thread's storage goes away. */
thread_local bool spareGone = false;

/** The mapping a destroyed memory left for the next one on this thread
 *  (see the file comment). */
struct Spare
{
    std::uint8_t *store = nullptr;
    Addr size = 0;
    std::vector<std::uint64_t> dirty;

    Spare() = default;
    Spare(const Spare &) = delete;
    Spare &operator=(const Spare &) = delete;

    void
    drop()
    {
        if (store != nullptr)
            munmap(store, size);
        store = nullptr;
    }

    ~Spare()
    {
        drop();
        spareGone = true;
    }
};

thread_local Spare spare;

} // namespace

PhysicalMemory::PhysicalMemory(Addr size_bytes) : size_(size_bytes)
{
    ULDMA_ASSERT(size_ > 0, "zero-sized physical memory");
    if (!spareGone && spare.store != nullptr) {
        if (spare.size == size_) {
            store_ = std::exchange(spare.store, nullptr);
            dirty_ = std::move(spare.dirty);
            clearDirty();
            return;
        }
        spare.drop();
    }
    const Addr granules = ((size_ - 1) >> granuleShift) + 1;
    dirty_.assign((granules + 63) / 64, 0);
    store_ = mapZeroed(size_);
}

PhysicalMemory::~PhysicalMemory()
{
    if (spareGone) {
        munmap(store_, size_);
        return;
    }
    spare.drop();
    spare.store = store_;
    spare.size = size_;
    spare.dirty = std::move(dirty_);
}

void
PhysicalMemory::clearDirty()
{
    for (std::size_t w = 0; w < dirty_.size(); ++w) {
        for (std::uint64_t bits = std::exchange(dirty_[w], 0); bits != 0;
             bits &= bits - 1) {
            const Addr lo = (Addr(w) * 64 + std::countr_zero(bits))
                            << granuleShift;
            const Addr hi = std::min(lo + (Addr(1) << granuleShift), size_);
            std::memset(store_ + lo, 0, hi - lo);
        }
    }
}

void
PhysicalMemory::notifyWritten(Addr addr, Addr size)
{
    if (size > 0) {
        const Addr last = (addr + size - 1) >> granuleShift;
        for (Addr g = addr >> granuleShift; g <= last; ++g)
            dirty_[g / 64] |= std::uint64_t(1) << (g % 64);
    }
    for (const auto &observer : observers_)
        observer(addr, size);
}

void
PhysicalMemory::checkSpan(Addr addr, Addr size) const
{
    ULDMA_ASSERT(addr <= size_ && size <= size_ - addr,
                 "physical access [0x", std::hex, addr, ", +0x", size,
                 ") outside memory of size 0x", size_);
}

void
PhysicalMemory::read(Addr addr, void *dst, Addr size) const
{
    checkSpan(addr, size);
    std::memcpy(dst, store_ + addr, size);
}

void
PhysicalMemory::write(Addr addr, const void *src, Addr size)
{
    checkSpan(addr, size);
    std::memcpy(store_ + addr, src, size);
    notifyWritten(addr, size);
}

std::uint64_t
PhysicalMemory::readInt(Addr addr, unsigned size) const
{
    ULDMA_ASSERT(size == 1 || size == 2 || size == 4 || size == 8,
                 "bad integer access size ", size);
    std::uint64_t value = 0;
    read(addr, &value, size);
    return value;
}

void
PhysicalMemory::writeInt(Addr addr, std::uint64_t value, unsigned size)
{
    ULDMA_ASSERT(size == 1 || size == 2 || size == 4 || size == 8,
                 "bad integer access size ", size);
    write(addr, &value, size);
}

void
PhysicalMemory::fill(Addr addr, std::uint8_t byte, Addr size)
{
    checkSpan(addr, size);
    std::memset(store_ + addr, byte, size);
    notifyWritten(addr, size);
}

void
PhysicalMemory::copy(Addr dst, Addr src, Addr size)
{
    checkSpan(dst, size);
    checkSpan(src, size);
    std::memmove(store_ + dst, store_ + src, size);
    notifyWritten(dst, size);
}

} // namespace uldma
