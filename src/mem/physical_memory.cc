#include "mem/physical_memory.hh"

#include <sys/mman.h>

#include <cstring>

#include "util/logging.hh"

namespace uldma {
namespace {

/** Map @p size bytes of zero pages (see the file comment). */
std::uint8_t *
mapZeroed(Addr size)
{
    ULDMA_ASSERT(size > 0, "zero-sized physical memory");
    void *p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    ULDMA_ASSERT(p != MAP_FAILED, "cannot allocate 0x", std::hex, size,
                 " bytes of physical memory");
    return static_cast<std::uint8_t *>(p);
}

} // namespace

void
PhysicalMemory::Unmapper::operator()(std::uint8_t *p) const
{
    munmap(p, size);
}

PhysicalMemory::PhysicalMemory(Addr size_bytes)
    : size_(size_bytes), store_(mapZeroed(size_bytes), Unmapper{size_bytes})
{}

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
    std::memcpy(dst, store_.get() + addr, size);
}

void
PhysicalMemory::write(Addr addr, const void *src, Addr size)
{
    checkSpan(addr, size);
    std::memcpy(store_.get() + addr, src, size);
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
    std::memset(store_.get() + addr, byte, size);
    notifyWritten(addr, size);
}

void
PhysicalMemory::copy(Addr dst, Addr src, Addr size)
{
    checkSpan(dst, size);
    checkSpan(src, size);
    std::memmove(store_.get() + dst, store_.get() + src, size);
    notifyWritten(dst, size);
}

} // namespace uldma
