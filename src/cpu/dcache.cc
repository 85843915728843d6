#include "cpu/dcache.hh"

#include "util/logging.hh"

namespace uldma {

Dcache::Dcache(std::string name, const DcacheParams &params,
               PhysicalMemory &memory)
    : name_(std::move(name)), params_(params), statsGroup_(name_)
{
    ULDMA_ASSERT(isPowerOf2(params_.lineBytes),
                 "cache line size must be a power of two");
    ULDMA_ASSERT(params_.sizeBytes >= params_.lineBytes &&
                     params_.sizeBytes % params_.lineBytes == 0,
                 "cache size must be a multiple of the line size");
    lines_.resize(params_.sizeBytes / params_.lineBytes);

    // Snoop every write into backing memory: DMA engine payloads,
    // network deliveries and other processes' stores all invalidate
    // overlapping lines.
    memory.addWriteObserver([this](Addr addr, Addr size) {
        invalidate(addr, size);
    });

    statsGroup_.addScalar("hits", &hits_, "read hits");
    statsGroup_.addScalar("misses", &misses_, "read misses (line fills)");
    statsGroup_.addScalar("writes", &writes_, "write-through stores");
    statsGroup_.addScalar("invalidations", &invalidations_,
                          "lines invalidated by external writes");
}

Cycles
Dcache::access(Addr paddr, unsigned size, bool is_write)
{
    (void)size;   // sub-line accesses cost the same
    Line &line = lines_[lineIndex(paddr)];
    const Addr tag = lineTag(paddr);

    if (is_write) {
        ++writes_;
        // Write-through: the store goes straight to memory; a
        // resident line stays valid (the data in memory is current).
        return writeCycles;
    }

    if (line.valid && line.tag == tag) {
        ++hits_;
        return hitExtraCycles;
    }

    ++misses_;
    line.valid = true;
    line.tag = tag;
    return missCycles;
}

void
Dcache::invalidate(Addr paddr, Addr size)
{
    if (size == 0 || suppress_)
        return;
    const Addr first = paddr / params_.lineBytes;
    const Addr last = (paddr + size - 1) / params_.lineBytes;
    // For huge ranges just flush; cheaper than touching each line.
    if (last - first + 1 >= lines_.size()) {
        flush();
        return;
    }
    for (Addr l = first; l <= last; ++l) {
        Line &line = lines_[l % lines_.size()];
        if (line.valid && line.tag == l) {
            line.valid = false;
            ++invalidations_;
        }
    }
}

void
Dcache::flush()
{
    for (Line &line : lines_) {
        if (line.valid)
            ++invalidations_;
        line.valid = false;
    }
}

} // namespace uldma
