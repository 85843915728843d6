/**
 * @file
 * A user process: an ExecContext plus the OS bookkeeping around it —
 * its page table, its allocated memory regions, and the DMA resources
 * (shadow mappings, register context + key, CONTEXT_ID) the kernel has
 * granted it.
 */

#ifndef ULDMA_OS_PROCESS_HH
#define ULDMA_OS_PROCESS_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cpu/exec_context.hh"
#include "vm/page_table.hh"

namespace uldma {

/** DMA capabilities a process has been granted by the kernel. */
struct DmaGrant
{
    /** Key-based protocol (paper §3.1). */
    std::optional<unsigned> keyContext;   ///< register-context id
    std::uint64_t key = 0;                ///< the secret key
    Addr contextPageVaddr = 0;            ///< where the ctx page is mapped
    /** Atomic unit's register-context page (keyed §3.5 adaptation). */
    Addr atomicContextPageVaddr = 0;

    /** Extended shadow addressing (paper §3.2). */
    std::optional<unsigned> shadowContext;  ///< CONTEXT_ID

    /// @name Descriptor ring (docs/RING.md), set up by Kernel::setupRing.
    /// @{
    bool ringConfigured = false;
    Addr ringDescVaddr = 0;   ///< descriptor ring, user-mapped
    Addr ringCplVaddr = 0;    ///< completion records, user-mapped
    unsigned ringSlots = 0;
    /** Program-build-time enqueue cursor (emitRingBatch's slot
     *  allocator; not runtime state). */
    std::uint64_t ringEnqueueSeq = 0;
    /// @}

    /** IOMMU mode (docs/IOMMU.md): ring descriptors carry the user's
     *  virtual addresses instead of kernel-translated physical ones —
     *  the engine translates through its I/O page table.  Set by
     *  Kernel::setupRing when the engine has an IOMMU. */
    bool ringIommu = false;

    /// @name Capability-gated DMA (docs/CAPABILITIES.md), set up by
    /// Kernel::capGrant / capDelegate.  Parallel vectors, one entry per
    /// slot this process can present to.  A delegate's capword goes
    /// stale when the owner revokes — the kernel deliberately does not
    /// scrub it: presenting a stale handle fails closed in hardware,
    /// which is exactly the behaviour tests and the checker probe.
    /// @{
    std::vector<unsigned> capSlots;        ///< engine slot indices
    std::vector<Addr> capPageVaddrs;       ///< mapped presentation pages
    std::vector<std::uint64_t> capWords;   ///< capwords as last issued
    std::vector<unsigned> capRateClasses;  ///< QoS class per slot
    /// @}
};

/**
 * One simulated process.
 */
class Process
{
  public:
    Process(Pid pid, std::string name)
        : pageTable_(std::make_unique<PageTable>()),
          ctx_(pid, std::move(name), *pageTable_)
    {}

    Pid pid() const { return ctx_.pid(); }
    const std::string &name() const { return ctx_.name(); }

    ExecContext &context() { return ctx_; }
    const ExecContext &context() const { return ctx_; }

    PageTable &pageTable() { return *pageTable_; }

    RunState state() const { return ctx_.state(); }
    bool runnable() const
    {
        return ctx_.state() == RunState::Ready ||
               ctx_.state() == RunState::Running;
    }
    bool finished() const
    {
        return ctx_.state() == RunState::Exited ||
               ctx_.state() == RunState::Faulted;
    }

    /** Set while the process sits in a RoundRobinScheduler's ready
     *  queue, so enqueueing it again is O(1). */
    bool queued() const { return queued_; }
    void setQueued(bool queued) { queued_ = queued; }

    DmaGrant &dmaGrant() { return grant_; }
    const DmaGrant &dmaGrant() const { return grant_; }

    /** Next unused virtual address for a fresh mapping. */
    Addr allocCursor() const { return allocCursor_; }
    void setAllocCursor(Addr a) { allocCursor_ = a; }

  private:
    std::unique_ptr<PageTable> pageTable_;
    ExecContext ctx_;
    DmaGrant grant_;
    Addr allocCursor_ = userRegionBase;
    bool queued_ = false;
};

} // namespace uldma

#endif // ULDMA_OS_PROCESS_HH
