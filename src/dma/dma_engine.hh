/**
 * @file
 * The DMA engine of the network interface — the hardware half of every
 * protocol in the paper.
 *
 * The engine sits on the I/O bus and watches the *stream of physical
 * accesses* that reaches it.  It has no idea which process is running:
 * everything it can use is in the access itself (read/write, physical
 * address, payload), which is exactly the constraint the paper's
 * protocols are designed around.  Packet provenance (srcPid) is latched
 * only into the security-oracle records that tests inspect; no protocol
 * decision reads it.
 *
 * Decoded windows:
 *  - kernel register block (figure 1: SOURCE/DESTINATION/SIZE/STATUS,
 *    plus the privileged hooks the SHRIMP-2/FLASH baselines need and
 *    key/map-out/ring/IOMMU/capability management);
 *  - register-context pages (paper §3.1): stores hit the size register,
 *    loads return remaining bytes (~0 = failure, 0 = complete);
 *  - capability presentation pages (docs/CAPABILITIES.md), when the
 *    capability table is enabled;
 *  - the shadow window (paper §2.3): argument-passing accesses,
 *    interpreted per EngineMode.
 */

#ifndef ULDMA_DMA_DMA_ENGINE_HH
#define ULDMA_DMA_DMA_ENGINE_HH

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cap/cap_arbiter.hh"
#include "cap/cap_table.hh"
#include "dma/dma_params.hh"
#include "dma/transfer_engine.hh"
#include "iommu/iommu.hh"
#include "mem/bus.hh"
#include "sim/span.hh"
#include "sim/stats.hh"
#include "vm/layout.hh"

namespace uldma {

class PhysicalMemory;

/**
 * The programmable DMA controller on the NI board.
 */
class DmaEngine : public BusDevice
{
  public:
    DmaEngine(EventQueue &eq, std::string name, const ClockDomain &bus_clock,
              const DmaEngineParams &params, TransferBackend &backend);

    /// @name BusDevice interface.
    /// @{
    const std::string &deviceName() const override { return name_; }
    std::vector<AddrRange> deviceRanges() const override;
    Tick access(Packet &pkt) override;
    /** Only the cap pages: a load there reads a presentation's status
     *  (or zero).  Like any engine access it pays the extra cycles an
     *  event left pending, which only the first read after it sees. */
    bool sideEffectFreeRead(Addr paddr) const override;
    /// @}

    const DmaEngineParams &params() const { return params_; }
    TransferEngine &transferEngine() { return xfer_; }

    /**
     * Completion interrupt for the kernel channel: invoked when a
     * kernel-initiated transfer finishes (the OS wires its interrupt
     * handler here at boot).
     */
    void
    setKernelCompletionHandler(std::function<void()> handler)
    {
        kernelCompletionHandler_ = std::move(handler);
    }

    /** True while a kernel-channel transfer is in flight. */
    bool
    kernelChannelBusy() const
    {
        return kTransfer_ != invalidTransfer &&
               !xfer_.complete(kTransfer_);
    }

    /**
     * Local DRAM for descriptor-ring fetches and completion-record
     * writes (docs/RING.md).  Wired by the Node at construction;
     * without it the ring registers exist but every doorbell is
     * rejected.  Completion records are written through writeInt so
     * the memory's write observers (cache invalidation) fire.
     */
    void setLocalMemory(PhysicalMemory *mem) { localMemory_ = mem; }

    /**
     * Kernel fix-up hook for IOMMU translation faults under
     * IommuFaultPolicy::Trap: called with (ctx, faulting IOVA,
     * is-write).  Returns the fix-up cost in ticks when the kernel
     * repaired the mapping (the parked descriptor resumes that much
     * later, mid-transfer), or ~0 to signal failure (the descriptor
     * aborts with the error bit).
     */
    void
    setIommuFaultHandler(
        std::function<std::uint64_t(unsigned, Addr, bool)> handler)
    {
        iommuFaultHandler_ = std::move(handler);
    }

    /** The address-translation unit, or nullptr when not enabled. */
    const Iommu *iommu() const { return iommu_.get(); }
    Iommu *iommu() { return iommu_.get(); }

    /** The capability table, or nullptr when cap is not enabled. */
    const CapTable *cap() const { return cap_.get(); }
    CapTable *cap() { return cap_.get(); }
    /** The multi-tenant arbiter, or nullptr when cap is not enabled. */
    const CapArbiter *capArbiter() const { return capArbiter_.get(); }

    /** Physical address of capability presentation page @p slot. */
    Addr capPageAddr(unsigned slot) const;

    /** Outstanding (started, not yet completed) ring transfers. */
    unsigned ringOutstanding(unsigned ctx) const;
    /** Descriptors retired (completed or rejected) on @p ctx's ring. */
    std::uint64_t ringRetired(unsigned ctx) const;

    /** Physical address of register-context page @p ctx. */
    Addr contextPageAddr(unsigned ctx) const;

    /// @name Security oracle (tests/benches only — not device state).
    /// @{
    /** Everything the engine knows about one started DMA. */
    struct InitiationRecord
    {
        Tick when;
        EngineMode mode;
        Addr src;
        Addr dst;
        Addr size;
        unsigned ctx;              ///< register context / CONTEXT_ID
        bool viaKernel;            ///< through the kernel register block
        bool viaRing;              ///< from a descriptor-ring drain
        std::vector<Pid> contributors;  ///< pids of contributing accesses
        bool viaCap = false;       ///< from a capability presentation
        unsigned capSlot = 0;      ///< capability slot (viaCap only)
    };

    const std::vector<InitiationRecord> &initiations() const
    {
        return initiations_;
    }
    /// @}

    /// @name Direct state inspection for unit tests.
    /// @{
    std::uint64_t contextKey(unsigned ctx) const;
    bool pairLatchValid(unsigned ctx = 0) const;
    unsigned fsmStep() const { return fsmStep_; }
    /// @}

    /**
     * Deterministic FNV-1a hash of the engine's protocol-visible state:
     * the repeated-passing FSM, the pair latches, the register contexts
     * (validity and staged arguments; the secret keys themselves are
     * excluded), the kernel channel, the OS tag, and the event
     * counters.  Equal hashes mean the engine would treat any future
     * access stream identically; the model checker (src/check) uses
     * this to prune equivalent interleaving prefixes.
     */
    std::uint64_t stateHash() const;

    /// @name Stats.
    /// @{
    stats::Group &statsGroup() { return statsGroup_; }

    /** Registers the engine's stats and its transfer engine's. */
    void
    registerStats(stats::Registry &r)
    {
        r.add(&statsGroup_);
        if (iommu_)
            r.add(&iommu_->statsGroup());
        if (cap_) {
            r.add(&cap_->statsGroup());
            r.add(&capArbiter_->statsGroup());
        }
        transferEngine().registerStats(r);
    }

    std::uint64_t numInitiations() const { return started_.value(); }
    std::uint64_t numRejects() const { return rejected_.value(); }
    std::uint64_t numKeyMismatches() const { return keyMismatch_.value(); }
    std::uint64_t numFsmResets() const { return fsmResets_.value(); }
    std::uint64_t numRingDoorbells() const
    {
        return ringDoorbells_.value();
    }
    std::uint64_t numRingDescriptors() const
    {
        return ringDescriptors_.value();
    }
    std::uint64_t numRingRejects() const { return ringRejects_.value(); }
    std::uint64_t numIommuSegments() const
    {
        return iommuSegments_.value();
    }
    std::uint64_t numIommuFaults() const
    {
        return iommuTransFaults_.value();
    }
    std::uint64_t numIommuTraps() const { return iommuTraps_.value(); }
    std::uint64_t numIommuResumes() const
    {
        return iommuResumes_.value();
    }
    std::uint64_t numIommuBypasses() const
    {
        return iommuBypasses_.value();
    }
    std::uint64_t numCapPresentations() const
    {
        return capPresentations_.value();
    }
    std::uint64_t numCapRejects() const { return capRejects_.value(); }
    std::uint64_t numCapStarts() const { return capStarts_.value(); }
    std::uint64_t numCapCancels() const { return capCancels_.value(); }
    /// @}

  private:
    /** One key-based register context (paper §3.1). */
    struct RegisterContext
    {
        std::uint64_t key = 0;
        bool keyValid = false;
        Addr src = 0;
        Addr dst = 0;
        Addr size = 0;
        bool srcValid = false;
        bool dstValid = false;
        bool sizeValid = false;
        TransferId transfer = invalidTransfer;
        std::vector<Pid> contributors;
        span::SpanId span = span::invalidSpan;

        void
        resetArgs()
        {
            srcValid = dstValid = sizeValid = false;
            contributors.clear();
        }
    };

    /** Per-context descriptor-ring state (docs/RING.md). */
    struct RingContext
    {
        bool configured = false;
        Addr base = 0;         ///< descriptor ring base (physical)
        Addr cplBase = 0;      ///< completion record base (physical)
        unsigned slots = 0;
        unsigned head = 0;     ///< next slot the engine examines
        std::uint64_t retired = 0;     ///< descriptors retired
        unsigned outstanding = 0;      ///< transfers in flight
        Tick lastDoorbell = 0;         ///< observability only (latency)

        /** One kernel-authorized physical span [base, limit). */
        struct Frame
        {
            Addr base = 0;
            Addr limit = 0;
        };
        std::vector<Frame> frames;
        Addr stagedFrameBase = 0;

        /** Scatter-gather progress of one virtually-addressed
         *  descriptor (IOMMU mode): per-page segments in flight. */
        struct SlotSg
        {
            unsigned remaining = 0;  ///< segments started, not done
            bool issuing = false;    ///< inside the issue loop
            bool error = false;      ///< any segment faulted/rejected
        };
        std::unordered_map<unsigned, SlotSg> sg;

        /** A descriptor parked on an IOMMU translation fault awaiting
         *  kernel fix-up (IommuFaultPolicy::Trap).  While active, the
         *  ring drain is stalled to preserve FIFO order. */
        struct IommuPark
        {
            bool active = false;
            unsigned slot = 0;
            Addr src = 0;
            Addr dst = 0;
            Addr size = 0;
            Addr done = 0;        ///< bytes issued before the fault
            Pid pid = invalidPid;
            Addr faultIova = 0;
            bool faultWrite = false;
        };
        IommuPark park;

        void
        reset()
        {
            *this = RingContext();
        }
    };

    /** The STORE-latch of the two-access ShadowPair protocol. */
    struct PairLatch
    {
        bool valid = false;
        Addr dst = 0;
        Addr size = 0;
        std::uint64_t osTag = 0;   ///< FLASH: tag at latch time
        Pid contributor = invalidPid;
        span::SpanId span = span::invalidSpan;
    };

    /// @name Window handlers.
    /// @{
    void accessKernelRegs(Packet &pkt, Addr offset);
    void accessContextPage(Packet &pkt, unsigned ctx, Addr offset);
    void accessShadow(Packet &pkt);
    void accessCapPage(Packet &pkt, Addr window_offset);
    /// @}

    /// @name Capability path (docs/CAPABILITIES.md).
    /// @{
    /** Kernel-block capability-management register write. */
    void capManage(Addr offset, std::uint64_t value);
    /** Validate a committed presentation and enqueue it. */
    void capCommit(unsigned slot, std::uint64_t capword);
    /** Hand the pipeline to the arbiter's next pick, if idle. */
    void capDispatch();
    /** Completion bookkeeping for the dispatched transfer. */
    void capTransferDone();
    /** Revocation / teardown: fail queued and in-flight work closed. */
    void capCancelSlot(unsigned slot);
    /// @}

    /// @name Per-protocol shadow handlers.
    /// @{
    void shadowPair(Packet &pkt, Addr target, unsigned ctx);
    void shadowKeyBased(Packet &pkt, Addr target);
    /** Feed one access to the repeated-passing recognizer (paper
     *  §3.3): one table of accesses per mode.  Sets pkt.data for
     *  loads. */
    void shadowRepeated(Packet &pkt, Addr target, unsigned ctx);
    void shadowMappedOut(Packet &pkt, Addr target);
    /// @}

    /// @name Span bookkeeping: each is a no-op while capture is off.
    /// @{
    /** Open a span for @p protocol; invalidSpan while capture is off. */
    span::SpanId spanOpen(const char *protocol) const;
    void spanReject(span::SpanId sid,
                    span::Outcome why = span::Outcome::Rejected) const;
    void spanAbort(span::SpanId sid) const;
    /// @}

    /**
     * Validate and start a user-initiated transfer.  @p span (if any)
     * is rejected on refusal, or recognized and threaded through the
     * transfer engine on success.
     * @return the transfer id, or invalidTransfer on rejection.
     */
    TransferId tryStartUser(Addr src, Addr dst, Addr size, unsigned ctx,
                            const std::vector<Pid> &contributors,
                            span::SpanId span = span::invalidSpan,
                            bool via_ring = false,
                            std::function<void()> on_complete = nullptr);

    /// @name Descriptor-ring path (docs/RING.md).
    /// @{
    /** Key-gated doorbell store / drain-progress load. */
    void ringDoorbell(Packet &pkt, unsigned ctx);
    /** Walk valid descriptors from head and issue/retire them. */
    void ringDrain(unsigned ctx, Pid doorbell_pid);
    /** Process one descriptor; false ends the drain (no valid bit). */
    bool ringConsume(unsigned ctx, Pid doorbell_pid);
    /** True if [addr, addr+size) lies inside an authorized frame. */
    bool ringFrameAllowed(const RingContext &ring, Addr addr,
                          Addr size) const;
    /** Retire slot @p slot: completion record + control writeback. */
    void ringRetire(unsigned ctx, unsigned slot, std::uint64_t status,
                    std::uint64_t ctrl_bits);
    /** Completion bookkeeping after a started ring transfer ends. */
    void ringTransferDone(unsigned ctx);
    /// @}

    /// @name IOMMU scatter-gather path (docs/IOMMU.md).
    /// @{
    /** Consume one virtually-addressed descriptor (IOMMU mode). */
    bool ringConsumeIommu(unsigned ctx, unsigned slot, Addr src,
                          Addr dst, Addr size, Pid doorbell_pid);
    /** Translate + issue per-page segments from byte @p done on.
     *  @return false when the descriptor parked on a fault (drain
     *  must stop). */
    bool ringIssueSegments(unsigned ctx, unsigned slot, Addr src,
                           Addr dst, Addr size, Addr done, Pid pid);
    /** Segment-completion callback; retires the slot when last. */
    void ringSegmentDone(unsigned ctx, unsigned slot);
    /** Retire the slot if no segments remain in flight. */
    void maybeFinishSgSlot(unsigned ctx, unsigned slot);
    /** Defer the kernel fault fix-up call past the current access. */
    void scheduleIommuFaultFixup(unsigned ctx);
    /** Abort the parked descriptor (fix-up failed / no handler). */
    void abortParked(unsigned ctx);
    /** Resume the parked descriptor after a successful fix-up. */
    void iommuResume(unsigned ctx);
    /// @}

    /** Start (or reject) a kernel-channel transfer. */
    void kernelStart();

    /** Reset the repeated-passing FSM. */
    void fsmReset();

    std::string name_;
    DmaEngineParams params_;
    TransferBackend &backend_;
    EventQueue &eq_;
    TransferEngine xfer_;

    /// Kernel-channel completion interrupt (see the setter).
    std::function<void()> kernelCompletionHandler_;

    /// Local DRAM for descriptor fetch / completion-record writes.
    PhysicalMemory *localMemory_ = nullptr;

    /// Per-context descriptor rings, parallel to contexts_.
    std::vector<RingContext> rings_;

    /// Ring-management staging registers (kernel block).
    std::uint64_t ringCtxSelect_ = 0;
    Addr ringBaseStage_ = 0;
    Addr ringCplStage_ = 0;

    /// Address-translation unit (nullptr unless params_.iommu.enabled).
    std::unique_ptr<Iommu> iommu_;
    /// IOMMU-management staging registers (kernel block).
    std::uint64_t iommuCtxSelect_ = 0;
    Addr iommuIovaStage_ = 0;
    /// Status of the last IOMMU management op, readable at iommuStatus.
    std::uint64_t iommuLastStatus_ = 0;
    /// Kernel translation-fault fix-up hook (see the setter).
    std::function<std::uint64_t(unsigned, Addr, bool)> iommuFaultHandler_;

    /// Capability table + arbiter (nullptr unless params_.cap.enabled).
    std::unique_ptr<CapTable> cap_;
    std::unique_ptr<CapArbiter> capArbiter_;
    /// Capability-management staging registers (kernel block).
    std::uint64_t capSlotSelect_ = 0;
    Addr capSpanBaseStage_ = 0;
    /// Status of the last capability management op (kregs::capStatus).
    std::uint64_t capLastStatus_ = 0;

    /** Per-slot presentation latch: the argument stores accumulate
     *  here until the capword store commits; loads at cappage::word
     *  read back the slot's last initiation status. */
    struct CapPresentation
    {
        Addr src = 0;
        Addr dst = 0;
        Addr size = 0;
        std::uint64_t status = dmastatus::ok;
        std::vector<Pid> contributors;
    };
    std::vector<CapPresentation> capPres_;

    /// The one arbiter-dispatched transfer in flight (slot + handle).
    unsigned capActiveSlot_ = 0;
    Addr capActiveSize_ = 0;
    TransferId capActiveXfer_ = invalidTransfer;
    bool capActiveCancelled_ = false;

    /// Extra device cycles charged to the access that caused a ring
    /// drain (descriptor fetch + control writeback per slot).
    Cycles pendingExtraCycles_ = 0;

    /// Kernel channel registers (figure 1).
    Tick kStartDelay_ = 0;
    Addr kSrc_ = 0;
    Addr kDst_ = 0;
    Addr kSize_ = 0;
    bool kFailed_ = false;
    TransferId kTransfer_ = invalidTransfer;

    /// FLASH hook state: the OS-announced current process tag.
    std::uint64_t osTag_ = 0;

    /// ShadowPair latches, one per CONTEXT_ID value (1 when no bits).
    std::vector<PairLatch> pairLatch_;

    /// Key-based register contexts.
    std::vector<RegisterContext> contexts_;

    /// Key-management staging register.
    std::uint64_t keyCtxSelect_ = 0;

    /// Mapped-out staging + table (SHRIMP-1): local pfn -> target paddr.
    std::uint64_t mapOutPfn_ = 0;
    std::unordered_map<Addr, Addr> mapOutTable_;

    /// Repeated-passing FSM.
    unsigned fsmStep_ = 0;
    Addr fsmStoreAddr_ = 0;    ///< destination (address of the STOREs)
    Addr fsmLoadAddr_ = 0;     ///< source (address of the LOADs)
    Addr fsmSize_ = 0;
    /** CONTEXT_ID the in-progress sequence arrived through: an access
     *  through a different shadow context resets the recognizer even
     *  when its stripped target address happens to match (§3.3 applied
     *  to §3.2's extended windows). */
    unsigned fsmCtx_ = 0;
    std::vector<Pid> fsmContributors_;
    span::SpanId fsmSpan_ = span::invalidSpan;

    std::vector<InitiationRecord> initiations_;

    stats::Group statsGroup_;
    stats::Scalar shadowStores_;
    stats::Scalar shadowLoads_;
    stats::Scalar started_;
    stats::Scalar rejected_;
    stats::Scalar keyMismatch_;
    stats::Scalar fsmResets_;
    stats::Scalar crossPageRejects_;
    stats::Scalar kernelStarts_;
    stats::Scalar ringDoorbells_;
    stats::Scalar ringDescriptors_;
    stats::Scalar ringRejects_;
    stats::Scalar ringFences_;
    /// Always 0 (polling is the only ring completion policy); it stays
    /// registered because the stats schema and its goldens list it.
    stats::Scalar ringInterrupts_;
    stats::Histogram ringOccupancy_;
    stats::Average doorbellToRetireUs_;
    /// IOMMU-path counters (registered only when iommu.enabled, so the
    /// stats document is unchanged for non-IOMMU configurations).
    stats::Scalar iommuSegments_;
    stats::Scalar iommuTransFaults_;
    stats::Scalar iommuTraps_;
    stats::Scalar iommuResumes_;
    stats::Scalar iommuAborts_;
    stats::Scalar iommuBypasses_;
    /// Capability-path counters (registered only when cap.enabled, so
    /// the stats document is unchanged for non-cap configurations).
    stats::Scalar capPresentations_;
    stats::Scalar capRejects_;
    stats::Scalar capStarts_;
    stats::Scalar capCancels_;
};

} // namespace uldma

#endif // ULDMA_DMA_DMA_ENGINE_HH
