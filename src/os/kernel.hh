/**
 * @file
 * The simulated UNIX-like operating system kernel.
 *
 * Two faces:
 *
 *  - *Runtime* (simulated, costed): syscall dispatch (including the
 *    traditional kernel-level DMA of figure 1), fault handling, and
 *    context switching with the cost model the paper's argument rests
 *    on (empty syscalls cost thousands of cycles [10]).
 *
 *  - *Setup* (host-side, uncosted): process creation, memory
 *    allocation, shadow-mapping construction, register-context + key
 *    granting, CONTEXT_ID assignment, mapped-out page registration.
 *    These correspond to mmap/initialization-time work the paper
 *    explicitly keeps off the critical path.
 *
 * "Kernel modification" is a first-class concept: the SHRIMP-2 and
 * FLASH baselines only work if their context-switch hook is installed
 * (installShrimp2Hook / installFlashHook).  The paper's own protocols
 * never install hooks — tests assert that the hook counters stay zero.
 */

#ifndef ULDMA_OS_KERNEL_HH
#define ULDMA_OS_KERNEL_HH

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cpu/cpu.hh"
#include "dma/dma_engine.hh"
#include "nic/atomic_unit.hh"
#include "nic/network_interface.hh"
#include "os/process.hh"
#include "os/scheduler.hh"
#include "os/syscalls.hh"

namespace uldma {

/**
 * Virtual address where the kernel maps the atomic-op shadow page for
 * operation @p op and physical address @p paddr: ops are separated by
 * a generous virtual stride so a process can address every
 * (op, target) combination.
 */
constexpr Addr
atomicShadowVirtualFor(AtomicOp op, Addr paddr)
{
    return atomicVirtualBase +
           (Addr(static_cast<unsigned>(op)) << 36) + paddr;
}

/** Kernel cost model: a commercial UNIX-like OS whose costs match the
 *  empty-syscall measurements of lmbench [10] (docs/CALIBRATION.md). */
struct KernelParams
{
    /**
     * Cycles of an empty system call (entry + exit).  Commercial
     * UNIX-likes of the era measured 1,000-5,000 cycles [10]; 2,300 at
     * 150 MHz is 15.3 us, which leaves kernel DMA at 15.3 (trap) + 0.9
     * (translation + range check) + 1.9 (four uncached register
     * accesses) + instruction issue ~= the paper's 18.6 us.
     */
    Cycles syscallOverheadCycles = 2300;
};

/**
 * One grant a kernel made, recorded by the call that made it once that
 * call succeeded.  Reaping at exit records nothing, so the ledger
 * (Kernel::grants()) keeps what each process held during the run.
 */
struct Grant
{
    enum class Kind : std::uint8_t
    {
        Frames,        ///< pid may touch [base, base+bytes) with rights
        Context,       ///< pid owns key context (§3.1) or CONTEXT_ID id
        RingFrames,    ///< context id's ring may DMA [base, base+bytes)
        IommuPage,     ///< context id's I/O page table maps page base
        CapSlot,       ///< pid owns capability slot id, with rights
        CapSpan,       ///< slot id covers [base, base+bytes)
        CapDelegate,   ///< pid holds a delegation of slot id
        CapRevoke,     ///< slot id was revoked
    };

    Kind kind;
    Pid pid = invalidPid;
    unsigned id = 0;   ///< context id or capability slot
    Addr base = 0;
    Addr bytes = 0;
    Rights rights = Rights::None;
};

/**
 * The operating-system kernel of one workstation.
 */
class Kernel : public OsCallbacks
{
  public:
    Kernel(std::string name, Cpu &cpu, Scheduler &scheduler,
           const KernelParams &params);

    const std::string &name() const { return name_; }
    const KernelParams &params() const { return params_; }
    Cpu &cpu() { return cpu_; }

    /// @name Device attachment (done by machine construction).
    /// @{
    void setDmaEngine(DmaEngine *engine);
    void setAtomicUnit(AtomicUnit *unit) { atomicUnit_ = unit; }
    void setNic(NetworkInterface *nic) { nic_ = nic; }
    DmaEngine *dmaEngine() { return engine_; }
    /// @}

    /// @name Process lifecycle (setup-time).
    /// @{
    Process &createProcess(std::string process_name);
    Process &process(Pid pid);
    const std::vector<std::unique_ptr<Process>> &processes() const
    {
        return processes_;
    }

    /**
     * Install @p program and make the process runnable.  The process
     * must not be on the CPU: the CPU executes the current op in place.
     */
    void launch(Process &process, Program program);

    /**
     * One-stop process spawn: create a process named @p process_name,
     * run @p setup against it (setup-time allocations, grants, program
     * construction — all uncosted), and launch the program it returns.
     * Used by the workload driver to stamp out stream workers.
     */
    Process &spawn(const std::string &process_name,
                   const std::function<Program(Process &)> &setup);

    /** Dispatch the first process and start the CPU. */
    void scheduleFirst();

    /** True when every created process has exited or faulted. */
    bool allFinished() const;
    /// @}

    /// @name Memory services (setup-time).
    /// @{
    /**
     * Allocate @p bytes of fresh, physically contiguous memory into
     * @p process's address space. @return the virtual address.
     */
    Addr allocate(Process &process, Addr bytes, Rights rights);

    /**
     * Map the physical memory behind (@p owner, @p owner_vaddr) into
     * @p other with @p rights (shared memory, e.g. the read-only
     * public page of the figure-6 attack). @return other's vaddr.
     */
    Addr mapShared(Process &owner, Addr owner_vaddr, Addr bytes,
                   Process &other, Rights rights);

    /**
     * Map @p bytes of remote node @p node's memory at physical
     * @p remote_paddr into @p process (write-through remote window).
     * @return the virtual address.
     */
    Addr mapRemoteWindow(Process &process, NodeId node, Addr remote_paddr,
                         Addr bytes, Rights rights);

    /** Kernel's own software translation (also used by SYS_dma). */
    Translation translateFor(Process &process, Addr vaddr,
                             Rights need) const;
    /// @}

    /// @name User-level DMA setup services (paper §2.3, §3.1, §3.2).
    /// @{
    /**
     * Create shadow mappings for [vaddr, vaddr+bytes) (paper §2.3).
     * The shadow virtual address of a byte equals
     * shadowVirtualBase + its physical address, so user code can
     * compute shadow(v) after a single query.  Rights mirror the
     * user mapping.  Uses the process's CONTEXT_ID if one is granted.
     */
    void createShadowMappings(Process &process, Addr vaddr, Addr bytes);

    /** shadow(vaddr) in @p process's address space. */
    Addr shadowVaddrFor(Process &process, Addr vaddr) const;

    /** Grant a key-based register context (paper §3.1). false = none
     *  free, the process must fall back to kernel DMA; true without a
     *  second grant when @p process already holds one. */
    bool grantKeyContext(Process &process);

    /** Release a previously granted key context. */
    void revokeKeyContext(Process &process);

    /** Grant an extended-shadow CONTEXT_ID (paper §3.2). false = all
     *  (1 << ctxIdBits) ids are taken; true without a second grant
     *  when @p process already holds one. */
    bool grantShadowContext(Process &process);

    /**
     * Register a mapped-out page (SHRIMP-1, paper §2.4): DMA from the
     * page behind @p vaddr always goes to physical @p target_paddr
     * (typically a remote window address).
     */
    void setupMapOut(Process &process, Addr vaddr, Addr target_paddr);

    /**
     * Create atomic-op shadow mappings for [vaddr, vaddr+bytes) and
     * operation @p op (paper §3.5).
     */
    void createAtomicShadowMappings(Process &process, Addr vaddr,
                                    Addr bytes, AtomicOp op);

    /** atomicShadow(op, vaddr) in @p process's address space. */
    Addr atomicShadowVaddrFor(Process &process, Addr vaddr,
                              AtomicOp op) const;

    /** Map the process's granted register-context page; returns the
     *  virtual address (also recorded in the grant). */
    Addr mapContextPage(Process &process);

    /**
     * Set up a descriptor ring for @p process (docs/RING.md): grant a
     * key context if none yet, allocate user-mapped descriptor and
     * completion-record regions, and program the engine's privileged
     * ring registers.  The process learns of completions by polling
     * the completion records.  false = no register context free, fall
     * back to per-transfer DMA.
     */
    bool setupRing(Process &process, unsigned slots);

    /**
     * Authorize ring DMA to/from [vaddr, vaddr+bytes) of @p process:
     * translate page by page and program the engine's per-context
     * frame table.  Descriptors naming physical addresses outside the
     * authorized frames are rejected by the engine.
     */
    void authorizeRingDma(Process &process, Addr vaddr, Addr bytes);

    /// @name IOMMU services (docs/IOMMU.md; engine must have an IOMMU).
    /// @{
    /**
     * Map [vaddr, vaddr+bytes) of @p process into its I/O page table,
     * page by page, mirroring the rights of the user mapping; @p pin
     * requests map-time pins.  Programmed through the engine's
     * privileged kregs::iommu* registers.  @return false if any page
     * was unmapped in the process or a requested pin failed
     * (pin-budget exhaustion) — already-mapped pages stay mapped.
     */
    bool iommuMapRange(Process &process, Addr vaddr, Addr bytes,
                       bool pin);

    /** Remove [vaddr, vaddr+bytes) from @p process's I/O page table
     *  (stale IOTLB entries die via the generation tag). */
    void iommuUnmapRange(Process &process, Addr vaddr, Addr bytes);

    /** Pin already-iommu-mapped [vaddr, vaddr+bytes).  @return false
     *  when a page is unmapped or the pin budget is full. */
    bool iommuPinRange(Process &process, Addr vaddr, Addr bytes);
    /// @}

    /// @name Capability services (docs/CAPABILITIES.md; engine must
    /// have a capability table).
    /// @{
    /**
     * Grant @p process a DMA capability over [vaddr, vaddr+bytes) with
     * QoS class @p rate_class: claim a free slot, program its frame
     * spans (one per physically contiguous run), arm it with a fresh
     * secret, and map the slot's presentation page.  The issued
     * capword lands in the process's DmaGrant.
     * @return the slot index, or -1 when no slot/spans are available.
     */
    int capGrant(Process &process, Addr vaddr, Addr bytes,
                 unsigned rate_class);

    /**
     * Widen @p owner's capability @p slot to also cover
     * [vaddr, vaddr+bytes): program additional frame spans (bounded by
     * CapParams::maxSpansPerSlot).  The capword is unchanged — spans
     * are slot state, not handle state.
     */
    bool capExtend(Process &owner, unsigned slot, Addr vaddr, Addr bytes);

    /**
     * Delegate @p owner's capability @p slot to @p target: map the
     * presentation page into the target and hand over the current
     * capword.  Pure kernel bookkeeping — the engine's table is
     * untouched, which is what makes revocation a generation bump.
     */
    bool capDelegate(Process &owner, unsigned slot, Process &target);

    /**
     * Revoke @p owner's capability @p slot: the engine bumps the
     * generation (outstanding capwords — delegated copies included —
     * fail closed, even mid-transfer) and the slot is re-armed with a
     * fresh secret for the owner alone.
     */
    bool capRevoke(Process &owner, unsigned slot);
    /// @}
    /// @}

    /** Every grant this kernel made, in order.  Only the invariant
     *  audit reads it (check::grantArtifacts). */
    const std::vector<Grant> &grants() const { return grants_; }

    /**
     * Observe every context switch (model checker / tests): invoked
     * after the scheduling decision with the outgoing process (may be
     * nullptr or finished) and the incoming one (nullptr = idle).
     * Pure observation — installing one does not count as a kernel
     * modification in the paper's sense.
     */
    void
    setContextSwitchObserver(
        std::function<void(Tick, Process *previous, Process *next)> obs)
    {
        switchObserver_ = std::move(obs);
    }

    /// @name Kernel modifications (the baselines' requirement).
    /// @{
    /** SHRIMP-2: invalidate half-initiated user DMA on every switch. */
    void installShrimp2Hook() { shrimp2Hook_ = true; }
    /** FLASH: tell the engine who runs on every switch. */
    void installFlashHook() { flashHook_ = true; }
    bool kernelModified() const { return shrimp2Hook_ || flashHook_; }
    std::uint64_t hookInvocations() const { return hookRuns_.value(); }
    /// @}

    /// @name OsCallbacks (CPU upcalls).
    /// @{
    SyscallResult syscall(ExecContext &ctx, std::uint64_t number) override;
    Tick handleFault(ExecContext &ctx, Fault fault, Addr vaddr) override;
    Tick quantumExpired() override;
    Tick yielded() override;
    Tick exited() override;
    /// @}

    /// @name Stats.
    /// @{
    stats::Group &statsGroup() { return statsGroup_; }
    void registerStats(stats::Registry &r) { r.add(&statsGroup_); }
    std::uint64_t numContextSwitches() const { return switches_.value(); }
    std::uint64_t numSyscalls() const { return syscalls_.value(); }
    std::uint64_t numFaultedProcesses() const { return faults_.value(); }
    /// @}

    /** Frames at the bottom of memory kept for the kernel itself;
     *  allocFrames never hands them out. */
    static constexpr Addr reservedFrames = 16;

    /// @name Cost model beyond the trap (docs/CALIBRATION.md).
    /// @{
    /** Cycles to switch contexts (register save/restore, runqueue). */
    static constexpr Cycles contextSwitchCycles = 1200;
    /** Cycles for one software virtual_to_physical translation. */
    static constexpr Cycles translateCycles = 60;
    /** Cycles per additional page of check_size() range checking. */
    static constexpr Cycles perPageCheckCycles = 12;
    /** Cycles to take and triage a memory fault. */
    static constexpr Cycles faultHandlingCycles = 500;
    /// @}

    /** Allocate @p npages fresh physical frames. @return base paddr. */
    Addr allocFrames(Addr npages);

  private:
    /** Pick and dispatch the next process. @return switch cost. */
    Tick doContextSwitch();

    /** Return an exiting process's DMA grants to the free pools. */
    Tick reapGrants(Process &process);

    /// @name Privileged register access.
    /// One uncached kernel bus access each, to a kregs:: register of
    /// the DMA engine or an akregs:: register of the atomic unit.
    /// Writes return the bus cost; reads add it to @p cost if given.
    /// @{
    Tick kregWrite(Addr reg, std::uint64_t value);
    std::uint64_t kregRead(Addr reg, Tick *cost = nullptr);
    Tick akregWrite(Addr reg, std::uint64_t value);
    std::uint64_t akregRead(Addr reg, Tick *cost = nullptr);
    /// @}

    /** Assert that an IOMMU range call from @p caller is well formed
     *  and select @p process's register context for it. */
    void iommuSelect(Process &process, Addr bytes, const char *caller);

    /** Add frame span [base, limit) to the selected capability slot.
     *  @return false past CapParams::maxSpansPerSlot. */
    bool capAddSpan(Addr base, Addr limit);

    /// @name Syscall handlers; syscall() adds the trap overhead.
    /// @{
    SyscallResult sysDma(ExecContext &ctx);
    SyscallResult sysAtomic(ExecContext &ctx);
    /// @}

    Tick cyclesToTicks(Cycles c) const { return cpu_.cyclesToTicks(c); }

    std::string name_;
    Cpu &cpu_;
    Scheduler &scheduler_;
    KernelParams params_;

    DmaEngine *engine_ = nullptr;
    AtomicUnit *atomicUnit_ = nullptr;
    NetworkInterface *nic_ = nullptr;

    std::vector<std::unique_ptr<Process>> processes_;
    Process *current_ = nullptr;
    Pid nextPid_ = 1;

    /// Context-switch observer (see the setter).
    std::function<void(Tick, Process *, Process *)> switchObserver_;
    Addr nextFreeFrame_ = reservedFrames;

    bool shrimp2Hook_ = false;
    bool flashHook_ = false;

    /** Register-context occupancy (key-based protocol). */
    std::vector<Pid> keyContextOwner_;
    /** CONTEXT_ID occupancy (extended shadow addressing). */
    std::vector<Pid> shadowContextOwner_;
    /** Capability-slot occupancy (owner pid; delegates never own). */
    std::vector<Pid> capSlotOwner_;

    /** The grant ledger (see grants()). */
    std::vector<Grant> grants_;

    Random keyRng_;

    stats::Group statsGroup_;
    stats::Scalar switches_;
    stats::Scalar syscalls_;
    stats::Scalar faults_;
    stats::Scalar hookRuns_;
    stats::Scalar dmaInterrupts_;
    stats::Scalar iommuMaps_;
    stats::Scalar capGrants_;
    stats::Scalar capDelegations_;
    stats::Scalar capRevocations_;
};

} // namespace uldma

#endif // ULDMA_OS_KERNEL_HH
