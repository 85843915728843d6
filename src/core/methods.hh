/**
 * @file
 * The paper's DMA-initiation methods as a uniform API.
 *
 * Each method knows: how the engine must be configured, which kernel
 * modifications (if any) it needs, what per-process resources the
 * kernel grants at setup time, and the exact micro-op sequence a user
 * process issues to start DMA(vsrc, vdst, size).
 *
 * | method     | paper | user-level | kernel mod | instructions        |
 * |------------|-------|------------|------------|---------------------|
 * | Kernel     | §2.2  | no         | n/a        | syscall (thousands) |
 * | Shrimp1    | §2.4  | yes        | no¹        | 1 (cmp&exchange)    |
 * | Shrimp2    | §2.5  | yes        | YES        | 2                   |
 * | Flash      | §2.6  | yes        | YES        | 2                   |
 * | PalCode    | §2.7  | yes        | no         | call_pal (+3 moves) |
 * | KeyBased   | §3.1  | yes        | no         | 4                   |
 * | ExtShadow  | §3.2  | yes        | no         | 2                   |
 * | Repeated3  | §3.3  | yes        | no (UNSAFE)| 3 (+membar)         |
 * | Repeated4  | §3.3  | yes        | no (UNSAFE)| 4 (+membar)         |
 * | Repeated5  | §3.3  | yes        | no         | 5 (+membars)        |
 * | Ring       | RING.md | yes      | no         | 7/transfer, amortized|
 * | Cap        | CAPABILITIES.md | yes | no      | 5 (4 stores + load) |
 *
 * ¹ Shrimp1 needs no context-switch hook but restricts each source
 *   page to a single pre-arranged destination.
 */

#ifndef ULDMA_CORE_METHODS_HH
#define ULDMA_CORE_METHODS_HH

#include <string>
#include <vector>

#include "core/machine.hh"
#include "cpu/program.hh"
#include "os/kernel.hh"

namespace uldma {

/** Every initiation method the paper discusses. */
enum class DmaMethod : std::uint8_t
{
    Kernel,
    Shrimp1,
    Shrimp2,
    Flash,
    PalCode,
    KeyBased,
    ExtShadow,
    Repeated3,
    Repeated4,
    Repeated5,
    /** Descriptor-ring batched initiation with async completions
     *  (docs/RING.md) — an extension beyond the paper, built on the
     *  key-based engine mode.  Deliberately NOT in allMethods[]: the
     *  paper-order sweeps stay paper-only. */
    Ring,
    /** Capability-gated initiation with multi-tenant QoS arbitration
     *  (docs/CAPABILITIES.md) — a fifth protocol family beyond the
     *  paper.  Like Ring, NOT in allMethods[]. */
    Cap,
};

/** All methods, in paper order (for sweeps). */
inline constexpr DmaMethod allMethods[] = {
    DmaMethod::Kernel,    DmaMethod::Shrimp1,   DmaMethod::Shrimp2,
    DmaMethod::Flash,     DmaMethod::PalCode,   DmaMethod::KeyBased,
    DmaMethod::ExtShadow, DmaMethod::Repeated3, DmaMethod::Repeated4,
    DmaMethod::Repeated5,
};

/** The four rows of the paper's Table 1. */
inline constexpr DmaMethod table1Methods[] = {
    DmaMethod::Kernel,
    DmaMethod::ExtShadow,
    DmaMethod::Repeated5,
    DmaMethod::KeyBased,
};

const char *toString(DmaMethod method);

/** True for every method except the traditional kernel path. */
bool isUserLevel(DmaMethod method);

/** True for the SHRIMP-2 and FLASH baselines only. */
bool requiresKernelModification(DmaMethod method);

/** Engine protocol mode this method runs against. */
EngineMode engineModeFor(DmaMethod method);

/** PAL function index used by the PalCode method. */
inline constexpr std::uint64_t palDmaIndex = 7;

/**
 * Fill in the engine/kernel parts of a NodeConfig for @p method
 * (engine mode, CONTEXT_ID bits, FLASH tag checking).
 */
void configureNode(NodeConfig &config, DmaMethod method);

/**
 * Machine-level setup after construction: install the baselines'
 * context-switch hooks and the PAL function.  Must be called once
 * per machine before launching processes.
 */
void prepareMachine(Machine &machine, DmaMethod method);

/**
 * Per-node variant of prepareMachine for heterogeneous machines (e.g.
 * workload scenarios whose nodes run different protocols): installs
 * @p method's hooks / PAL function on node @p node only.  Idempotent —
 * calling it twice for the same (node, method) is safe.
 */
void prepareNode(Machine &machine, NodeId node, DmaMethod method);

/**
 * Span/report protocol name for @p method: "kernel" for the kernel
 * path, otherwise the engine-mode name the span tracker records
 * (several methods share an engine mode — e.g. PAL and extended shadow
 * both run against "shadow-pair").
 */
const char *spanProtocolFor(DmaMethod method);

/** Descriptor slots of a ring that prepareProcess sets up unless the
 *  caller asks for another depth. */
inline constexpr unsigned defaultRingSlots = 16;

/**
 * Per-process setup: grant the register context / CONTEXT_ID the
 * method needs.  A Ring process without a ring gets one of
 * @p ring_slots descriptors (Kernel::setupRing).
 * @return false if the engine's contexts are exhausted and this
 *         process must fall back to kernel DMA (paper §3.2).
 */
bool prepareProcess(Kernel &kernel, Process &process, DmaMethod method,
                    unsigned ring_slots = defaultRingSlots);

/**
 * Append the initiation sequence for DMA(vsrc, vdst, size) to
 * @p program.  Buffers must already be mapped and shadow-mapped
 * (kernel.createShadowMappings) and prepareProcess must have
 * succeeded.  The initiation status lands in reg::v0
 * (dmastatus::failure on failure).
 *
 * For Shrimp1 the destination is implied by the mapped-out table
 * (kernel.setupMapOut); @p vdst is ignored.
 */
void emitInitiation(Program &program, Kernel &kernel, Process &process,
                    DmaMethod method, Addr vsrc, Addr vdst, Addr size);

/** One transfer of a descriptor-ring batch (docs/RING.md). */
struct RingTransfer
{
    Addr vsrc = 0;
    Addr vdst = 0;
    Addr size = 0;
};

/**
 * Append a descriptor-ring batch to @p program: enqueue every transfer
 * in @p batch (control word written last per descriptor), ring the
 * doorbell once per chunk of at most ringSlots descriptors, and poll
 * each chunk's last completion record until it turns nonzero.  The
 * last completion record value lands in reg::v0 (dmastatus::failure
 * on a rejected descriptor).  Requires Kernel::setupRing and
 * authorizeRingDma over every buffer the batch touches.
 */
void emitRingBatch(Program &program, Kernel &kernel, Process &process,
                   const std::vector<RingTransfer> &batch);

/**
 * Append one raw capability presentation (docs/CAPABILITIES.md) to
 * @p program: three argument stores, the committing capword store, and
 * the status load (lands in reg::v0; dmastatus::failure = rejected,
 * dmastatus::pending = queued at the arbiter).  Takes the presentation
 * page's virtual address, the capword, and *physical* endpoints — the
 * engine checks them against the slot's frame spans.  Tests and the
 * model checker use this directly to present forged or stale words;
 * emitInitiation(DmaMethod::Cap) wraps it with the process's own
 * grant.
 */
void emitCapPresentationRaw(Program &program, Addr page_vaddr,
                            std::uint64_t capword, Addr src_paddr,
                            Addr dst_paddr, Addr size);

/**
 * Number of user-mode instructions emitInitiation produces, excluding
 * memory barriers and the moves that stage immediates (reported
 * separately by bench_instr_counts).
 */
unsigned initiationAccessCount(DmaMethod method);

/**
 * Convenience facade: one process using one method on one node.
 */
class DmaSession
{
  public:
    /** Prepares @p process for @p method (grants resources).  A Ring
     *  session's ring has @p ring_slots descriptors; a Cap session's
     *  capability runs at weighted-round-robin @p rate_class
     *  (docs/CAPABILITIES.md). */
    DmaSession(Machine &machine, NodeId node, Process &process,
               DmaMethod method, unsigned ring_slots = defaultRingSlots,
               unsigned rate_class = 0);

    /** False once the kernel refused a grant: no context was free, or
     *  a capability slot or span was refused in mapForDma. */
    bool ready() const { return ready_; }
    DmaMethod method() const { return method_; }
    Process &process() { return process_; }
    Kernel &kernel() { return kernel_; }

    /** Allocate a buffer and create its shadow mappings. */
    Addr allocBuffer(Addr bytes, Rights rights = Rights::ReadWrite);

    /** Shadow-map an existing buffer (e.g. a shared mapping or a
     *  remote window) and grant the method's DMA rights over it. */
    void mapForDma(Addr vaddr, Addr bytes);

    /** SHRIMP-1 (§2.4): make the destination page at each of the
     *  first @p pages page offsets from @p vdst the mapped-out target
     *  of the source page at the same offset from @p vsrc.  Does
     *  nothing for any other method. */
    void pairMappedOut(Addr vsrc, Addr vdst, unsigned pages);

    /** Append one DMA initiation to @p program. */
    void
    emitDma(Program &program, Addr vsrc, Addr vdst, Addr size)
    {
        emitInitiation(program, kernel_, process_, method_, vsrc, vdst,
                       size);
    }

  private:
    Kernel &kernel_;
    Process &process_;
    DmaMethod method_;
    unsigned rateClass_;
    bool ready_ = false;
};

} // namespace uldma

#endif // ULDMA_CORE_METHODS_HH
