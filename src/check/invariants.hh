/**
 * @file
 * The protection-invariant catalog of the model checker.
 *
 * Every explored schedule is audited against the paper's safety
 * claims, expressed as predicates over what one run actually did (the
 * engine's initiation records plus the kernel's grant ledger).  See
 * docs/CHECKING.md for the invariant catalog in prose.
 */

#ifndef ULDMA_CHECK_INVARIANTS_HH
#define ULDMA_CHECK_INVARIANTS_HH

#include <map>
#include <string>
#include <vector>

#include "dma/dma_engine.hh"
#include "os/kernel.hh"

namespace uldma::check {

/** One invariant violation found by the audit. */
struct Violation
{
    std::string invariant;   ///< catalog name, e.g. "initiation-atomicity"
    std::string detail;      ///< deterministic human-readable evidence

    bool
    operator==(const Violation &o) const
    {
        return invariant == o.invariant && detail == o.detail;
    }
};

/** A transfer some process legitimately asked for. */
struct AllowedTransfer
{
    Pid pid;
    Addr src;
    Addr dst;
    Addr size;
};

/** One physical range a process has rights to. */
struct FrameSpan
{
    Addr base;
    Addr bytes;
    bool read;
    bool write;
};

/**
 * Everything the invariant checker needs to audit one run.
 * grantArtifacts() fills the grants from the kernel's ledger and the
 * initiations from the engine's records, neither of which any protocol
 * decision reads; the caller adds the run's own facts (allowed, the
 * victim fields, machineFinished).
 */
struct RunArtifacts
{
    /// Every DMA the engine started, in order.
    std::vector<DmaEngine::InitiationRecord> initiations;

    /// Transfers that were legitimately requested by some process.
    std::vector<AllowedTransfer> allowed;

    /// Physical frames each process has mapped, with rights (a remote
    /// window at its bus address).
    std::map<Pid, std::vector<FrameSpan>> frames;

    /// Granted context id -> owning process (key or shadow contexts).
    std::map<unsigned, Pid> ctxOwner;

    /// Ring context id -> physical frame runs the kernel authorized
    /// for ring DMA (Kernel::authorizeRingDma).
    std::map<unsigned, std::vector<FrameSpan>> ringFrames;

    /// Ring descriptors carry virtual addresses translated through the
    /// engine's IOMMU (docs/IOMMU.md); audit with "iommu-isolation".
    bool iommuEnabled = false;

    /// IOMMU context id -> physical frame spans mapped into that
    /// context's I/O page table (Kernel::iommuMapRange), page granular.
    std::map<unsigned, std::vector<FrameSpan>> iommuFrames;

    /// Capability-gated initiation was enabled (docs/CAPABILITIES.md);
    /// audit viaCap records with the cap-* invariants below.
    bool capEnabled = false;

    /// Capability slot -> the process the kernel granted it to.
    std::map<unsigned, Pid> capSlotOwner;

    /// Capability slot -> processes holding a currently-valid (not
    /// revoked) delegation of that slot.
    std::map<unsigned, std::vector<Pid>> capDelegates;

    /// Slots whose capability was revoked: ex-delegates keep their
    /// stale capwords, which must fail closed.
    std::vector<unsigned> capRevoked;

    /// Capability slot -> physical frame spans the kernel granted it,
    /// with the slot's rights.
    std::map<unsigned, std::vector<FrameSpan>> capSpans;

    Pid victimPid = 1;
    bool machineFinished = false;
    bool victimFinished = false;
    std::uint64_t victimStatus = 0;
    /// The victim's destination buffer holds the full source pattern.
    bool payloadDelivered = false;
};

/**
 * Audit one run.  Returns every violated invariant (empty = clean):
 *
 *  - "initiation-atomicity": a transfer started with argument
 *    contributions from more than one process (paper §2.1);
 *  - "protection": a transfer touches physical memory outside the
 *    initiating process's mapped frames;
 *  - "intent-match": a transfer started that no process asked for
 *    (wrong source, destination or size);
 *  - "key-secrecy": a transfer went through a granted context on
 *    behalf of a process that does not own it (paper §3.1/§3.2);
 *  - "status-honesty": the victim saw a success status although its
 *    transfer never started or the payload never arrived;
 *  - "ring-isolation": a descriptor-ring transfer touched physical
 *    memory outside the frames the kernel authorized for that ring's
 *    context, or went through a ring whose context the enqueuing
 *    process does not own (docs/RING.md) — a process must never
 *    enqueue into, arm, or observe completions from another context's
 *    ring;
 *  - "iommu-isolation": with the IOMMU enabled, a ring transfer's
 *    physical endpoints lie outside the frames mapped into its
 *    context's I/O page table (docs/IOMMU.md) — a translation fault
 *    must abort or trap, never let the device touch unmapped memory;
 *  - "cap-forgery": a capability-gated transfer was started by a
 *    process that is neither the slot's owner nor a currently-valid
 *    delegate — a presentation whose capword the kernel never issued
 *    to that process went through (docs/CAPABILITIES.md);
 *  - "cap-revocation": a transfer went through a revoked capability
 *    slot on behalf of an ex-delegate — the stale capword must fail
 *    closed from the instant of the generation bump;
 *  - "cap-isolation": a capability-gated transfer's endpoints lie
 *    outside the frame spans the kernel granted to its slot;
 *  - "no-progress": the machine failed to run every process to
 *    completion.
 */
std::vector<Violation> checkInvariants(const RunArtifacts &a);

/**
 * The artifacts of one node's run: @p kernel's grant ledger
 * (Kernel::grants()) turned into frames, context owners, ring and
 * IOMMU frames and capability owners, spans, delegates and
 * revocations, plus @p engine's initiations, iommuEnabled and
 * capEnabled.  A revocation drops the slot's delegates.  Panics,
 * naming the id, when one context id (key context or CONTEXT_ID) or
 * capability slot was granted to two processes: ctxOwner and
 * capSlotOwner hold one owner each.
 */
RunArtifacts grantArtifacts(const Kernel &kernel, const DmaEngine &engine);

} // namespace uldma::check

#endif // ULDMA_CHECK_INVARIANTS_HH
