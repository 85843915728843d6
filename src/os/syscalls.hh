/**
 * @file
 * System-call numbers and ABI of the simulated UNIX-like kernel.
 *
 * Arguments travel in registers a0..a3; the result comes back in v0.
 * Only the *runtime* services are syscalls; setup services (process
 * creation, memory allocation, shadow-mapping creation, key issue) are
 * "boot/mmap-time" kernel facilities invoked from host code, because
 * the paper's protocols pay them once at initialization, outside the
 * measured path.
 */

#ifndef ULDMA_OS_SYSCALLS_HH
#define ULDMA_OS_SYSCALLS_HH

#include <cstdint>

namespace uldma::sys {

/** Empty syscall: measures bare trap overhead (lmbench-style [10]). */
inline constexpr std::uint64_t noop = 0;

/**
 * Kernel-level DMA (paper §2.2, figure 1):
 *   a0 = vsource, a1 = vdestination, a2 = size.
 * Returns 0 on success, ~0 on failure.
 */
inline constexpr std::uint64_t dma = 1;

/** Poll the kernel DMA channel: returns remaining bytes (~0 failed). */
inline constexpr std::uint64_t dmaPoll = 2;

/**
 * Kernel-level atomic operation (baseline for paper §3.5):
 *   a0 = vaddr, a1 = opcode (AtomicOp), a2 = operand1, a3 = operand2.
 * Returns the old value.
 */
inline constexpr std::uint64_t atomic = 3;

/** Voluntary reschedule request (same as the Yield micro-op). */
inline constexpr std::uint64_t yield = 4;

/**
 * Block until the kernel DMA channel's current transfer completes
 * (interrupt-driven: the process sleeps, the engine's completion
 * interrupt wakes it).  Returns immediately if nothing is in flight.
 */
inline constexpr std::uint64_t dmaWait = 5;

/* Number 6 is unassigned: a ring's completions are polled from user
 * space (docs/RING.md), so no syscall waits on them. */

/*
 * Syscalls 7-12 check their argument registers whole, before narrowing
 * any of them.  A range [a0, a0+a1) must be non-empty, must not wrap,
 * and must lie inside the caller's [userRegionBase, allocCursor()); a
 * slot must be below CapParams::numSlots, a rate class below
 * CapParams::rateClasses, and a pid must be a live process's pid.  A
 * refused call returns ~0 and costs only the trap.
 */

/**
 * Map [a0, a0+a1) of the caller's address space into the DMA engine's
 * I/O page table (docs/IOMMU.md) with the rights of the user mapping.
 * Under PinPolicy::OnMap the pages are pinned too; pin-budget
 * exhaustion fails the call.  Returns 0 on success, ~0 on failure.
 */
inline constexpr std::uint64_t iommuMap = 7;

/** Remove [a0, a0+a1) from the caller's I/O page table (and drop the
 *  pins).  Returns 0 on success, ~0 on failure. */
inline constexpr std::uint64_t iommuUnmap = 8;

/** Pin already-iommu-mapped [a0, a0+a1) for device access.  Returns 0
 *  on success, ~0 when a page is unmapped or the budget is full. */
inline constexpr std::uint64_t iommuPin = 9;

/**
 * Grant a DMA capability over [a0, a0+a1) of the caller's address
 * space with QoS rate class a2 (docs/CAPABILITIES.md).  Returns the
 * slot index, or ~0 when no slot is free / the engine has no
 * capability table / an argument is bad.  The capword goes to the
 * caller's DmaGrant::capWords, not to a register.
 */
inline constexpr std::uint64_t capGrant = 10;

/** Delegate the caller's capability slot a0 to process a1: the target
 *  gets the presentation page and the current capword.  Returns 0 on
 *  success, ~0 on failure. */
inline constexpr std::uint64_t capDelegate = 11;

/**
 * Revoke the caller's capability slot a0: the engine bumps the slot
 * generation (every outstanding capword — including delegated copies —
 * goes stale and fails closed, even mid-transfer) and the kernel
 * re-arms the slot with a fresh secret for the owner.  Returns 0 on
 * success, ~0 on failure.
 */
inline constexpr std::uint64_t capRevoke = 12;

} // namespace uldma::sys

#endif // ULDMA_OS_SYSCALLS_HH
