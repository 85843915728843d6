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

/* Numbers 4 and up are unassigned: a process gives up the CPU with the
 * Yield micro-op, polls the kernel channel with dmaPoll and a ring's
 * completion records in its own memory (docs/RING.md), and the IOMMU
 * and capability grants are setup-time kernel calls made from host
 * code (docs/IOMMU.md, docs/CAPABILITIES.md).  An unassigned number
 * returns ~0, warns and costs only the trap. */

} // namespace uldma::sys

#endif // ULDMA_OS_SYSCALLS_HH
