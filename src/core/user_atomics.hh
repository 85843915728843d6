/**
 * @file
 * User-level atomic operations (paper §3.5) as program-emission
 * helpers, plus the kernel-mediated baseline.  The user-level variants
 * use the atomic shadow window (see nic/atomic_unit.hh); results land
 * in reg::v0 (the *old* value of the target, ~0 on refusal).
 */

#ifndef ULDMA_CORE_USER_ATOMICS_HH
#define ULDMA_CORE_USER_ATOMICS_HH

#include "cpu/program.hh"
#include "nic/atomic_unit.hh"
#include "os/kernel.hh"

namespace uldma {

/**
 * atomic_add: [target] += operand.  Two uncached accesses plus a
 * barrier (the repeat-load hazard of footnote 6 applies to back-to-back
 * atomics on the same target).
 */
void emitAtomicAdd(Program &program, Kernel &kernel, Process &process,
                   Addr vaddr, std::uint64_t operand);

/** fetch_and_store: old = [target]; [target] = operand. */
void emitFetchAndStore(Program &program, Kernel &kernel, Process &process,
                       Addr vaddr, std::uint64_t operand);

/**
 * compare_and_swap: if ([target] == expected) [target] = newval.
 * Three accesses (two data arguments) plus barriers.
 */
void emitCompareAndSwap(Program &program, Kernel &kernel, Process &process,
                        Addr vaddr, std::uint64_t expected,
                        std::uint64_t newval);

/** Kernel-mediated baseline: one syscall per operation. */
void emitKernelAtomic(Program &program, AtomicOp op, Addr vaddr,
                      std::uint64_t operand1, std::uint64_t operand2 = 0);

/**
 * @name Key-based adaptation (figure 3 applied to §3.5).
 * The process must hold a key context (kernel.grantKeyContext) and
 * atomic shadow mappings for the target's page.  Sequence: a keyed
 * shadow store arms (op, target) in the process's register context,
 * operand stores go to the atomic context page, and a load from that
 * page executes the operation (old value in reg::v0).
 * @{
 */
void emitKeyedAtomicAdd(Program &program, Kernel &kernel,
                        Process &process, Addr vaddr,
                        std::uint64_t operand);
void emitKeyedFetchAndStore(Program &program, Kernel &kernel,
                            Process &process, Addr vaddr,
                            std::uint64_t operand);
void emitKeyedCompareAndSwap(Program &program, Kernel &kernel,
                             Process &process, Addr vaddr,
                             std::uint64_t expected,
                             std::uint64_t newval);
/** @} */

} // namespace uldma

#endif // ULDMA_CORE_USER_ATOMICS_HH
