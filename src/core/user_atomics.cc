#include "core/user_atomics.hh"

#include "util/logging.hh"

namespace uldma {

void
emitAtomicAdd(Program &program, Kernel &kernel, Process &process,
              Addr vaddr, std::uint64_t operand)
{
    const Addr shadow =
        kernel.atomicShadowVaddrFor(process, vaddr, AtomicOp::Add);
    program.store(shadow, operand);
    program.withLabel("arm atomic_add");
    program.load(reg::v0, shadow);
    program.withLabel("exec atomic_add");
    program.membar();
}

void
emitFetchAndStore(Program &program, Kernel &kernel, Process &process,
                  Addr vaddr, std::uint64_t operand)
{
    const Addr shadow =
        kernel.atomicShadowVaddrFor(process, vaddr, AtomicOp::FetchStore);
    program.store(shadow, operand);
    program.withLabel("arm fetch_and_store");
    program.load(reg::v0, shadow);
    program.withLabel("exec fetch_and_store");
    program.membar();
}

void
emitCompareAndSwap(Program &program, Kernel &kernel, Process &process,
                   Addr vaddr, std::uint64_t expected, std::uint64_t newval)
{
    const Addr shadow =
        kernel.atomicShadowVaddrFor(process, vaddr, AtomicOp::CompareSwap);
    program.store(shadow, expected);
    program.withLabel("arm cas: expected");
    // The two data arguments go to the same shadow address; without a
    // barrier the write buffer would collapse them (footnote 6).
    program.membar();
    program.store(shadow, newval);
    program.withLabel("arm cas: new value");
    program.load(reg::v0, shadow);
    program.withLabel("exec cas");
    program.membar();
}

void
emitKernelAtomic(Program &program, AtomicOp op, Addr vaddr,
                 std::uint64_t operand1, std::uint64_t operand2)
{
    program.move(reg::a0, vaddr);
    program.move(reg::a1, static_cast<std::uint64_t>(op));
    program.move(reg::a2, operand1);
    program.move(reg::a3, operand2);
    program.syscall(sys::atomic);
    program.withLabel("kernel atomic");
}

namespace {

/** Common arming sequence of the keyed adaptation. */
void
emitKeyedArm(Program &program, Kernel &kernel, Process &process,
             Addr vaddr, AtomicOp op)
{
    const auto &grant = process.dmaGrant();
    ULDMA_ASSERT(grant.keyContext.has_value(),
                 "keyed atomic without a granted context");
    ULDMA_ASSERT(grant.atomicContextPageVaddr != 0,
                 "keyed atomic without an atomic context page");
    const Addr shadow = kernel.atomicShadowVaddrFor(process, vaddr, op);
    program.store(shadow, keyfield::pack(grant.key, *grant.keyContext));
    program.withLabel("arm keyed atomic (key#ctx)");
}

} // namespace

void
emitKeyedAtomicAdd(Program &program, Kernel &kernel, Process &process,
                   Addr vaddr, std::uint64_t operand)
{
    emitKeyedArm(program, kernel, process, vaddr, AtomicOp::Add);
    const Addr page = process.dmaGrant().atomicContextPageVaddr;
    program.store(page + actxpage::operand1, operand);
    program.load(reg::v0, page);
    program.membar();
}

void
emitKeyedFetchAndStore(Program &program, Kernel &kernel,
                       Process &process, Addr vaddr,
                       std::uint64_t operand)
{
    emitKeyedArm(program, kernel, process, vaddr, AtomicOp::FetchStore);
    const Addr page = process.dmaGrant().atomicContextPageVaddr;
    program.store(page + actxpage::operand1, operand);
    program.load(reg::v0, page);
    program.membar();
}

void
emitKeyedCompareAndSwap(Program &program, Kernel &kernel,
                        Process &process, Addr vaddr,
                        std::uint64_t expected, std::uint64_t newval)
{
    emitKeyedArm(program, kernel, process, vaddr, AtomicOp::CompareSwap);
    const Addr page = process.dmaGrant().atomicContextPageVaddr;
    program.store(page + actxpage::operand1, expected);
    program.store(page + actxpage::operand2, newval);
    program.load(reg::v0, page);
    program.membar();
}

} // namespace uldma
