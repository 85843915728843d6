#include "cpu/cpu.hh"

#include <algorithm>

#include "sim/trace.hh"
#include "util/logging.hh"

namespace uldma {

Cpu::Cpu(EventQueue &eq, std::string name, const CpuParams &params,
         Bus &bus, PhysicalMemory &memory, NodeId node)
    : Clocked(eq, ClockDomain::fromMHz(name + ".clk", params.clockMHz)),
      name_(std::move(name)), params_(params), bus_(bus), memory_(memory),
      node_(node),
      mergeBuffer_(name_ + ".wb", bus, params.mergeBuffer),
      tlb_(name_ + ".tlb", params.tlb),
      tickEvent_(*this),
      statsGroup_(name_)
{
    if (params_.dcache.enabled) {
        dcache_ = std::make_unique<Dcache>(name_ + ".dcache",
                                           params_.dcache, memory_);
    }
    statsGroup_.addScalar("instructions", &instrs_,
                          "micro-ops retired");
    statsGroup_.addScalar("loads", &loads_, "load micro-ops");
    statsGroup_.addScalar("stores", &stores_, "store micro-ops");
    statsGroup_.addScalar("uncached_loads", &uncachedLoads_,
                          "loads that reached the I/O bus path");
    statsGroup_.addScalar("uncached_stores", &uncachedStores_,
                          "stores that entered the write buffer");
    statsGroup_.addScalar("membars", &membars_, "memory barriers");
    statsGroup_.addScalar("syscalls", &syscalls_, "syscall traps");
    statsGroup_.addScalar("pal_calls", &palCalls_, "PAL calls executed");
    statsGroup_.addScalar("faults", &faults_, "memory faults taken");
}

void
Cpu::registerPal(std::uint64_t index, Program program)
{
    ULDMA_ASSERT(program.size() <= palMaxInstructions,
                 "PAL function ", index, " has ", program.size(),
                 " micro-ops; the limit is ", palMaxInstructions);
    for (std::size_t i = 0; i < program.size(); ++i) {
        const OpKind kind = program.at(i).kind;
        ULDMA_ASSERT(kind != OpKind::Syscall && kind != OpKind::CallPal &&
                     kind != OpKind::Yield && kind != OpKind::Exit,
                     "PAL function ", index,
                     " contains a trapping micro-op");
    }
    palTable_[index] = std::move(program);
}

void
Cpu::setCurrentContext(ExecContext *ctx)
{
    current_ = ctx;
    if (ctx != nullptr)
        ctx->setState(RunState::Running);
}

void
Cpu::setInstructionQuantum(std::uint64_t instructions)
{
    sliceLimited_ = instructions != 0;
    sliceInstrLeft_ = instructions;
}

void
Cpu::start()
{
    if (!tickEvent_.scheduled() && current_ != nullptr)
        eventq().schedule(&tickEvent_, clockEdge());
}

void
Cpu::stop()
{
    if (tickEvent_.scheduled())
        eventq().deschedule(&tickEvent_);
}

Tick
Cpu::kernelBusAccess(Packet &pkt)
{
    pkt.uncacheable = true;
    pkt.srcNode = node_;
    return bus_.access(pkt);
}

void
Cpu::tick()
{
    PollTracker poll;
    // current_ == nullptr: idled; the kernel restarts us.
    while (current_ != nullptr) {
        ExecContext &ctx = *current_;
        if (!ctx.atEnd() && ctx.currentOp().pollHead)
            pollHead(ctx, poll);
        Tick cost = executeOne(ctx);
        // Past a block's last op, its source emits the next one: host
        // work, no simulated cost.  That block's status polls sit at
        // the pcs this one's did, so poll recognition starts afresh.
        if (ctx.atEnd() && ctx.refill())
            poll = PollTracker{};

        // Quantum accounting happens at instruction boundaries only —
        // exactly where the paper's context-switch races live.
        if (current_ != nullptr && os_ != nullptr) {
            bool expire = false;
            if (sliceLimited_ && current_ == &ctx) {
                ULDMA_ASSERT(sliceInstrLeft_ > 0, "slice underflow");
                if (--sliceInstrLeft_ == 0)
                    expire = true;
            }
            if (!expire && now() + cost >= quantumDeadline_ &&
                quantumDeadline_ != maxTick) {
                expire = true;
            }
            if (expire) {
                cost += os_->quantumExpired();
                // The kernel ran; whatever iteration this ended is not
                // one a skip may repeat.
                poll = PollTracker{};
            }
        }

        if (current_ == nullptr || tickEvent_.scheduled())
            return;
        // Run the next op here when nothing else can come first; the
        // queue would fire this tick event next anyway.
        const Tick next = now() + (cost > 0 ? cost : clockPeriod());
        if (!eventq().advanceInline(next)) {
            eventq().schedule(&tickEvent_, next);
            return;
        }
    }
}

namespace {

template <std::size_t N>
std::array<std::uint64_t, N>
minus(const std::array<std::uint64_t, N> &a,
      const std::array<std::uint64_t, N> &b)
{
    std::array<std::uint64_t, N> d;
    for (std::size_t i = 0; i < N; ++i)
        d[i] = a[i] - b[i];
    return d;
}

} // namespace

Cpu::PollMark
Cpu::PollMark::since(const PollMark &earlier) const
{
    PollMark d;
    d.when = when - earlier.when;
    d.events = events - earlier.events;
    d.retired = retired - earlier.retired;
    d.cpu = minus(cpu, earlier.cpu);
    d.tlb = minus(tlb, earlier.tlb);
    d.wb = minus(wb, earlier.wb);
    d.bus = minus(bus, earlier.bus);
    d.busLatency = busLatency;
    return d;
}

std::array<stats::Scalar *, 9>
Cpu::ownCounters()
{
    return {&instrs_, &loads_, &stores_, &uncachedLoads_,
            &uncachedStores_, &membars_, &syscalls_, &palCalls_,
            &faults_};
}

Cpu::PollMark
Cpu::pollMark(const ExecContext &ctx)
{
    PollMark m;
    m.when = now();
    m.events = eventq().numProcessed();
    m.retired = ctx.instructionsRetired();
    const auto own = ownCounters();
    for (std::size_t i = 0; i < own.size(); ++i)
        m.cpu[i] = own[i]->value();
    m.tlb = tlb_.counters();
    m.wb = mergeBuffer_.counters();
    m.bus = bus_.counters();
    m.busLatency = bus_.lastLatency();
    return m;
}

bool
Cpu::pollLoadIsPure(ExecContext &ctx, const MicroOp &load) const
{
    // The page table, not the TLB: same answer (the TLB revalidates
    // against the table's generation), no stat moved.
    const Translation x = ctx.pageTable().translate(load.vaddr,
                                                    Rights::Read);
    if (!x.ok())
        return false;
    if (!x.uncacheable)
        return dcache_ == nullptr;
    const BusDevice *device = bus_.deviceAt(x.paddr);
    return device != nullptr && device->sideEffectFreeRead(x.paddr);
}

void
Cpu::pollHead(ExecContext &ctx, PollTracker &poll)
{
    // A skipped bus read would have recorded a trace event, and a
    // dcache access moves cache state.
    if (dcache_ != nullptr || trace::eventCaptureOn())
        return;
    const PollMark mark = pollMark(ctx);
    if (poll.ctx != &ctx || poll.pc != ctx.pc()) {
        poll = PollTracker{&ctx, ctx.pc(), false, mark, PollMark{}};
        return;
    }
    const PollMark step = mark.since(poll.at);
    const bool steady = poll.haveStep && step == poll.step;
    poll.at = mark;
    poll.step = step;
    poll.haveStep = true;
    // Two identical iterations are enough: the bus aligns each access
    // to its next clock edge, so every iteration after the first
    // starts at the same bus phase and takes the same time.  At most
    // one bus transaction, so its latency is the one to replay.
    if (!steady || step.retired != pollLoopOps ||
        step.events != pollLoopOps || step.bus[0] + step.bus[1] > 1) {
        return;
    }

    // Every op of the k skipped iterations, ending at start + k * P,
    // must come before the next queue entry, within the inline
    // horizon (the run limit), before the time quantum expires, and
    // leave at least one instruction of the slice.
    const Tick start = now();
    Tick bound = std::min(eventq().inlineHorizon(),
                          eventq().nextEventTick() - 1);
    if (quantumDeadline_ != maxTick)
        bound = std::min(bound, quantumDeadline_ - 1);
    if (bound <= start)
        return;
    std::uint64_t k = (bound - start) / step.when;
    if (sliceLimited_)
        k = std::min(k, (sliceInstrLeft_ - 1) / pollLoopOps);
    if (k == 0 || !pollLoadIsPure(ctx, ctx.currentOp()))
        return;

    const auto own = ownCounters();
    for (std::size_t i = 0; i < own.size(); ++i)
        *own[i] += k * step.cpu[i];
    ctx.countRetired(k * step.retired);
    tlb_.replay(step.tlb, k);
    mergeBuffer_.replay(step.wb, k);
    bus_.replay(step.bus, step.busLatency, k);
    eventq().advanceInlineSteps(start + k * step.when, k * step.events);
    if (sliceLimited_)
        sliceInstrLeft_ -= k * pollLoopOps;
    pollSkipped_ += k;
    poll.at = pollMark(ctx);
}

Tick
Cpu::executeOne(ExecContext &ctx)
{
    if (ctx.atEnd()) {
        // Falling off the end of the program is an implicit Exit.
        ULDMA_ASSERT(os_ != nullptr, "CPU has no OS attached");
        return os_->exited();
    }

    // By reference: nothing replaces a running context's program
    // (Kernel::launch asserts it), and tick() refills it only after
    // this returns, so the op outlives its execution.
    const MicroOp &op = ctx.currentOp();
    int next_pc = ctx.pc() + 1;
    ++instrs_;
    ctx.countRetired();

    const Tick cost =
        executeOp(ctx, ctx.program(), op, /*in_pal=*/false, next_pc);

    // A fault does not advance the PC; every other op does (branches
    // set next_pc themselves).
    if (ctx.state() != RunState::Faulted)
        ctx.setPc(next_pc);
    return cost;
}

Tick
Cpu::executeOp(ExecContext &ctx, const Program &program, const MicroOp &op,
               bool in_pal, int &next_pc)
{
    Tick cost = cyclesToTicks(params_.baseInstrCycles);

    switch (op.kind) {
      case OpKind::Move:
        ctx.setReg(op.dstReg, op.imm);
        break;

      case OpKind::AddImm:
        ctx.setReg(op.dstReg, ctx.reg(op.srcReg) + op.imm);
        break;

      case OpKind::Compute:
        cost += cyclesToTicks(op.imm);
        break;

      case OpKind::Load: {
        ++loads_;
        bool faulted = false;
        cost += memoryAccess(ctx, op, /*is_load=*/true, in_pal, faulted);
        if (faulted)
            return cost;
        break;
      }

      case OpKind::Store: {
        ++stores_;
        bool faulted = false;
        cost += memoryAccess(ctx, op, /*is_load=*/false, in_pal, faulted);
        if (faulted)
            return cost;
        break;
      }

      case OpKind::AtomicRmw: {
        bool faulted = false;
        cost += atomicAccess(ctx, op, in_pal, faulted);
        if (faulted)
            return cost;
        break;
      }

      case OpKind::Membar:
        ++membars_;
        cost += cyclesToTicks(params_.membarCycles);
        cost += mergeBuffer_.membar();
        break;

      case OpKind::BranchEq:
        if (ctx.reg(op.srcReg) == op.imm)
            next_pc = op.target;
        break;

      case OpKind::BranchNe:
        if (ctx.reg(op.srcReg) != op.imm)
            next_pc = op.target;
        break;

      case OpKind::Jump:
        next_pc = op.target;
        break;

      case OpKind::Syscall: {
        ULDMA_ASSERT(!in_pal, "syscall inside PAL code");
        ULDMA_ASSERT(os_ != nullptr, "CPU has no OS attached");
        ++syscalls_;
        // The PC must already point past the trap when the kernel
        // runs, so a context switch resumes correctly.
        ctx.setPc(next_pc);
        const SyscallResult result = os_->syscall(ctx, op.imm);
        ctx.setReg(reg::v0, result.retval);
        next_pc = ctx.pc();
        cost += result.cost;
        break;
      }

      case OpKind::CallPal:
        ULDMA_ASSERT(!in_pal, "nested PAL call");
        ++palCalls_;
        cost += executePal(ctx, op.imm);
        break;

      case OpKind::Callback:
        if (const Program::Hook &hook = program.hook(op))
            hook(ctx);
        cost += cyclesToTicks(op.imm);
        break;

      case OpKind::Yield: {
        ULDMA_ASSERT(!in_pal, "yield inside PAL code");
        ULDMA_ASSERT(os_ != nullptr, "CPU has no OS attached");
        ctx.setPc(next_pc);
        cost += os_->yielded();
        next_pc = ctx.pc();
        break;
      }

      case OpKind::Exit: {
        ULDMA_ASSERT(!in_pal, "exit inside PAL code");
        ULDMA_ASSERT(os_ != nullptr, "CPU has no OS attached");
        cost += os_->exited();
        break;
      }
    }

    return cost;
}

Tick
Cpu::executePal(ExecContext &ctx, std::uint64_t index)
{
    auto it = palTable_.find(index);
    ULDMA_ASSERT(it != palTable_.end(), "PAL function ", index,
                 " not installed");
    const Program &pal = it->second;

    ULDMA_TRACE("Cpu", now(), name_, ": PAL call ", index, " by pid ",
                ctx.pid());

    // The whole PAL body runs inside this one tick event: no quantum
    // check, no interrupt — the uninterruptibility of paper §2.7.
    Tick cost = cyclesToTicks(params_.palEntryExitCycles);
    int pal_pc = 0;
    unsigned executed = 0;
    while (pal_pc >= 0 && pal_pc < static_cast<int>(pal.size())) {
        ULDMA_ASSERT(executed < 4 * palMaxInstructions,
                     "runaway PAL function ", index);
        const MicroOp &op = pal.at(static_cast<std::size_t>(pal_pc));
        int next_pc = pal_pc + 1;
        cost += executeOp(ctx, pal, op, /*in_pal=*/true, next_pc);
        ULDMA_ASSERT(ctx.state() != RunState::Faulted,
                     "memory fault inside PAL function ", index);
        pal_pc = next_pc;
        ++executed;
    }
    return cost;
}

Tick
Cpu::atomicAccess(ExecContext &ctx, const MicroOp &op, bool in_pal,
                  bool &faulted)
{
    faulted = false;
    const Addr vaddr =
        (op.addrReg >= 0 ? ctx.reg(op.addrReg) : 0) + op.vaddr;

    Cycles miss_cycles = 0;
    const Translation xlate = tlb_.translate(ctx.pageTable(), vaddr,
                                             Rights::ReadWrite,
                                             miss_cycles);
    Tick cost = cyclesToTicks(miss_cycles);

    if (!xlate.ok()) {
        ++faults_;
        faulted = true;
        ULDMA_ASSERT(!in_pal, "fault inside PAL code");
        ULDMA_ASSERT(os_ != nullptr, "CPU has no OS attached");
        ctx.recordFault(xlate.fault, vaddr);
        cost += os_->handleFault(ctx, xlate.fault, vaddr);
        return cost;
    }

    const std::uint64_t operand =
        op.srcReg >= 0 ? ctx.reg(op.srcReg) : op.imm;

    if (xlate.uncacheable) {
        Packet pkt = Packet::makeWrite(xlate.paddr, operand, op.size);
        pkt.uncacheable = true;
        pkt.rmw = true;
        pkt.srcPid = ctx.pid();
        pkt.srcNode = node_;
        cost += cyclesToTicks(params_.uncachedIssueExtraCycles);
        cost += mergeBuffer_.rmw(pkt);
        ctx.setReg(op.dstReg, pkt.data);
    } else {
        // In-memory atomic exchange (single-threaded event model makes
        // this trivially atomic).
        const std::uint64_t old = memory_.readInt(xlate.paddr, op.size);
        {
            Dcache::SelfAccess guard(dcache_.get());
            memory_.writeInt(xlate.paddr, operand, op.size);
        }
        ctx.setReg(op.dstReg, old);
        if (dcache_ != nullptr) {
            cost += cyclesToTicks(
                dcache_->access(xlate.paddr, op.size, false) +
                dcache_->access(xlate.paddr, op.size, true));
        } else {
            cost += cyclesToTicks(params_.cachedMemExtraCycles * 2);
        }
    }
    return cost;
}

Tick
Cpu::memoryAccess(ExecContext &ctx, const MicroOp &op, bool is_load,
                  bool in_pal, bool &faulted)
{
    faulted = false;
    const Addr vaddr =
        (op.addrReg >= 0 ? ctx.reg(op.addrReg) : 0) + op.vaddr;
    const Rights need = is_load ? Rights::Read : Rights::Write;

    Cycles miss_cycles = 0;
    const Translation xlate =
        tlb_.translate(ctx.pageTable(), vaddr, need, miss_cycles);
    Tick cost = cyclesToTicks(miss_cycles);

    if (!xlate.ok()) {
        ++faults_;
        faulted = true;
        if (in_pal) {
            ULDMA_PANIC("fault inside PAL code at vaddr 0x", std::hex,
                        vaddr);
        }
        ULDMA_ASSERT(os_ != nullptr, "CPU has no OS attached");
        ctx.recordFault(xlate.fault, vaddr);
        cost += os_->handleFault(ctx, xlate.fault, vaddr);
        return cost;
    }

    if (xlate.uncacheable) {
        Packet pkt = is_load
            ? Packet::makeRead(xlate.paddr, op.size)
            : Packet::makeWrite(xlate.paddr,
                                op.srcReg >= 0 ? ctx.reg(op.srcReg)
                                               : op.imm,
                                op.size);
        pkt.uncacheable = true;
        pkt.srcPid = ctx.pid();
        pkt.srcNode = node_;

        cost += cyclesToTicks(params_.uncachedIssueExtraCycles);
        if (is_load) {
            ++uncachedLoads_;
            cost += mergeBuffer_.load(pkt);
            ctx.setReg(op.dstReg, pkt.data);
        } else {
            ++uncachedStores_;
            cost += mergeBuffer_.store(pkt);
        }
    } else {
        if (dcache_ != nullptr) {
            cost += cyclesToTicks(
                dcache_->access(xlate.paddr, op.size, !is_load));
        } else {
            cost += cyclesToTicks(params_.cachedMemExtraCycles);
        }
        if (is_load) {
            ctx.setReg(op.dstReg, memory_.readInt(xlate.paddr, op.size));
        } else {
            // The CPU's own write-through store keeps its cache line
            // coherent; suppress the snoop invalidation.
            Dcache::SelfAccess guard(dcache_.get());
            memory_.writeInt(xlate.paddr,
                             op.srcReg >= 0 ? ctx.reg(op.srcReg) : op.imm,
                             op.size);
        }
    }
    return cost;
}

} // namespace uldma
