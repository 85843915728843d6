#include "cpu/program.hh"

#include "util/logging.hh"
#include "util/strutil.hh"

namespace uldma {

int
Program::push(MicroOp op)
{
    ops_.push_back(op);
    return static_cast<int>(ops_.size()) - 1;
}

const Program::Hook &
Program::hook(const MicroOp &op) const
{
    ULDMA_ASSERT(op.kind == OpKind::Callback, "hook of a non-callback op");
    return hooks_.at(static_cast<std::size_t>(op.target));
}

int
Program::load(int dst_reg, Addr vaddr, unsigned size)
{
    MicroOp op;
    op.kind = OpKind::Load;
    op.dstReg = dst_reg;
    op.vaddr = vaddr;
    op.size = size;
    return push(op);
}

int
Program::loadIndirect(int dst_reg, int addr_reg, Addr offset, unsigned size)
{
    MicroOp op;
    op.kind = OpKind::Load;
    op.dstReg = dst_reg;
    op.addrReg = addr_reg;
    op.vaddr = offset;
    op.size = size;
    return push(op);
}

int
Program::store(Addr vaddr, std::uint64_t value, unsigned size)
{
    MicroOp op;
    op.kind = OpKind::Store;
    op.vaddr = vaddr;
    op.imm = value;
    op.size = size;
    return push(op);
}

int
Program::storeReg(Addr vaddr, int src_reg, unsigned size)
{
    MicroOp op;
    op.kind = OpKind::Store;
    op.vaddr = vaddr;
    op.srcReg = src_reg;
    op.size = size;
    return push(op);
}

int
Program::storeIndirectReg(int addr_reg, Addr offset, int src_reg,
                          unsigned size)
{
    MicroOp op;
    op.kind = OpKind::Store;
    op.addrReg = addr_reg;
    op.vaddr = offset;
    op.srcReg = src_reg;
    op.size = size;
    return push(op);
}

int
Program::atomicRmw(int dst_reg, Addr vaddr, std::uint64_t value,
                   unsigned size)
{
    MicroOp op;
    op.kind = OpKind::AtomicRmw;
    op.dstReg = dst_reg;
    op.vaddr = vaddr;
    op.imm = value;
    op.size = size;
    return push(op);
}

int
Program::membar()
{
    MicroOp op;
    op.kind = OpKind::Membar;
    return push(op);
}

int
Program::move(int dst_reg, std::uint64_t value)
{
    MicroOp op;
    op.kind = OpKind::Move;
    op.dstReg = dst_reg;
    op.imm = value;
    return push(op);
}

int
Program::addImm(int dst_reg, int src_reg, std::uint64_t value)
{
    MicroOp op;
    op.kind = OpKind::AddImm;
    op.dstReg = dst_reg;
    op.srcReg = src_reg;
    op.imm = value;
    return push(op);
}

int
Program::compute(std::uint64_t cycles)
{
    MicroOp op;
    op.kind = OpKind::Compute;
    op.imm = cycles;
    return push(op);
}

int
Program::branchEq(int src_reg, std::uint64_t value, int target)
{
    MicroOp op;
    op.kind = OpKind::BranchEq;
    op.srcReg = src_reg;
    op.imm = value;
    op.target = target;
    const int index = push(op);
    markPollHead(index);
    return index;
}

int
Program::branchNe(int src_reg, std::uint64_t value, int target)
{
    MicroOp op;
    op.kind = OpKind::BranchNe;
    op.srcReg = src_reg;
    op.imm = value;
    op.target = target;
    const int index = push(op);
    markPollHead(index);
    return index;
}

int
Program::jump(int target)
{
    MicroOp op;
    op.kind = OpKind::Jump;
    op.target = target;
    return push(op);
}

int
Program::syscall(std::uint64_t number)
{
    MicroOp op;
    op.kind = OpKind::Syscall;
    op.imm = number;
    return push(op);
}

int
Program::callPal(std::uint64_t pal_index)
{
    MicroOp op;
    op.kind = OpKind::CallPal;
    op.imm = pal_index;
    return push(op);
}

int
Program::callback(Hook hook, std::uint64_t cycles)
{
    return callbackAt(addHook(std::move(hook)), cycles);
}

int
Program::callbackAt(int hook_index, std::uint64_t cycles)
{
    ULDMA_ASSERT(hook_index >= 0 &&
                     static_cast<std::size_t>(hook_index) < hooks_.size(),
                 "callbackAt: no such hook");
    MicroOp op;
    op.kind = OpKind::Callback;
    op.target = hook_index;
    op.imm = cycles;
    return push(op);
}

int
Program::addHook(Hook hook)
{
    hooks_.push_back(std::move(hook));
    return static_cast<int>(hooks_.size()) - 1;
}

int
Program::yield()
{
    MicroOp op;
    op.kind = OpKind::Yield;
    return push(op);
}

int
Program::exit()
{
    MicroOp op;
    op.kind = OpKind::Exit;
    return push(op);
}

void
Program::setTarget(int op_index, int target)
{
    MicroOp &op = ops_.at(op_index);
    ULDMA_ASSERT(op.kind == OpKind::BranchEq || op.kind == OpKind::BranchNe ||
                 op.kind == OpKind::Jump,
                 "setTarget on a non-branch op");
    op.target = target;
    markPollHead(op_index);
}

void
Program::markPollHead(int branch)
{
    const MicroOp &br = ops_.at(branch);
    const int head = br.target;
    if ((br.kind != OpKind::BranchEq && br.kind != OpKind::BranchNe) ||
        head < 0 || head != branch - 3) {
        return;
    }
    MicroOp &load = ops_[head];
    if (load.kind == OpKind::Load && load.addrReg < 0 &&
        load.dstReg == br.srcReg &&
        ops_[head + 1].kind == OpKind::Membar &&
        ops_[head + 2].kind == OpKind::Compute) {
        load.pollHead = true;
    }
}

Program &
Program::withLabel(Literal label)
{
    ULDMA_ASSERT(!ops_.empty(), "withLabel on empty program");
    ops_.back().label = label.text();
    return *this;
}

void
Program::append(const Program &other)
{
    // Sizes first: other may be *this.
    const int op_base = here();
    const int hook_base = static_cast<int>(hooks_.size());
    const std::size_t num_ops = other.ops_.size();
    const std::size_t num_hooks = other.hooks_.size();
    ops_.reserve(ops_.size() + num_ops);
    hooks_.reserve(hooks_.size() + num_hooks);
    for (std::size_t i = 0; i < num_ops; ++i) {
        MicroOp op = other.ops_[i];
        if (op.kind == OpKind::Callback)
            op.target += hook_base;
        else if (op.target >= 0)
            op.target += op_base;
        ops_.push_back(op);
    }
    for (std::size_t i = 0; i < num_hooks; ++i)
        hooks_.push_back(other.hooks_[i]);
}

bool
Program::refill()
{
    if (!source_)
        return false;
    ops_.clear();
    if (source_(*this))
        return true;
    source_ = nullptr;
    return false;
}

namespace {

/** Render a memory operand: [0xADDR] or [rN + 0xOFF]. */
std::string
memOperand(const MicroOp &op)
{
    if (op.addrReg >= 0) {
        return csprintf("[r%d + 0x%llx]", op.addrReg,
                        static_cast<unsigned long long>(op.vaddr));
    }
    return csprintf("[0x%llx]",
                    static_cast<unsigned long long>(op.vaddr));
}

/** Render a data operand: rN or an immediate. */
std::string
dataOperand(const MicroOp &op)
{
    if (op.srcReg >= 0)
        return csprintf("r%d", op.srcReg);
    return csprintf("0x%llx", static_cast<unsigned long long>(op.imm));
}

} // namespace

std::string
Program::disassemble() const
{
    std::string out;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
        const MicroOp &op = ops_[i];
        std::string body;
        switch (op.kind) {
          case OpKind::Load:
            body = csprintf("r%d <- %s (%u)", op.dstReg,
                            memOperand(op).c_str(), op.size);
            break;
          case OpKind::Store:
            body = csprintf("%s <- %s (%u)", memOperand(op).c_str(),
                            dataOperand(op).c_str(), op.size);
            break;
          case OpKind::AtomicRmw:
            body = csprintf("r%d <- xchg %s, %s", op.dstReg,
                            memOperand(op).c_str(),
                            dataOperand(op).c_str());
            break;
          case OpKind::Move:
            body = csprintf("r%d <- 0x%llx", op.dstReg,
                            static_cast<unsigned long long>(op.imm));
            break;
          case OpKind::AddImm:
            body = csprintf("r%d <- r%d + 0x%llx", op.dstReg, op.srcReg,
                            static_cast<unsigned long long>(op.imm));
            break;
          case OpKind::Compute:
            body = csprintf("%llu cycles",
                            static_cast<unsigned long long>(op.imm));
            break;
          case OpKind::BranchEq:
          case OpKind::BranchNe:
            body = csprintf("r%d, 0x%llx -> %d", op.srcReg,
                            static_cast<unsigned long long>(op.imm),
                            op.target);
            break;
          case OpKind::Jump:
            body = csprintf("-> %d", op.target);
            break;
          case OpKind::Syscall:
          case OpKind::CallPal:
            body = csprintf("#%llu",
                            static_cast<unsigned long long>(op.imm));
            break;
          default:
            break;
        }
        out += csprintf("%3zu: %-9s %s", i, toString(op.kind),
                        body.c_str());
        if (op.label != nullptr && *op.label != '\0')
            out += csprintf("   ; %s", op.label);
        out += "\n";
    }
    return out;
}

const char *
toString(OpKind kind)
{
    switch (kind) {
      case OpKind::Load: return "load";
      case OpKind::Store: return "store";
      case OpKind::AtomicRmw: return "atomic_rmw";
      case OpKind::Membar: return "membar";
      case OpKind::Move: return "move";
      case OpKind::AddImm: return "addimm";
      case OpKind::Compute: return "compute";
      case OpKind::BranchEq: return "beq";
      case OpKind::BranchNe: return "bne";
      case OpKind::Jump: return "jump";
      case OpKind::Syscall: return "syscall";
      case OpKind::CallPal: return "call_pal";
      case OpKind::Callback: return "callback";
      case OpKind::Yield: return "yield";
      case OpKind::Exit: return "exit";
    }
    return "?";
}

} // namespace uldma
