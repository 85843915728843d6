#include "nic/atomic_unit.hh"

#include "dma/dma_params.hh"
#include "util/logging.hh"

namespace uldma {

const char *
toString(AtomicOp op)
{
    switch (op) {
      case AtomicOp::Add: return "atomic_add";
      case AtomicOp::FetchStore: return "fetch_and_store";
      case AtomicOp::CompareSwap: return "compare_and_swap";
    }
    return "?";
}

AtomicUnit::AtomicUnit(std::string name, const AtomicUnitParams &params,
                       const ClockDomain &bus_clock, NetworkInterface &nic)
    : name_(std::move(name)), params_(params), busClock_(bus_clock),
      nic_(nic), statsGroup_(name_)
{
    latches_.resize(std::size_t(1) << params_.ctxIdBits);
    contexts_.resize(numContexts);
    statsGroup_.addScalar("executed", &executed_,
                          "atomic operations performed");
    statsGroup_.addScalar("refused", &refused_,
                          "atomic requests refused (mismatch/invalid)");
}

Addr
AtomicUnit::contextPageAddr(unsigned ctx) const
{
    ULDMA_ASSERT(ctx < numContexts,
                 "atomic context id out of range");
    return atomicContextPagesBase + Addr(ctx) * pageSize;
}

std::uint64_t
AtomicUnit::contextKey(unsigned ctx) const
{
    ULDMA_ASSERT(ctx < numContexts,
                 "atomic context id out of range");
    return contexts_[ctx].key;
}

std::vector<AddrRange>
AtomicUnit::deviceRanges() const
{
    return {
        AddrRange(atomicKernelRegsBase,
                  atomicKernelRegsBase + akregs::blockSize),
        AddrRange(atomicContextPagesBase,
                  atomicContextPagesBase +
                      Addr(numContexts) * pageSize),
        AddrRange(atomicShadowBase,
                  atomicShadowBase + params_.windowSize()),
    };
}

Tick
AtomicUnit::access(Packet &pkt)
{
    Tick latency = busClock_.cyclesToTicks(niAccessCycles);

    if (pkt.paddr >= atomicKernelRegsBase &&
        pkt.paddr < atomicKernelRegsBase + akregs::blockSize) {
        accessKernelRegs(pkt, pkt.paddr - atomicKernelRegsBase);
        return latency;
    }

    if (pkt.paddr >= atomicContextPagesBase &&
        pkt.paddr <
            atomicContextPagesBase + Addr(numContexts) * pageSize) {
        const Addr offset = pkt.paddr - atomicContextPagesBase;
        accessContextPage(pkt, static_cast<unsigned>(offset / pageSize),
                          offset % pageSize);
        latency += pendingExtraLatency_;
        pendingExtraLatency_ = 0;
        return latency;
    }

    // Shadow window: the extra network latency of a remote target is
    // charged through the packet's device latency.
    accessShadow(pkt);
    latency += pendingExtraLatency_;
    pendingExtraLatency_ = 0;
    return latency;
}

void
AtomicUnit::accessKernelRegs(Packet &pkt, Addr offset)
{
    if (pkt.isWrite()) {
        switch (offset) {
          case akregs::address:
            kAddr_ = pkt.data;
            break;
          case akregs::operand1:
            kOp1_ = pkt.data;
            break;
          case akregs::operand2:
            kOp2_ = pkt.data;
            break;
          case akregs::opcodeExec: {
            bool ok = false;
            Tick extra = 0;
            const auto op = static_cast<AtomicOp>(pkt.data & mask(3));
            kResult_ = perform(op, kAddr_, kOp1_, kOp2_, ok, extra);
            pendingExtraLatency_ += extra;
            if (ok) {
                ops_.push_back(AtomicRecord{op, kAddr_, kOp1_, kOp2_,
                                            kResult_, /*viaKernel=*/true,
                                            {}});
            }
            break;
          }
          case akregs::keyCtxSelect:
            keyCtxSelect_ = pkt.data;
            break;
          case akregs::keyValue:
            if (keyCtxSelect_ < contexts_.size()) {
                contexts_[keyCtxSelect_].key = pkt.data;
                contexts_[keyCtxSelect_].keyValid = true;
            }
            break;
          case akregs::ctxReset:
            if (pkt.data < contexts_.size()) {
                contexts_[pkt.data].reset();
                contexts_[pkt.data].keyValid = false;
            }
            break;
          default:
            ULDMA_WARN(name_, ": write to unknown atomic register 0x",
                       std::hex, offset);
        }
        return;
    }

    switch (offset) {
      case akregs::result:
        pkt.data = kResult_;
        break;
      default:
        pkt.data = 0;
    }
}

void
AtomicUnit::accessShadow(Packet &pkt)
{
    AtomicOp op = AtomicOp::Add;
    unsigned ctx = 0;
    Addr target = 0;
    params_.decodeShadow(pkt.paddr, op, ctx, target);

    Latch &latch = latches_.at(ctx);

    if (pkt.isWrite()) {
        // Key-based adaptation: a payload matching a programmed
        // key#context_id arms that register context (figure 3 applied
        // to §3.5) — the operands follow through the context page.
        const unsigned key_ctx = keyfield::ctxOf(pkt.data);
        if (key_ctx < contexts_.size() && contexts_[key_ctx].keyValid &&
            keyfield::keyOf(pkt.data) == contexts_[key_ctx].key) {
            KeyContext &kc = contexts_[key_ctx];
            kc.armed = true;
            kc.op = op;
            kc.target = target;
            kc.operand1 = 0;
            kc.operand2 = 0;
            kc.contributors.assign({pkt.srcPid});
            return;
        }
        if (latch.valid && latch.op == op && latch.target == target &&
            op == AtomicOp::CompareSwap && latch.operandCount == 1) {
            // Second data argument of compare_and_swap.
            latch.operand2 = pkt.data;
            latch.operandCount = 2;
            latch.contributors.push_back(pkt.srcPid);
            return;
        }
        latch.valid = true;
        latch.op = op;
        latch.target = target;
        latch.operand1 = pkt.data;
        latch.operand2 = 0;
        latch.operandCount = 1;
        latch.contributors.assign({pkt.srcPid});
        return;
    }

    // LOAD executes the armed operation.
    const unsigned needed = op == AtomicOp::CompareSwap ? 2u : 1u;
    if (!latch.valid || latch.op != op || latch.target != target ||
        latch.operandCount != needed) {
        latch.valid = false;
        ++refused_;
        pkt.data = ~std::uint64_t(0);
        return;
    }

    bool ok = false;
    Tick extra = 0;
    const std::uint64_t old = perform(op, target, latch.operand1,
                                      latch.operand2, ok, extra);
    pendingExtraLatency_ += extra;
    latch.valid = false;
    if (!ok) {
        ++refused_;
        pkt.data = ~std::uint64_t(0);
        return;
    }
    latch.contributors.push_back(pkt.srcPid);
    ops_.push_back(AtomicRecord{op, target, latch.operand1, latch.operand2,
                                old, /*viaKernel=*/false,
                                latch.contributors});
    pkt.data = old;
}

void
AtomicUnit::accessContextPage(Packet &pkt, unsigned ctx, Addr offset)
{
    KeyContext &kc = contexts_.at(ctx);

    if (pkt.isWrite()) {
        if (!kc.armed)
            return;   // nothing armed: operand writes are dropped
        if (offset == actxpage::operand2)
            kc.operand2 = pkt.data;
        else
            kc.operand1 = pkt.data;
        kc.contributors.push_back(pkt.srcPid);
        return;
    }

    // Load: execute the armed operation.
    if (!kc.armed) {
        ++refused_;
        pkt.data = ~std::uint64_t(0);
        return;
    }
    bool ok = false;
    Tick extra = 0;
    const std::uint64_t old = perform(kc.op, kc.target, kc.operand1,
                                      kc.operand2, ok, extra);
    pendingExtraLatency_ += extra;
    kc.armed = false;
    if (!ok) {
        ++refused_;
        kc.contributors.clear();
        pkt.data = ~std::uint64_t(0);
        return;
    }
    kc.contributors.push_back(pkt.srcPid);
    ops_.push_back(AtomicRecord{kc.op, kc.target, kc.operand1,
                                kc.operand2, old, /*viaKernel=*/false,
                                kc.contributors});
    kc.contributors.clear();
    pkt.data = old;
}

std::uint64_t
AtomicUnit::perform(AtomicOp op, Addr target, std::uint64_t op1,
                    std::uint64_t op2, bool &ok, Tick &extra_latency)
{
    ok = false;
    const NetworkInterface::Target t = nic_.resolve(target, 8);
    extra_latency = t.extraLatency;
    if (t.memory == nullptr)
        return ~std::uint64_t(0);

    // Through readInt/writeInt like every other DRAM write, so the
    // write marks its page and the CPU caches snoop it.
    const std::uint64_t old = t.memory->readInt(t.addr, 8);
    std::uint64_t next = old;
    switch (op) {
      case AtomicOp::Add:
        next = old + op1;
        break;
      case AtomicOp::FetchStore:
        next = op1;
        break;
      case AtomicOp::CompareSwap:
        next = op2;
        break;
      default:
        return ~std::uint64_t(0);
    }
    // A compare_and_swap that fails stores nothing, so it invalidates
    // no cached copy of the target.
    if (op != AtomicOp::CompareSwap || old == op1)
        t.memory->writeInt(t.addr, next, 8);
    ++executed_;
    ok = true;
    return old;
}

} // namespace uldma
