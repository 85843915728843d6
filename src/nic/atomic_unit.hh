/**
 * @file
 * User-level atomic operations on the NI (paper §3.5): atomic_add,
 * fetch_and_store, and compare_and_swap on (possibly remote) memory,
 * initiated from user space with the same shadow-addressing machinery
 * as user-level DMA — "a similar problem... albeit somewhat simpler,
 * since only one physical address is needed."
 *
 * Encoding of the atomic shadow window:
 *
 *   atomicShadow(op, ctx, paddr) =
 *       atomicShadowBase + (op << (shadowCoverageShift + ctxIdBits))
 *                        + (ctx << shadowCoverageShift) + paddr
 *
 * Protocol (two accesses; CAS uses three since it carries two data
 * arguments):
 *
 *   STORE operand  TO   atomicShadow(op, vaddr)      // arm
 *  [STORE operand2 TO   atomicShadow(op, vaddr)]     // CAS only
 *   LOAD  result   FROM atomicShadow(op, vaddr)      // execute
 *
 * The unit keeps one latch per CONTEXT_ID value; the LOAD must match
 * the latched (op, target) or the operation is refused — the same
 * extended-shadow-addressing idea as user-level DMA (paper §3.2).
 * A kernel register block provides the kernel-initiated baseline.
 */

#ifndef ULDMA_NIC_ATOMIC_UNIT_HH
#define ULDMA_NIC_ATOMIC_UNIT_HH

#include <string>
#include <vector>

#include "mem/bus.hh"
#include "nic/network_interface.hh"
#include "sim/clocked.hh"
#include "sim/stats.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"
#include "vm/layout.hh"

namespace uldma {

/** Atomic operation selector (atomicOpBits in the window encoding). */
enum class AtomicOp : std::uint8_t
{
    Add = 0,           ///< old = [a]; [a] = old + operand
    FetchStore = 1,    ///< old = [a]; [a] = operand
    CompareSwap = 2,   ///< old = [a]; if (old == op1) [a] = op2
};

/** Bits of the atomic shadow address that select the operation. */
inline constexpr unsigned atomicOpBits = 3;

const char *toString(AtomicOp op);

/** Offsets in the atomic unit's kernel register block. */
namespace akregs {
inline constexpr Addr address = 0x00;
inline constexpr Addr operand1 = 0x08;
inline constexpr Addr operand2 = 0x10;
inline constexpr Addr opcodeExec = 0x18;   ///< write opcode = execute
inline constexpr Addr result = 0x20;
/** Key management for the key-based adaptation (paper §3.1 + §3.5). */
inline constexpr Addr keyCtxSelect = 0x28;
inline constexpr Addr keyValue = 0x30;
inline constexpr Addr ctxReset = 0x38;
inline constexpr Addr blockSize = 0x100;
static_assert(blockSize <= pageSize);
} // namespace akregs

/** Offsets within an atomic register-context page (key-based mode). */
namespace actxpage {
inline constexpr Addr operand1 = 0x00;
inline constexpr Addr operand2 = 0x08;
/** Any load executes the armed operation and returns the old value. */
} // namespace actxpage

/** Configuration of the atomic unit. */
struct AtomicUnitParams
{
    unsigned ctxIdBits = 0;

    Addr
    windowSize() const
    {
        return shadowCoverage << (ctxIdBits + atomicOpBits);
    }

    /** Encode an atomic shadow physical address.  A context id that
     *  does not fit ctxIdBits would alias another context's (or
     *  operation's) window, so it is refused. */
    Addr
    shadowAddr(AtomicOp op, Addr paddr, unsigned ctx = 0) const
    {
        ULDMA_ASSERT(ctx < (1u << ctxIdBits),
                     "atomic context id ", ctx, " does not fit ",
                     ctxIdBits, " CONTEXT_ID bit(s)");
        return atomicShadowBase +
               (Addr(static_cast<unsigned>(op))
                << (shadowCoverageShift + ctxIdBits)) +
               (Addr(ctx) << shadowCoverageShift) + paddr;
    }

    void
    decodeShadow(Addr shadow_paddr, AtomicOp &op, unsigned &ctx,
                 Addr &paddr) const
    {
        const Addr offset = shadow_paddr - atomicShadowBase;
        paddr = offset & (shadowCoverage - 1);
        ctx = static_cast<unsigned>((offset >> shadowCoverageShift) &
                                    mask(ctxIdBits));
        op = static_cast<AtomicOp>(
            (offset >> (shadowCoverageShift + ctxIdBits)) &
            mask(atomicOpBits));
    }
};

/**
 * The atomic-operation engine on the NI.
 */
class AtomicUnit : public BusDevice
{
  public:
    /**
     * Key-based register contexts (figure 3 applied to §3.5): a shadow
     * store carries key#context_id instead of the operand; operands
     * travel through the process's atomic register-context page, and
     * a load from that page executes the operation.  Both modes can
     * coexist: a store whose payload matches a programmed key#ctx arms
     * the context; otherwise the plain latch protocol applies.
     */
    static constexpr unsigned numContexts = 4;

    AtomicUnit(std::string name, const AtomicUnitParams &params,
               const ClockDomain &bus_clock, NetworkInterface &nic);

    const AtomicUnitParams &params() const { return params_; }

    /// @name BusDevice interface.
    /// @{
    const std::string &deviceName() const override { return name_; }
    std::vector<AddrRange> deviceRanges() const override;
    Tick access(Packet &pkt) override;
    /// @}

    /// @name Security oracle (tests only).
    /// @{
    struct AtomicRecord
    {
        AtomicOp op;
        Addr target;
        std::uint64_t operand1;
        std::uint64_t operand2;
        std::uint64_t result;
        bool viaKernel;
        std::vector<Pid> contributors;
    };

    const std::vector<AtomicRecord> &operations() const { return ops_; }
    /// @}

    /** Physical address of atomic register-context page @p ctx. */
    Addr contextPageAddr(unsigned ctx) const;

    /** Key programmed into context @p ctx (tests only). */
    std::uint64_t contextKey(unsigned ctx) const;

    stats::Group &statsGroup() { return statsGroup_; }
    void registerStats(stats::Registry &r) { r.add(&statsGroup_); }
    std::uint64_t numExecuted() const { return executed_.value(); }
    std::uint64_t numRefused() const { return refused_.value(); }

  private:
    struct Latch
    {
        bool valid = false;
        AtomicOp op = AtomicOp::Add;
        Addr target = 0;
        std::uint64_t operand1 = 0;
        std::uint64_t operand2 = 0;
        unsigned operandCount = 0;
        std::vector<Pid> contributors;
    };

    /** One key-based atomic register context. */
    struct KeyContext
    {
        std::uint64_t key = 0;
        bool keyValid = false;
        bool armed = false;
        AtomicOp op = AtomicOp::Add;
        Addr target = 0;
        std::uint64_t operand1 = 0;
        std::uint64_t operand2 = 0;
        std::vector<Pid> contributors;

        void
        reset()
        {
            armed = false;
            contributors.clear();
        }
    };

    void accessKernelRegs(Packet &pkt, Addr offset);
    void accessShadow(Packet &pkt);
    void accessContextPage(Packet &pkt, unsigned ctx, Addr offset);

    /** Perform the op on (possibly remote) memory; returns old value. */
    std::uint64_t perform(AtomicOp op, Addr target, std::uint64_t op1,
                          std::uint64_t op2, bool &ok,
                          Tick &extra_latency);

    std::string name_;
    AtomicUnitParams params_;
    ClockDomain busClock_;
    NetworkInterface &nic_;

    std::vector<Latch> latches_;
    std::vector<KeyContext> contexts_;
    std::uint64_t keyCtxSelect_ = 0;

    /// Extra latency accumulated during the current access (remote
    /// round trips), folded into the returned device latency.
    Tick pendingExtraLatency_ = 0;

    /// Kernel baseline registers.
    Addr kAddr_ = 0;
    std::uint64_t kOp1_ = 0;
    std::uint64_t kOp2_ = 0;
    std::uint64_t kResult_ = 0;

    std::vector<AtomicRecord> ops_;

    stats::Group statsGroup_;
    stats::Scalar executed_;
    stats::Scalar refused_;
};

} // namespace uldma

#endif // ULDMA_NIC_ATOMIC_UNIT_HH
