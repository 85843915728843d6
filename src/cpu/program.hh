/**
 * @file
 * The micro-op "assembly language" simulated programs are written in.
 *
 * The paper's protocols are defined as exact instruction sequences
 * (STORE size TO shadow(vdst); LOAD status FROM shadow(vsrc); ...), and
 * their security hinges on what happens when a process is preempted
 * between any two of them.  Programs here are sequences of explicit
 * micro-ops so the scheduler can preempt at every instruction boundary
 * and tests can force any interleaving the paper discusses.
 */

#ifndef ULDMA_CPU_PROGRAM_HH
#define ULDMA_CPU_PROGRAM_HH

#include <cstddef>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "util/literal.hh"
#include "util/types.hh"

namespace uldma {

class ExecContext;

/** Number of general-purpose registers per context. */
inline constexpr unsigned numRegs = 16;

/** Register-naming conventions (a small Alpha-flavoured ABI). */
namespace reg {
inline constexpr int a0 = 0;   ///< syscall/PAL argument 0
inline constexpr int a1 = 1;   ///< syscall/PAL argument 1
inline constexpr int a2 = 2;   ///< syscall/PAL argument 2
inline constexpr int a3 = 3;   ///< syscall/PAL argument 3
inline constexpr int v0 = 6;   ///< syscall/PAL return value
inline constexpr int t0 = 8;   ///< temporaries t0..t7
inline constexpr int t1 = 9;
inline constexpr int t2 = 10;
inline constexpr int t3 = 11;
} // namespace reg

/** Micro-op opcodes. */
enum class OpKind : std::uint8_t
{
    Load,      ///< reg[dst] = MEM[addr]
    Store,     ///< MEM[addr] = value
    AtomicRmw, ///< reg[dst] = exchange(MEM[addr], value); uninterruptible
    Membar,    ///< drain write buffer, invalidate read buffer
    Move,      ///< reg[dst] = imm
    AddImm,    ///< reg[dst] = reg[src] + imm
    Compute,   ///< spin for imm CPU cycles
    BranchEq,  ///< if reg[src] == imm goto target
    BranchNe,  ///< if reg[src] != imm goto target
    Jump,      ///< goto target
    Syscall,   ///< trap into the kernel; number = imm, args in a0..a3
    CallPal,   ///< run PAL function imm uninterruptibly (Alpha-style)
    Callback,  ///< host-side hook (measurement / data setup); imm cycles
    Yield,     ///< voluntarily release the CPU
    Exit,      ///< terminate the process
};

/**
 * One micro-op.  Fields are interpreted per OpKind.  Plain data: a
 * Callback's hook lives in its Program's hook table, a label is a
 * string literal, so building a program is a copy and freeing it costs
 * nothing per op.
 */
struct MicroOp
{
    /** Memory ops: immediate virtual address, or offset if addrReg>=0. */
    Addr vaddr = 0;

    /** Immediate operand (store data, move value, branch compare,
     *  compute cycles, syscall number, PAL index). */
    std::uint64_t imm = 0;

    /** Optional debug label (a string literal; see Literal). */
    const char *label = nullptr;

    /** Memory ops: if >= 0, effective address = reg[addrReg] + vaddr. */
    int addrReg = -1;
    /** If >= 0, the register supplying the operand instead of imm
     *  (store data source, AddImm source, branch compare source). */
    int srcReg = -1;

    /** Destination register (Load, Move, AddImm). */
    int dstReg = -1;

    /** Branch/Jump target (instruction index); for a Callback, the
     *  index of its hook in the program's hook table. */
    int target = -1;

    /** Access size in bytes for memory ops. */
    unsigned size = 8;

    OpKind kind = OpKind::Compute;

    /**
     * Set by Program on the Load heading a status poll: Load r from a
     * fixed address; Membar; Compute; BranchEq/BranchNe on r back to
     * the Load.  The CPU may fast-forward such a loop (Cpu::tick).
     */
    bool pollHead = false;
};

static_assert(std::is_trivially_copyable_v<MicroOp>);
static_assert(std::is_trivially_destructible_v<MicroOp>);
static_assert(sizeof(MicroOp) <= 48);

/**
 * A program: a list of micro-ops with a fluent builder interface.
 *
 * Example — the extended-shadow-addressing initiation (paper fig. 4):
 * @code
 *   Program p;
 *   p.store(shadowOf(vdst), size);        // STORE size TO shadow(vdst)
 *   p.load(reg::v0, shadowOf(vsrc));      // LOAD status FROM shadow(vsrc)
 *   p.exit();
 * @endcode
 *
 * A program may instead be emitted one block at a time: with a source
 * (setSource), the ops are the current block, and once the CPU steps
 * past its last op refill() replaces them with the next block, which
 * runs from its own op 0.  A workload worker holds one initiation
 * this way instead of its whole run.
 */
class Program
{
  public:
    /** A Callback op's host-side hook. */
    using Hook = std::function<void(ExecContext &)>;

    /**
     * Where a program's next block comes from.  Called with the ops
     * emptied and the hooks kept, it appends the next block, whose
     * branch targets count from the block's first op, and returns
     * true; or it appends nothing and returns false when no block is
     * left.
     */
    using Source = std::function<bool(Program &)>;

    Program() = default;

    /** Number of micro-ops. */
    std::size_t size() const { return ops_.size(); }
    bool empty() const { return ops_.empty(); }
    const MicroOp &at(std::size_t i) const { return ops_.at(i); }

    /** The hook of Callback op @p op of this program. */
    const Hook &hook(const MicroOp &op) const;

    /** Entries in the hook table (Callback ops may share one). */
    std::size_t numHooks() const { return hooks_.size(); }

    /** Index the next appended op will get (for branch targets). */
    int here() const { return static_cast<int>(ops_.size()); }

    /// @name Builder methods; each returns the index of the new op.
    /// @{
    int load(int dst_reg, Addr vaddr, unsigned size = 8);
    int loadIndirect(int dst_reg, int addr_reg, Addr offset = 0,
                     unsigned size = 8);
    int store(Addr vaddr, std::uint64_t value, unsigned size = 8);
    int storeReg(Addr vaddr, int src_reg, unsigned size = 8);
    int storeIndirectReg(int addr_reg, Addr offset, int src_reg,
                         unsigned size = 8);
    int atomicRmw(int dst_reg, Addr vaddr, std::uint64_t value,
                  unsigned size = 8);
    int membar();
    int move(int dst_reg, std::uint64_t value);
    int addImm(int dst_reg, int src_reg, std::uint64_t value);
    int compute(std::uint64_t cycles);
    int branchEq(int src_reg, std::uint64_t value, int target);
    int branchNe(int src_reg, std::uint64_t value, int target);
    int jump(int target);
    int syscall(std::uint64_t number);
    int callPal(std::uint64_t pal_index);
    int callback(Hook hook, std::uint64_t cycles = 0);
    /** A Callback op running hook @p hook_index (from addHook()). */
    int callbackAt(int hook_index, std::uint64_t cycles = 0);
    int yield();
    int exit();
    /// @}

    /** Add @p hook to the hook table without emitting an op, so many
     *  Callback ops can share it; returns its index for callbackAt(). */
    int addHook(Hook hook);

    /** Patch a previously emitted branch/jump to point at @p target. */
    void setTarget(int op_index, int target);

    /** Attach a debug label to the most recent op. */
    Program &withLabel(Literal label);

    /** Append all ops of @p other (branch targets and hook indices are
     *  rebased); @p other may be this program.  Its source is not
     *  copied. */
    void append(const Program &other);

    /** Emit the rest of the program from @p source, a block per
     *  refill(). */
    void setSource(Source source) { source_ = std::move(source); }

    /**
     * Replace the ops with the source's next block; the hooks stay.
     * @return false, changing nothing, without a source; false, with
     *         no ops left and the source dropped, once it has no block
     *         left.
     */
    bool refill();

    /**
     * Human-readable listing (one op per line, with labels), e.g.
     * @code
     *   0: store   [0x80020000] <- 0x400        ; store size->shadow(dst)
     *   1: load    v0 <- [0x80018000]           ; load status<-shadow(src)
     * @endcode
     */
    std::string disassemble() const;

  private:
    int push(MicroOp op);

    /** Flag the loop head if the branch at @p branch closes a status
     *  poll (MicroOp::pollHead). */
    void markPollHead(int branch);

    std::vector<MicroOp> ops_;
    /** Callback hooks, indexed by MicroOp::target. */
    std::vector<Hook> hooks_;
    Source source_;
};

/** Printable opcode name. */
const char *toString(OpKind kind);

} // namespace uldma

#endif // ULDMA_CPU_PROGRAM_HH
