/**
 * @file
 * The simulated host CPU: an in-order micro-op interpreter with an
 * Alpha-style PAL mode, clocked at 150 MHz by default (the DEC Alpha
 * 3000 model 300 of the paper's testbed).
 *
 * One micro-op executes per CPU tick event; its cost in ticks is
 * computed from the cost model plus any bus time consumed, and the next
 * tick is scheduled after it.  The OS is invoked through OsCallbacks at
 * traps (syscall, fault) and at quantum boundaries — the only places a
 * context switch can happen, matching the instruction-boundary
 * preemption the paper's race conditions are built from.  A PAL call
 * executes all of its micro-ops inside a single tick event and is
 * therefore uninterruptible, which is precisely the property the PAL
 * solution (paper §2.7) relies on.
 *
 * When the next tick is due before every other event, the next op runs
 * in place instead (EventQueue::advanceInline): the event order is the
 * same, without the queue round trip.  A status poll that spins in
 * place (MicroOp::pollHead) is fast-forwarded: once two iterations in a
 * row moved time and every counter alike, whole iterations up to the
 * next event, quantum or run limit are replayed at once (tick()).
 */

#ifndef ULDMA_CPU_CPU_HH
#define ULDMA_CPU_CPU_HH

#include <array>
#include <map>
#include <memory>
#include <string>

#include "cpu/dcache.hh"
#include "cpu/exec_context.hh"
#include "cpu/os_iface.hh"
#include "cpu/program.hh"
#include "mem/bus.hh"
#include "mem/merge_buffer.hh"
#include "mem/physical_memory.hh"
#include "sim/clocked.hh"
#include "sim/stats.hh"
#include "vm/tlb.hh"

namespace uldma {

/**
 * CPU cost model and configuration.  The defaults are the paper's
 * testbed (docs/CALIBRATION.md): a DEC Alpha 3000 model 300, whose
 * 150 MHz core (6.67 ns/cycle) sits on the 12.5 MHz TurboChannel
 * (80 ns/cycle, §3.4).  An uncached NI register access costs 1
 * arbitration + 3 device (FPGA) + 2 data/response bus cycles = 480 ns
 * plus the CPU-side issue cycles; the measured two-access
 * extended-shadow initiation of 1.1 us and four-access key-based
 * initiation of 2.3 us both sit on ~0.5 us per access.
 */
struct CpuParams
{
    /** Core clock; 150 MHz matches the Alpha 3000/300. */
    std::uint64_t clockMHz = 150;
    /** Cycles charged to every instruction. */
    Cycles baseInstrCycles = 1;
    /** Extra cycles for a cached (DRAM) memory access. */
    Cycles cachedMemExtraCycles = 2;
    /** CPU-side extra cycles to issue an uncached access (write
     *  buffer and TurboChannel interface), on top of the bus time
     *  itself. */
    Cycles uncachedIssueExtraCycles = 8;
    /** Cycles for a memory barrier (plus any drain bus time). */
    Cycles membarCycles = 10;
    /** Entry + exit overhead of a PAL call. */
    Cycles palEntryExitCycles = 40;

    TlbParams tlb;
    MergeBufferParams mergeBuffer;
    /** Optional L1 data cache (off by default; see dcache.hh). */
    DcacheParams dcache;
};

/**
 * One workstation's processor.
 */
class Cpu : public Clocked
{
  public:
    /** Maximum micro-ops per PAL function (16 on the Alpha). */
    static constexpr unsigned palMaxInstructions = 16;

    Cpu(EventQueue &eq, std::string name, const CpuParams &params,
        Bus &bus, PhysicalMemory &memory, NodeId node = 0);

    /** Deschedules the pending tick event, if any. */
    ~Cpu() { stop(); }

    const std::string &name() const { return name_; }
    const CpuParams &params() const { return params_; }
    NodeId node() const { return node_; }

    /** Wire up the OS; must be called before running. */
    void setOs(OsCallbacks *os) { os_ = os; }

    /// @name PAL code management (paper §2.7).
    /// @{
    /**
     * Install a PAL function.  Only the superuser (i.e. machine setup
     * code) may do this; once installed, any process may invoke it via
     * the CallPal micro-op.  The program may not trap or exceed the
     * 16-instruction limit.
     */
    void registerPal(std::uint64_t index, Program program);
    bool hasPal(std::uint64_t index) const { return palTable_.count(index); }
    /// @}

    /// @name Context control (kernel-facing).
    /// @{
    /** Set the running context (nullptr idles the CPU). */
    void setCurrentContext(ExecContext *ctx);
    ExecContext *currentContext() { return current_; }

    /**
     * Limit the current slice to @p instructions before the kernel's
     * quantumExpired() fires; 0 means unlimited.
     */
    void setInstructionQuantum(std::uint64_t instructions);

    /** Expire the slice at absolute tick @p deadline; maxTick = never. */
    void setTimeQuantum(Tick deadline) { quantumDeadline_ = deadline; }

    /** Begin/resume executing (schedules the tick event). */
    void start();
    /** Stop executing after the current instruction. */
    void stop();

    bool idle() const { return current_ == nullptr; }
    /// @}

    MergeBuffer &mergeBuffer() { return mergeBuffer_; }
    Tlb &tlb() { return tlb_; }
    /** The L1 data cache, or nullptr when disabled. */
    Dcache *dcache() { return dcache_.get(); }
    Bus &bus() { return bus_; }
    PhysicalMemory &memory() { return memory_; }

    /**
     * Privileged bus access on behalf of the kernel (used by the
     * kernel-level DMA driver to touch device registers).
     * @return bus latency in ticks.
     */
    Tick kernelBusAccess(Packet &pkt);

    /** Convert CPU cycles to ticks. */
    Tick cyclesToTicks(Cycles c) const
    {
        return clockDomain().cyclesToTicks(c);
    }

    stats::Group &statsGroup() { return statsGroup_; }

    /** Registers the CPU's stats and its merge buffer / TLB / dcache. */
    void
    registerStats(stats::Registry &r)
    {
        r.add(&statsGroup_);
        mergeBuffer_.registerStats(r);
        tlb_.registerStats(r);
        if (dcache_ != nullptr)
            dcache_->registerStats(r);
    }

    std::uint64_t instructionsRetired() const { return instrs_.value(); }
    std::uint64_t numUncachedAccesses() const
    {
        return uncachedLoads_.value() + uncachedStores_.value();
    }
    std::uint64_t numSyscalls() const { return syscalls_.value(); }
    std::uint64_t numPalCalls() const { return palCalls_.value(); }

    /** Poll-loop iterations fast-forwarded so far (tests only; no
     *  stat, so exports do not depend on it). */
    std::uint64_t pollIterationsSkipped() const { return pollSkipped_; }

  private:
    class TickEvent : public Event
    {
      public:
        explicit TickEvent(Cpu &cpu)
            : Event(cpu.name() + ".tick", CpuPrio), cpu_(cpu)
        {}
        void process() override { cpu_.tick(); }

      private:
        Cpu &cpu_;
    };

    /** Ops in one status-poll iteration: Load, Membar, Compute,
     *  Branch. */
    static constexpr std::uint64_t pollLoopOps = 4;

    /** Counters read at a poll-loop head, or their change over one
     *  iteration. */
    struct PollMark
    {
        Tick when = 0;
        std::uint64_t events = 0;
        std::uint64_t retired = 0;
        std::array<std::uint64_t, 9> cpu{};   ///< in ownCounters() order
        Tlb::Counters tlb{};
        MergeBuffer::Counters wb{};
        Bus::Counters bus{};
        /** Latency of the latest bus transaction, never a difference. */
        Tick busLatency = 0;

        /** The change from @p earlier to this mark. */
        PollMark since(const PollMark &earlier) const;
        bool operator==(const PollMark &) const = default;
    };

    /** Poll-loop recognition within one tick() call, where every op
     *  after the first ran inline, so no other event came between. */
    struct PollTracker
    {
        const ExecContext *ctx = nullptr;
        int pc = -1;
        bool haveStep = false;
        PollMark at;     ///< counters at the latest head visit
        PollMark step;   ///< their change over the iteration before
    };

    /** Execute instructions until another event may come first, then
     *  reschedule.  An op that leaves the PC past a block's end
     *  refills the program from its source (Program::setSource). */
    void tick();

    /** The CPU's own stats, in PollMark::cpu order. */
    std::array<stats::Scalar *, 9> ownCounters();

    PollMark pollMark(const ExecContext &ctx);

    /**
     * At a poll-loop head: once the last two iterations moved time and
     * every counter alike, replay k more whole iterations at once, k
     * bounded by the next event, the inline horizon, the quantum and
     * the run limit.
     */
    void pollHead(ExecContext &ctx, PollTracker &poll);

    /** True if the poll's load can change only through an event. */
    bool pollLoadIsPure(ExecContext &ctx, const MicroOp &load) const;

    /** Execute the current op of @p ctx. @return cost in ticks. */
    Tick executeOne(ExecContext &ctx);

    /** Execute micro-op @p op of @p program (the process's own, or a
     *  PAL body). @return cost in ticks. */
    Tick executeOp(ExecContext &ctx, const Program &program,
                   const MicroOp &op, bool in_pal, int &next_pc);

    /** Execute a whole PAL function uninterruptibly. */
    Tick executePal(ExecContext &ctx, std::uint64_t index);

    /** Common load/store path. @return cost in ticks. */
    Tick memoryAccess(ExecContext &ctx, const MicroOp &op, bool is_load,
                      bool in_pal, bool &faulted);

    /** Atomic read-modify-write path. @return cost in ticks. */
    Tick atomicAccess(ExecContext &ctx, const MicroOp &op, bool in_pal,
                      bool &faulted);

    std::string name_;
    CpuParams params_;
    Bus &bus_;
    PhysicalMemory &memory_;
    NodeId node_;

    OsCallbacks *os_ = nullptr;
    ExecContext *current_ = nullptr;

    MergeBuffer mergeBuffer_;
    Tlb tlb_;
    std::unique_ptr<Dcache> dcache_;
    TickEvent tickEvent_;

    std::map<std::uint64_t, Program> palTable_;

    std::uint64_t sliceInstrLeft_ = 0;   ///< 0 = unlimited
    bool sliceLimited_ = false;
    Tick quantumDeadline_ = maxTick;
    std::uint64_t pollSkipped_ = 0;

    stats::Group statsGroup_;
    stats::Scalar instrs_;
    stats::Scalar loads_;
    stats::Scalar stores_;
    stats::Scalar uncachedLoads_;
    stats::Scalar uncachedStores_;
    stats::Scalar membars_;
    stats::Scalar syscalls_;
    stats::Scalar palCalls_;
    stats::Scalar faults_;
};

} // namespace uldma

#endif // ULDMA_CPU_CPU_HH
