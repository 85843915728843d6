/**
 * @file
 * The architectural state of one runnable entity: register file,
 * program counter, program, and the page table it runs under.  The OS
 * module wraps this in a full Process; the CPU executes it.
 */

#ifndef ULDMA_CPU_EXEC_CONTEXT_HH
#define ULDMA_CPU_EXEC_CONTEXT_HH

#include <array>
#include <string>

#include "cpu/program.hh"
#include "vm/page_table.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace uldma {

/** Why an ExecContext stopped running.  The checker hashes these
 *  values into its boundary digests (check::runSchedule), whose
 *  goldens pin them, so the numbers are fixed; 2 is unused. */
enum class RunState : std::uint8_t
{
    Ready = 0,     ///< runnable, waiting for the CPU
    Running = 1,   ///< currently on the CPU
    Exited = 3,    ///< ran its Exit op
    Faulted = 4,   ///< killed by an unhandled memory fault
};

/**
 * Registers + PC + program + address space of one thread of control.
 */
class ExecContext
{
  public:
    ExecContext(Pid pid, std::string name, PageTable &pt)
        : pid_(pid), name_(std::move(name)), pageTable_(&pt)
    {
        regs_.fill(0);
    }

    Pid pid() const { return pid_; }
    const std::string &name() const { return name_; }

    PageTable &pageTable() { return *pageTable_; }
    const PageTable &pageTable() const { return *pageTable_; }

    /// @name Register file.
    /// @{
    std::uint64_t
    reg(int idx) const
    {
        ULDMA_ASSERT(idx >= 0 && idx < static_cast<int>(numRegs),
                     "register index ", idx, " out of range");
        return regs_[idx];
    }

    void
    setReg(int idx, std::uint64_t value)
    {
        ULDMA_ASSERT(idx >= 0 && idx < static_cast<int>(numRegs),
                     "register index ", idx, " out of range");
        regs_[idx] = value;
    }
    /// @}

    /// @name Program and program counter.
    /// @{
    const Program &program() const { return program_; }

    /** Replace the program and reset the PC (used to (re)launch). */
    void
    setProgram(Program program)
    {
        program_ = std::move(program);
        pc_ = 0;
        state_ = RunState::Ready;
    }

    int pc() const { return pc_; }
    void setPc(int pc) { pc_ = pc; }

    bool
    atEnd() const
    {
        return pc_ < 0 || pc_ >= static_cast<int>(program_.size());
    }

    const MicroOp &
    currentOp() const
    {
        return program_.at(static_cast<std::size_t>(pc_));
    }

    /** Past the end of a program with a source: load its next block
     *  and restart the PC at 0 (Program::refill). */
    bool
    refill()
    {
        if (!program_.refill())
            return false;
        pc_ = 0;
        return true;
    }
    /// @}

    RunState state() const { return state_; }
    void setState(RunState s) { state_ = s; }

    /** Fault that killed the context (valid when state == Faulted). */
    Fault faultReason() const { return faultReason_; }
    Addr faultAddr() const { return faultAddr_; }

    void
    recordFault(Fault fault, Addr vaddr)
    {
        faultReason_ = fault;
        faultAddr_ = vaddr;
        state_ = RunState::Faulted;
    }

    /** Instructions retired by this context. */
    std::uint64_t instructionsRetired() const { return retired_; }
    void countRetired(std::uint64_t n = 1) { retired_ += n; }

  private:
    Pid pid_;
    std::string name_;
    PageTable *pageTable_;

    std::array<std::uint64_t, numRegs> regs_;
    Program program_;
    int pc_ = 0;
    RunState state_ = RunState::Ready;

    Fault faultReason_ = Fault::None;
    Addr faultAddr_ = 0;
    std::uint64_t retired_ = 0;
};

} // namespace uldma

#endif // ULDMA_CPU_EXEC_CONTEXT_HH
