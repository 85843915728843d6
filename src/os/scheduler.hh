/**
 * @file
 * CPU schedulers.  The scheduler decides which process runs next and
 * for how long — and since the paper's entire atomicity problem is
 * "what happens when the scheduler preempts a process between two
 * accesses", we provide:
 *
 *  - RoundRobinScheduler: a normal time-sliced scheduler (quantum in
 *    ticks), for realistic workloads and randomized-preemption
 *    property tests;
 *  - ScriptedScheduler: replays an exact list of (pid, #instructions)
 *    slices, to force the precise interleavings of figures 5, 6, 8 and
 *    the model checker's preemption points (preemptionScript).
 */

#ifndef ULDMA_OS_SCHEDULER_HH
#define ULDMA_OS_SCHEDULER_HH

#include <deque>
#include <map>
#include <vector>

#include "os/process.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace uldma {

/** What the scheduler decided. */
struct SchedulingDecision
{
    Process *next = nullptr;       ///< nullptr = idle
    /** Preempt after this many instructions (0 = no instruction cap). */
    std::uint64_t instructionQuantum = 0;
    /** Preempt after this much time (0 = no time cap). */
    Tick timeQuantum = 0;
};

/**
 * Scheduling policy interface.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** A process became runnable (created or yielded back). */
    virtual void enqueue(Process &process) = 0;

    /**
     * Pick the next process among runnable ones.  @p previous is the
     * process that just stopped running (may be nullptr, may be
     * finished).  Runnable processes not chosen stay queued.
     */
    virtual SchedulingDecision pickNext(Process *previous) = 0;
};

/**
 * Classic round-robin with a fixed time quantum.
 */
class RoundRobinScheduler : public Scheduler
{
  public:
    explicit RoundRobinScheduler(Tick quantum = 100 * 1000 * 1000 /*100us*/)
        : quantum_(quantum)
    {}

    void enqueue(Process &process) override;
    SchedulingDecision pickNext(Process *previous) override;

    Tick quantum() const { return quantum_; }

  private:
    Tick quantum_;
    std::deque<Process *> ready_;
};

/**
 * Replays an exact interleaving: run pid X for N instructions, then
 * pid Y for M instructions, ...  After the script is exhausted the
 * scheduler degrades to run-to-completion round-robin so programs can
 * finish.
 */
class ScriptedScheduler : public Scheduler
{
  public:
    struct Slice
    {
        Pid pid;
        std::uint64_t instructions;
    };

    explicit ScriptedScheduler(std::vector<Slice> script)
        : script_(std::move(script))
    {}

    void enqueue(Process &process) override;
    SchedulingDecision pickNext(Process *previous) override;

    /** How many script slices @p pid has actually been given (a slice
     *  whose pid was not runnable is skipped, not counted). */
    std::size_t dispatched(Pid pid) const;

  private:
    std::vector<Slice> script_;
    std::size_t cursor_ = 0;
    std::map<Pid, std::size_t> dispatched_;
    std::deque<Process *> ready_;
};

/**
 * The model checker's interleaving (src/check) as a ScriptedScheduler
 * script: the victim runs up to each of @p boundaries (absolute victim
 * instruction counts, non-decreasing), and at each one the intruder
 * runs for @p gap instructions before the victim resumes.  A repeated
 * boundary gets no victim slice, so the intruder runs twice back to
 * back.  ScriptedScheduler::dispatched(intruder) counts the gaps
 * actually delivered.
 */
std::vector<ScriptedScheduler::Slice>
preemptionScript(Pid victim, Pid intruder,
                 const std::vector<std::uint64_t> &boundaries,
                 std::uint64_t gap);

/**
 * Randomized slicing: each decision runs a uniformly chosen runnable
 * process for a uniformly chosen instruction count in
 * [1, maxSliceInstructions].  Used by property tests to explore the
 * interleaving space of the protocols.
 */
class RandomScheduler : public Scheduler
{
  public:
    RandomScheduler(std::uint64_t seed, std::uint64_t max_slice)
        : rng_(seed), maxSlice_(max_slice)
    {}

    void enqueue(Process &process) override;
    SchedulingDecision pickNext(Process *previous) override;

  private:
    Random rng_;
    std::uint64_t maxSlice_;
    std::vector<Process *> ready_;
};

} // namespace uldma

#endif // ULDMA_OS_SCHEDULER_HH
