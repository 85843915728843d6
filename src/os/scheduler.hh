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
 *    slices, to force the precise interleavings of figures 5, 6, 8.
 */

#ifndef ULDMA_OS_SCHEDULER_HH
#define ULDMA_OS_SCHEDULER_HH

#include <deque>
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

  private:
    std::vector<Slice> script_;
    std::size_t cursor_ = 0;
    std::deque<Process *> ready_;
};

/**
 * The model checker's scheduler (src/check): runs a designated victim
 * process, interrupting it at an explicit list of instruction-count
 * boundaries; at each boundary the intruder process runs for a fixed
 * gap of instructions before the victim resumes.
 *
 * Boundaries are *absolute* victim instruction counts and must be
 * non-decreasing; a repeated boundary means the intruder is dispatched
 * twice back to back with no victim instruction in between.  Once all
 * boundaries are consumed the scheduler degrades to run-to-completion
 * round robin so both programs can finish.
 */
class PreemptionScheduler : public Scheduler
{
  public:
    PreemptionScheduler(Pid victim, Pid intruder,
                        std::vector<std::uint64_t> boundaries,
                        std::uint64_t gap_instructions)
        : victim_(victim), intruder_(intruder),
          boundaries_(std::move(boundaries)), gap_(gap_instructions)
    {}

    void enqueue(Process &process) override;
    SchedulingDecision pickNext(Process *previous) override;

    /** How many intruder gaps have actually been dispatched. */
    std::size_t preemptionsDelivered() const { return delivered_; }

  private:
    Process *takeRunnable(Pid pid);

    Pid victim_;
    Pid intruder_;
    std::vector<std::uint64_t> boundaries_;
    std::uint64_t gap_;

    /// Victim instructions granted so far (sum of issued slice caps).
    std::uint64_t victimGiven_ = 0;
    std::size_t cursor_ = 0;
    bool pendingGap_ = false;
    std::size_t delivered_ = 0;
    std::deque<Process *> ready_;
};

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
