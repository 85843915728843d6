/**
 * @file
 * Discrete-event simulation kernel: Event, EventQueue.
 *
 * The whole machine — CPU instruction issue, DMA transfer progress,
 * network packet delivery, scheduler quantum expiry — is driven from one
 * EventQueue per simulation.  Events scheduled for the same tick fire in
 * (priority, insertion-order) order so simulations are deterministic.
 */

#ifndef ULDMA_SIM_EVENT_HH
#define ULDMA_SIM_EVENT_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "util/types.hh"

namespace uldma {

class EventQueue;

/**
 * An occurrence scheduled to happen at some future tick.  Subclass and
 * implement process(), or use LambdaEvent for one-off callbacks.
 */
class Event
{
  public:
    /**
     * Same-tick tie-break.  Lower priorities fire first.  The defaults
     * keep device completions ahead of CPU issue which is ahead of
     * bookkeeping.
     */
    enum Priority : int
    {
        DevicePrio = 0,
        CpuPrio = 10,
        SchedulerPrio = 20,
        DefaultPrio = 30,
    };

    explicit Event(std::string name, int priority = DefaultPrio)
        : name_(std::move(name)), priority_(priority)
    {}

    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the queue when simulated time reaches the event. */
    virtual void process() = 0;

    const std::string &name() const { return name_; }
    int priority() const { return priority_; }

    /** True while the event sits in a queue. */
    bool scheduled() const { return scheduled_; }
    /** The tick this event is (or was last) scheduled for. */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;

    std::string name_;
    int priority_;
    bool scheduled_ = false;
    Tick when_ = 0;
    std::uint64_t sequence_ = 0;
};

/** One-shot event wrapping a std::function; see scheduleLambda(). */
class LambdaEvent : public Event
{
  public:
    LambdaEvent(std::string name, std::function<void()> fn,
                int priority = DefaultPrio)
        : Event(std::move(name), priority), fn_(std::move(fn))
    {}

    void process() override { fn_(); }

  private:
    std::function<void()> fn_;
};

/**
 * The simulation's clock and pending-event set.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /** Still-pending owned lambda events are descheduled and freed. */
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p event at absolute tick @p when (>= now).  The event
     * must not already be scheduled.  Ownership stays with the caller;
     * the event must outlive its firing.  A deschedule()d event leaves
     * a stale entry that is dropped lazily: it must outlive the queue
     * running past @p when, unless the queue is destroyed first.
     */
    void schedule(Event *event, Tick when);

    /** Remove a scheduled event without firing it. */
    void deschedule(Event *event);

    /** Deschedule (if needed) and reschedule at @p when. */
    void reschedule(Event *event, Tick when);

    /**
     * Schedule a one-shot callback at @p when; the wrapper event is
     * owned by the queue and freed right after it fires (or when the
     * queue is destroyed first).
     */
    void scheduleLambda(std::string name, Tick when,
                        std::function<void()> fn,
                        int priority = Event::DefaultPrio);

    /** True if no events are pending. */
    bool empty() const { return numScheduled_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return numScheduled_; }

    /** Tick of the earliest pending event; maxTick if none. */
    Tick nextEventTick();

    /**
     * Fire the single earliest event, advancing now().
     * @return true if an event fired.
     */
    bool step();

    /** Run until the queue is empty or now() would exceed @p limit. */
    void runUntil(Tick limit);

    /** Run until the queue drains completely. */
    void runToExhaustion() { runUntil(maxTick); }

    /** Advance time to @p when without firing later events. */
    void advanceTo(Tick when);

    /**
     * Let advanceInline() move time up to @p horizon.  The default, 0,
     * keeps every later event on the queue.  Only Machine::run sets
     * it, for the span of a run whose loop observes nothing between
     * events.
     */
    void setInlineHorizon(Tick horizon) { inlineHorizon_ = horizon; }
    Tick inlineHorizon() const { return inlineHorizon_; }

    /**
     * Take an event at @p when without a queue round trip: succeeds
     * only if @p when is within the inline horizon and strictly before
     * every live entry, so the caller's work runs exactly where the
     * queue would have run it.  A same-tick tie refuses whatever its
     * priority.  On success now() moves to @p when and the event
     * counts in numProcessed().
     */
    bool advanceInline(Tick when);

    /**
     * Take @p steps inline events at once, the last at @p when: the
     * replay of a loop each of whose steps advanceInline() would have
     * taken (Cpu's poll fast-forward).  Asserts what advanceInline()
     * checks: @p when is within the inline horizon and strictly before
     * every live entry.
     */
    void advanceInlineSteps(Tick when, std::uint64_t steps);

    /** Total number of events processed so far. */
    std::uint64_t numProcessed() const { return numProcessed_; }

  private:
    /** Enqueue @p event; @p owned marks a queue-owned lambda. */
    void push(Event *event, Tick when, bool owned);
    /** Drop squashed/stale entries from the head of the queue. */
    void purgeStale();

    struct QueueEntry
    {
        Tick when;
        int priority;
        /** The queue frees the event once this entry is popped.  Owned
         *  events are never rescheduled, so this is their only entry;
         *  only owned entries are dereferenced at teardown, when a
         *  caller-owned event behind a stale entry may already be gone. */
        bool owned;
        std::uint64_t sequence;
        Event *event;

        bool
        operator>(const QueueEntry &other) const
        {
            if (when != other.when)
                return when > other.when;
            if (priority != other.priority)
                return priority > other.priority;
            return sequence > other.sequence;
        }
    };

    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>> queue_;
    Tick now_ = 0;
    std::uint64_t nextSequence_ = 0;
    std::uint64_t numProcessed_ = 0;
    std::size_t numScheduled_ = 0;
    Tick inlineHorizon_ = 0;
};

} // namespace uldma

#endif // ULDMA_SIM_EVENT_HH
