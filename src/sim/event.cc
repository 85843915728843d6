#include "sim/event.hh"

#include "util/logging.hh"

namespace uldma {

Event::~Event()
{
    // Destroying a still-scheduled event would leave a dangling pointer
    // in the queue; catching it here turns heisenbugs into aborts.
    ULDMA_ASSERT(!scheduled_, "event '", name_,
                 "' destroyed while scheduled");
}

EventQueue::~EventQueue()
{
    // Free the owned lambdas that never fired.  Other entries are not
    // dereferenced: a stale one may name an already-destroyed event.
    for (; !queue_.empty(); queue_.pop()) {
        const QueueEntry &entry = queue_.top();
        if (entry.owned) {
            entry.event->scheduled_ = false;
            delete entry.event;
        }
    }
}

void
EventQueue::schedule(Event *event, Tick when)
{
    push(event, when, /*owned=*/false);
}

void
EventQueue::push(Event *event, Tick when, bool owned)
{
    ULDMA_ASSERT(event != nullptr, "scheduling null event");
    ULDMA_ASSERT(!event->scheduled_, "event '", event->name(),
                 "' scheduled twice");
    ULDMA_ASSERT(when >= now_, "event '", event->name(),
                 "' scheduled in the past (", when, " < ", now_, ")");

    event->scheduled_ = true;
    event->when_ = when;
    event->sequence_ = nextSequence_++;
    queue_.push(QueueEntry{when, event->priority(), owned, event->sequence_,
                           event});
    ++numScheduled_;
}

void
EventQueue::deschedule(Event *event)
{
    ULDMA_ASSERT(event != nullptr && event->scheduled_,
                 "descheduling an unscheduled event");
    // Lazy removal: the entry is skipped when popped.
    event->scheduled_ = false;
    --numScheduled_;
}

void
EventQueue::reschedule(Event *event, Tick when)
{
    if (event->scheduled())
        deschedule(event);
    schedule(event, when);
}

void
EventQueue::scheduleLambda(std::string name, Tick when,
                           std::function<void()> fn, int priority)
{
    push(new LambdaEvent(std::move(name), std::move(fn), priority), when,
         /*owned=*/true);
}

void
EventQueue::purgeStale()
{
    while (!queue_.empty()) {
        const QueueEntry top = queue_.top();
        if (top.event->scheduled_ && top.event->sequence_ == top.sequence)
            return;
        // Stale or squashed entry: drop it.  An owned lambda has no
        // other entry, so a squashed one is freed here.
        queue_.pop();
        if (top.owned)
            delete top.event;
    }
}

Tick
EventQueue::nextEventTick()
{
    purgeStale();
    return queue_.empty() ? maxTick : queue_.top().when;
}

bool
EventQueue::step()
{
    purgeStale();
    if (queue_.empty())
        return false;

    const QueueEntry entry = queue_.top();
    queue_.pop();
    Event *event = entry.event;

    ULDMA_ASSERT(entry.when >= now_, "event queue time went backwards");
    now_ = entry.when;
    event->scheduled_ = false;
    --numScheduled_;
    ++numProcessed_;
    event->process();
    if (entry.owned)
        delete event;
    return true;
}

void
EventQueue::runUntil(Tick limit)
{
    while (true) {
        const Tick next = nextEventTick();
        if (next == maxTick || next > limit)
            return;
        step();
    }
}

void
EventQueue::advanceTo(Tick when)
{
    ULDMA_ASSERT(when >= now_, "cannot advance time backwards");
    now_ = when;
}

bool
EventQueue::advanceInline(Tick when)
{
    ULDMA_ASSERT(when >= now_, "cannot advance time backwards");
    if (when > inlineHorizon_ || when >= nextEventTick())
        return false;
    now_ = when;
    ++numProcessed_;
    return true;
}

void
EventQueue::advanceInlineSteps(Tick when, std::uint64_t steps)
{
    ULDMA_ASSERT(when >= now_, "cannot advance time backwards");
    ULDMA_ASSERT(when <= inlineHorizon_ && when < nextEventTick(),
                 "inline steps to tick ", when, " pass the next event");
    now_ = when;
    numProcessed_ += steps;
}

} // namespace uldma
