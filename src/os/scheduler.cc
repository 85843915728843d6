#include "os/scheduler.hh"

#include <algorithm>

#include "util/logging.hh"

namespace uldma {

// ---------------------------------------------------------------------
// RoundRobinScheduler
// ---------------------------------------------------------------------

void
RoundRobinScheduler::enqueue(Process &process)
{
    if (!process.queued()) {
        process.setQueued(true);
        ready_.push_back(&process);
    }
}

SchedulingDecision
RoundRobinScheduler::pickNext(Process *previous)
{
    if (previous != nullptr && previous->runnable())
        enqueue(*previous);

    while (!ready_.empty()) {
        Process *candidate = ready_.front();
        ready_.pop_front();
        candidate->setQueued(false);
        if (!candidate->runnable())
            continue;
        return SchedulingDecision{candidate, 0, quantum_};
    }
    return SchedulingDecision{};
}

// ---------------------------------------------------------------------
// ScriptedScheduler
// ---------------------------------------------------------------------

void
ScriptedScheduler::enqueue(Process &process)
{
    if (std::find(ready_.begin(), ready_.end(), &process) == ready_.end())
        ready_.push_back(&process);
}

SchedulingDecision
ScriptedScheduler::pickNext(Process *previous)
{
    if (previous != nullptr && previous->runnable())
        enqueue(*previous);

    // Scripted phase: find the next slice whose pid is still runnable.
    while (cursor_ < script_.size()) {
        const Slice slice = script_[cursor_];
        ++cursor_;
        auto it = std::find_if(ready_.begin(), ready_.end(),
                               [&](Process *p) {
                                   return p->pid() == slice.pid &&
                                          p->runnable();
                               });
        if (it == ready_.end())
            continue;   // target exited early; skip this slice
        Process *chosen = *it;
        ready_.erase(it);
        return SchedulingDecision{chosen, slice.instructions, 0};
    }

    // Drain phase: run-to-completion round robin.
    while (!ready_.empty()) {
        Process *candidate = ready_.front();
        ready_.pop_front();
        if (!candidate->runnable())
            continue;
        return SchedulingDecision{candidate, 0, 0};
    }
    return SchedulingDecision{};
}

// ---------------------------------------------------------------------
// PreemptionScheduler
// ---------------------------------------------------------------------

void
PreemptionScheduler::enqueue(Process &process)
{
    if (std::find(ready_.begin(), ready_.end(), &process) == ready_.end())
        ready_.push_back(&process);
}

Process *
PreemptionScheduler::takeRunnable(Pid pid)
{
    auto it = std::find_if(ready_.begin(), ready_.end(),
                           [&](Process *p) {
                               return p->pid() == pid && p->runnable();
                           });
    if (it == ready_.end())
        return nullptr;
    Process *chosen = *it;
    ready_.erase(it);
    return chosen;
}

SchedulingDecision
PreemptionScheduler::pickNext(Process *previous)
{
    if (previous != nullptr && previous->runnable())
        enqueue(*previous);

    for (;;) {
        if (pendingGap_) {
            // The victim just reached a boundary: give the intruder
            // one gap.  A repeated boundary lands here twice in a row.
            pendingGap_ = false;
            if (Process *in = takeRunnable(intruder_)) {
                ++delivered_;
                return SchedulingDecision{in, gap_, 0};
            }
            continue;   // intruder already finished; fall through
        }
        if (cursor_ >= boundaries_.size())
            break;
        const std::uint64_t boundary = boundaries_[cursor_];
        ++cursor_;
        const std::uint64_t delta =
            boundary > victimGiven_ ? boundary - victimGiven_ : 0;
        if (boundary > victimGiven_)
            victimGiven_ = boundary;
        pendingGap_ = true;
        // A zero-length victim slice cannot be issued (an instruction
        // quantum of 0 means "no cap"), so back-to-back boundaries
        // collapse into consecutive intruder gaps.
        if (delta > 0) {
            if (Process *v = takeRunnable(victim_))
                return SchedulingDecision{v, delta, 0};
            // Victim exited before this boundary; still run the gap.
        }
    }

    // Drain phase: run-to-completion round robin.
    while (!ready_.empty()) {
        Process *candidate = ready_.front();
        ready_.pop_front();
        if (!candidate->runnable())
            continue;
        return SchedulingDecision{candidate, 0, 0};
    }
    return SchedulingDecision{};
}

// ---------------------------------------------------------------------
// RandomScheduler
// ---------------------------------------------------------------------

void
RandomScheduler::enqueue(Process &process)
{
    if (std::find(ready_.begin(), ready_.end(), &process) == ready_.end())
        ready_.push_back(&process);
}

SchedulingDecision
RandomScheduler::pickNext(Process *previous)
{
    if (previous != nullptr && previous->runnable())
        enqueue(*previous);

    // Compact out finished processes.
    ready_.erase(std::remove_if(ready_.begin(), ready_.end(),
                                [](Process *p) { return !p->runnable(); }),
                 ready_.end());
    if (ready_.empty())
        return SchedulingDecision{};

    const std::size_t idx = rng_.below(ready_.size());
    Process *chosen = ready_[idx];
    ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(idx));
    return SchedulingDecision{chosen, rng_.inRange(1, maxSlice_), 0};
}

} // namespace uldma
