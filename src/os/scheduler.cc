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
        ++dispatched_[slice.pid];
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

std::size_t
ScriptedScheduler::dispatched(Pid pid) const
{
    const auto it = dispatched_.find(pid);
    return it == dispatched_.end() ? 0 : it->second;
}

std::vector<ScriptedScheduler::Slice>
preemptionScript(Pid victim, Pid intruder,
                 const std::vector<std::uint64_t> &boundaries,
                 std::uint64_t gap)
{
    std::vector<ScriptedScheduler::Slice> script;
    std::uint64_t given = 0;   // victim instructions granted so far
    for (std::uint64_t boundary : boundaries) {
        // An instruction quantum of 0 means "no cap", so a repeated
        // boundary cannot get an empty victim slice; it gets none.
        if (boundary > given) {
            script.push_back({victim, boundary - given});
            given = boundary;
        }
        script.push_back({intruder, gap});
    }
    return script;
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
