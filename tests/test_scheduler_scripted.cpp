/**
 * @file
 * Unit coverage for the scripted-schedule machinery the model checker
 * (src/check) relies on:
 *
 *  - a ScriptedScheduler running a preemptionScript replays an
 *    explicit list of victim instruction-count boundaries
 *    deterministically;
 *  - a repeated boundary means two intruder gaps back to back with no
 *    victim instruction in between;
 *  - boundary 0 runs the intruder before the victim's first
 *    instruction;
 *  - a boundary past the victim's exit still delivers the gap;
 *  - after the boundary list is exhausted both processes drain to
 *    completion, and two runs of the same schedule produce identical
 *    traces.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/machine.hh"

namespace uldma {
namespace {

/// (pid, op index) execution trace built from per-op callbacks.
using TraceEntry = std::pair<Pid, int>;

Program
traceProgram(std::vector<TraceEntry> &trace, int ops)
{
    Program p;
    for (int i = 0; i < ops; ++i) {
        const int index = i;
        p.callback([&trace, index](ExecContext &ctx) {
            trace.emplace_back(ctx.pid(), index);
        });
    }
    p.exit();
    return p;
}

/// Runs victim (pid 1, @p victim_ops) against intruder (pid 2,
/// @p intruder_ops) under a preemptionScript and returns the trace;
/// @p delivered receives the number of intruder gaps dispatched.
std::vector<TraceEntry>
runSchedule(std::vector<std::uint64_t> boundaries, std::uint64_t gap,
            int victim_ops, int intruder_ops,
            std::size_t *delivered = nullptr)
{
    MachineConfig config;
    ScriptedScheduler *sched = nullptr;
    config.node.makeScheduler = [&]() {
        auto s = std::make_unique<ScriptedScheduler>(
            preemptionScript(1, 2, boundaries, gap));
        sched = s.get();
        return s;
    };
    Machine machine(config);
    Kernel &kernel = machine.node(0).kernel();

    std::vector<TraceEntry> trace;
    Process &victim = kernel.createProcess("victim");     // pid 1
    Process &intruder = kernel.createProcess("intruder"); // pid 2
    kernel.launch(victim, traceProgram(trace, victim_ops));
    kernel.launch(intruder, traceProgram(trace, intruder_ops));
    machine.start();
    EXPECT_TRUE(machine.run(tickPerSec));
    if (delivered != nullptr)
        *delivered = sched->dispatched(2);
    return trace;
}

TEST(PreemptionSchedule, ExplicitBoundariesReplayExactly)
{
    // Boundaries {2, 4}, gap 1: victim runs ops 0-1, intruder op 0,
    // victim ops 2-3, intruder op 1; then the drain phase lets the
    // victim (enqueued first) finish before the intruder.
    std::size_t delivered = 0;
    const auto trace = runSchedule({2, 4}, 1, 6, 4, &delivered);

    const std::vector<TraceEntry> expected = {
        {1, 0}, {1, 1}, {2, 0}, {1, 2}, {1, 3}, {2, 1},
        {1, 4}, {1, 5}, {2, 2}, {2, 3}};
    EXPECT_EQ(trace, expected);
    EXPECT_EQ(delivered, 2u);
}

TEST(PreemptionSchedule, RepeatedBoundaryGivesBackToBackGaps)
{
    // The same boundary twice: the victim never runs between the two
    // intruder gaps.
    std::size_t delivered = 0;
    const auto trace = runSchedule({2, 2}, 1, 4, 4, &delivered);

    const std::vector<TraceEntry> expected = {
        {1, 0}, {1, 1}, {2, 0}, {2, 1},
        {1, 2}, {1, 3}, {2, 2}, {2, 3}};
    EXPECT_EQ(trace, expected);
    EXPECT_EQ(delivered, 2u);
}

TEST(PreemptionSchedule, BoundaryZeroRunsIntruderFirst)
{
    const auto trace = runSchedule({0}, 2, 2, 2);
    ASSERT_GE(trace.size(), 2u);
    // The intruder's whole gap precedes the victim's first op.
    EXPECT_EQ(trace[0], (TraceEntry{2, 0}));
    EXPECT_EQ(trace[1], (TraceEntry{2, 1}));
    EXPECT_EQ(trace[2], (TraceEntry{1, 0}));
}

TEST(PreemptionSchedule, BoundaryPastVictimExitStillDeliversGap)
{
    // The victim (2 ops + exit) finishes inside the first slice; the
    // scheduled gap still runs, then the intruder drains.
    std::size_t delivered = 0;
    const auto trace = runSchedule({50}, 1, 2, 3, &delivered);

    const std::vector<TraceEntry> expected = {
        {1, 0}, {1, 1}, {2, 0}, {2, 1}, {2, 2}};
    EXPECT_EQ(trace, expected);
    EXPECT_EQ(delivered, 1u);
}

TEST(PreemptionSchedule, EmptyBoundaryListIsRunToCompletion)
{
    std::size_t delivered = 0;
    const auto trace = runSchedule({}, 1, 3, 3, &delivered);

    const std::vector<TraceEntry> expected = {
        {1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2}};
    EXPECT_EQ(trace, expected);
    EXPECT_EQ(delivered, 0u);
}

TEST(PreemptionSchedule, SameScheduleIsDeterministic)
{
    const auto first = runSchedule({1, 3, 3, 5}, 2, 8, 10);
    const auto second = runSchedule({1, 3, 3, 5}, 2, 8, 10);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

} // namespace
} // namespace uldma
