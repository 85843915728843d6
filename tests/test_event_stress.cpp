/**
 * @file
 * Stress/model-check tests for the event queue: thousands of randomly
 * scheduled, rescheduled and cancelled events checked against a
 * reference model, plus stats/trace plumbing smoke tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "core/methods.hh"
#include "sim/event.hh"
#include "util/random.hh"

namespace uldma {
namespace {

/** Event that logs (id, fire tick). */
class LogEvent : public Event
{
  public:
    LogEvent(int id, EventQueue &eq,
             std::vector<std::pair<int, Tick>> &log)
        : Event("log" + std::to_string(id)), id_(id), eq_(eq), log_(log)
    {}

    void process() override { log_.emplace_back(id_, eq_.now()); }

  private:
    int id_;
    EventQueue &eq_;
    std::vector<std::pair<int, Tick>> &log_;
};

TEST(EventStress, RandomScheduleMatchesReferenceModel)
{
    Random rng(0xE5E5);
    EventQueue eq;
    std::vector<std::pair<int, Tick>> log;

    constexpr int numEvents = 500;
    std::vector<std::unique_ptr<LogEvent>> events;
    // Reference: id -> expected fire tick (or absent if cancelled).
    std::map<int, Tick> expected;

    for (int i = 0; i < numEvents; ++i) {
        events.push_back(std::make_unique<LogEvent>(i, eq, log));
        const Tick when = rng.below(100000);
        eq.schedule(events.back().get(), when);
        expected[i] = when;
    }

    // Random mutations: cancel some, reschedule others (twice for
    // some, exercising stale-entry purging).
    for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < numEvents; ++i) {
            const double roll = rng.nextDouble();
            if (roll < 0.1 && events[i]->scheduled()) {
                eq.deschedule(events[i].get());
                expected.erase(i);
            } else if (roll < 0.3 && events[i]->scheduled()) {
                const Tick when = rng.below(100000);
                eq.reschedule(events[i].get(), when);
                expected[i] = when;
            }
        }
    }

    eq.runToExhaustion();

    // Every non-cancelled event fired exactly once at its tick.
    ASSERT_EQ(log.size(), expected.size());
    std::map<int, Tick> fired;
    for (const auto &[id, when] : log) {
        ASSERT_EQ(fired.count(id), 0u) << "event " << id << " refired";
        fired[id] = when;
    }
    EXPECT_EQ(fired, expected);

    // Firing order was non-decreasing in time.
    for (std::size_t i = 1; i < log.size(); ++i)
        ASSERT_LE(log[i - 1].second, log[i].second);
}

TEST(EventStress, HeavySelfRescheduling)
{
    EventQueue eq;
    int fires = 0;

    class Ticker : public Event
    {
      public:
        Ticker(EventQueue &eq, int &fires)
            : Event("ticker"), eq_(eq), fires_(fires)
        {}

        void
        process() override
        {
            if (++fires_ < 10000)
                eq_.schedule(this, eq_.now() + 7);
        }

      private:
        EventQueue &eq_;
        int &fires_;
    };

    Ticker t(eq, fires);
    eq.schedule(&t, 0);
    eq.runToExhaustion();
    EXPECT_EQ(fires, 10000);
    EXPECT_EQ(eq.now(), 9999u * 7);
}

TEST(EventStress, InterleavedLambdaStorm)
{
    EventQueue eq;
    Random rng(77);
    std::uint64_t sum = 0;
    for (int i = 0; i < 2000; ++i) {
        eq.scheduleLambda("storm", rng.below(5000),
                          [&sum, i] { sum += static_cast<unsigned>(i); });
    }
    eq.runToExhaustion();
    EXPECT_EQ(sum, 2000ull * 1999 / 2);
    EXPECT_TRUE(eq.empty());
}

TEST(EventStress, TeardownFreesOwnedLambdasAndSkipsStaleEntries)
{
    auto token = std::make_shared<int>(0);
    std::vector<std::pair<int, Tick>> log;
    {
        EventQueue eq;
        for (int i = 0; i < 100; ++i)
            eq.scheduleLambda("pending", 1000 + i, [token] { ++*token; });

        // Stale heap entries whose caller-owned events are already
        // destroyed: one descheduled, one rescheduled then descheduled.
        // Teardown must not dereference them (the sanitizer build
        // turns that into a use-after-free report).  They lie past the
        // drain below, which does look at the events behind the
        // entries it pops.
        auto gone = std::make_unique<LogEvent>(0, eq, log);
        eq.schedule(gone.get(), 5000);
        eq.deschedule(gone.get());
        auto moved = std::make_unique<LogEvent>(1, eq, log);
        eq.schedule(moved.get(), 6000);
        eq.reschedule(moved.get(), 7000);
        eq.deschedule(moved.get());
        gone.reset();
        moved.reset();

        // Fired lambdas are freed as they fire, not at teardown.
        eq.runUntil(1009);
        EXPECT_EQ(*token, 10);
        EXPECT_EQ(eq.size(), 90u);
        EXPECT_EQ(token.use_count(), 91);
    }
    // The 90 still pending were freed, with their token copies,
    // without firing.
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(*token, 10);
    EXPECT_TRUE(log.empty());
}

TEST(EventStress, SameTickLambdasFireInPriorityThenSequenceOrder)
{
    EventQueue eq;
    std::vector<std::string> order;
    eq.scheduleLambda("a", 10, [&] {
        order.push_back("a");
        // Scheduled while "e" (same tick, older sequence) is pending.
        eq.scheduleLambda("c", 10, [&] { order.push_back("c"); });
        eq.scheduleLambda("b", 10, [&] { order.push_back("b"); },
                          Event::DevicePrio);
        eq.scheduleLambda("d", 10, [&] { order.push_back("d"); },
                          Event::CpuPrio);
    });
    eq.scheduleLambda("e", 10, [&] {
        order.push_back("e");
        eq.scheduleLambda("f", 10, [&] { order.push_back("f"); },
                          Event::DevicePrio);
    });
    eq.runToExhaustion();
    // After "a": b (device), d (cpu), then the default-priority pair
    // e, c by sequence; "f" is scheduled by "e" and, as a device
    // event, overtakes the older default-priority "c".
    const std::vector<std::string> expected{"a", "b", "d", "e", "f", "c"};
    EXPECT_EQ(order, expected);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.numProcessed(), 6u);
}

TEST(EventStress, TenThousandPendingLambdasDrainInOrder)
{
    constexpr std::size_t count = 10000;
    auto prio_of = [](std::size_t i) {
        return i % 3 == 0 ? Event::DevicePrio : Event::DefaultPrio;
    };
    EventQueue eq;
    Random rng(0x10000);
    // (tick, schedule index) of each firing; many ticks repeat.
    std::vector<std::pair<Tick, std::size_t>> fired;
    for (std::size_t i = 0; i < count; ++i) {
        eq.scheduleLambda(
            "deep", rng.below(2000),
            [&fired, &eq, i] { fired.emplace_back(eq.now(), i); },
            prio_of(i));
    }
    ASSERT_EQ(eq.size(), count);

    while (eq.step())
        ASSERT_EQ(eq.size() + eq.numProcessed(), count);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.numProcessed(), count);
    ASSERT_EQ(fired.size(), count);
    for (std::size_t k = 1; k < count; ++k) {
        const auto &[t0, i0] = fired[k - 1];
        const auto &[t1, i1] = fired[k];
        ASSERT_LE(t0, t1);
        if (t0 == t1) {
            ASSERT_LE(prio_of(i0), prio_of(i1));
            if (prio_of(i0) == prio_of(i1)) {
                ASSERT_LT(i0, i1);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Machine-level stats plumbing.
// ---------------------------------------------------------------------

TEST(MachineStats, DumpMentionsEveryComponent)
{
    MachineConfig config;
    config.numNodes = 2;
    Machine machine(config);

    Kernel &kernel = machine.node(0).kernel();
    Process &p = kernel.createProcess("p");
    Program prog;
    prog.compute(100);
    prog.syscall(sys::noop);
    prog.exit();
    kernel.launch(p, std::move(prog));
    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));

    std::ostringstream os;
    machine.dumpStats(os);
    const std::string text = os.str();

    for (const char *needle :
         {"network.messages", "node0.bus.reads", "node0.cpu.instructions",
          "node0.cpu.wb.membars", "node0.cpu.tlb.hits",
          "node0.kernel.syscalls", "node0.dma.initiations",
          "node0.dma.xfer.bytes_moved", "node0.atomic.executed",
          "node0.nic.remote_stores", "node1.cpu.instructions"}) {
        EXPECT_NE(text.find(needle), std::string::npos)
            << "stats dump missing " << needle;
    }
}

TEST(MachineStats, CountersReflectActivity)
{
    MachineConfig config;
    configureNode(config.node, DmaMethod::ExtShadow);
    Machine machine(config);
    prepareMachine(machine, DmaMethod::ExtShadow);
    Kernel &kernel = machine.node(0).kernel();
    Process &p = kernel.createProcess("p");
    ASSERT_TRUE(prepareProcess(kernel, p, DmaMethod::ExtShadow));

    const Addr src = kernel.allocate(p, pageSize, Rights::ReadWrite);
    const Addr dst = kernel.allocate(p, pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(p, src, pageSize);
    kernel.createShadowMappings(p, dst, pageSize);

    Program prog;
    emitInitiation(prog, kernel, p, DmaMethod::ExtShadow, src, dst, 128);
    prog.exit();
    kernel.launch(p, std::move(prog));
    machine.start();
    ASSERT_TRUE(machine.run(tickPerSec));

    Node &node = machine.node(0);
    EXPECT_EQ(node.dmaEngine().numInitiations(), 1u);
    EXPECT_EQ(node.dmaEngine().transferEngine().bytesMoved(), 128u);
    EXPECT_EQ(node.cpu().numUncachedAccesses(), 2u);
    EXPECT_GE(node.bus().numTransactions(), 2u);
    EXPECT_GE(node.kernel().numContextSwitches(), 1u);
}

} // namespace
} // namespace uldma
