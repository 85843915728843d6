/**
 * @file
 * Unit tests for the sim module: event queue ordering and lifecycle,
 * clock domains, statistics.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "sim/clocked.hh"
#include "sim/event.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

namespace uldma {
namespace {

/** Event that appends its tag to a log when fired. */
class TagEvent : public Event
{
  public:
    TagEvent(std::string tag, std::vector<std::string> &log,
             int priority = DefaultPrio)
        : Event("tag." + tag, priority), tag_(std::move(tag)), log_(log)
    {}

    void process() override { log_.push_back(tag_); }

  private:
    std::string tag_;
    std::vector<std::string> &log_;
};

// ---------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<std::string> log;
    TagEvent late("late", log), early("early", log), mid("mid", log);

    eq.schedule(&late, 300);
    eq.schedule(&early, 100);
    eq.schedule(&mid, 200);
    eq.runToExhaustion();

    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0], "early");
    EXPECT_EQ(log[1], "mid");
    EXPECT_EQ(log[2], "late");
    EXPECT_EQ(eq.now(), 300u);
}

TEST(EventQueue, SameTickUsesPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<std::string> log;
    TagEvent a("cpu", log, Event::CpuPrio);
    TagEvent b("device", log, Event::DevicePrio);
    TagEvent c("first", log, Event::DefaultPrio);
    TagEvent d("second", log, Event::DefaultPrio);

    eq.schedule(&c, 50);
    eq.schedule(&d, 50);
    eq.schedule(&a, 50);
    eq.schedule(&b, 50);
    eq.runToExhaustion();

    ASSERT_EQ(log.size(), 4u);
    EXPECT_EQ(log[0], "device");   // lowest priority value first
    EXPECT_EQ(log[1], "cpu");
    EXPECT_EQ(log[2], "first");    // insertion order tie-break
    EXPECT_EQ(log[3], "second");
}

TEST(EventQueue, DescheduleSkipsEvent)
{
    EventQueue eq;
    std::vector<std::string> log;
    TagEvent a("a", log), b("b", log);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.deschedule(&a);
    eq.runToExhaustion();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0], "b");
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    std::vector<std::string> log;
    TagEvent a("a", log), b("b", log);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.reschedule(&a, 30);
    eq.runToExhaustion();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0], "b");
    EXPECT_EQ(log[1], "a");
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    std::vector<std::string> log;
    TagEvent a("a", log), b("b", log);
    eq.schedule(&a, 10);
    eq.schedule(&b, 100);
    eq.runUntil(50);
    EXPECT_EQ(log.size(), 1u);
    EXPECT_FALSE(eq.empty());
    eq.deschedule(&b);
}

TEST(EventQueue, LambdaEventsSelfClean)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleLambda("l1", 5, [&] { ++fired; });
    eq.scheduleLambda("l2", 6, [&] { ++fired; });
    eq.runToExhaustion();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    std::vector<Tick> fire_times;
    std::function<void()> chain = [&]() {
        fire_times.push_back(eq.now());
        if (fire_times.size() < 5)
            eq.scheduleLambda("chain", eq.now() + 10, chain);
    };
    eq.scheduleLambda("chain", 0, chain);
    eq.runToExhaustion();
    ASSERT_EQ(fire_times.size(), 5u);
    EXPECT_EQ(fire_times.back(), 40u);
}

TEST(EventQueue, NextEventTickSkipsSquashed)
{
    EventQueue eq;
    std::vector<std::string> log;
    TagEvent a("a", log), b("b", log);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.deschedule(&a);
    EXPECT_EQ(eq.nextEventTick(), 20u);
    eq.runToExhaustion();
}

TEST(EventQueue, CountsProcessedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.scheduleLambda("e", i * 10, [] {});
    eq.runToExhaustion();
    EXPECT_EQ(eq.numProcessed(), 7u);
}

TEST(EventQueue, AdvanceInlineRefusesAtTheDefaultHorizon)
{
    EventQueue eq;
    EXPECT_FALSE(eq.advanceInline(10));
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.numProcessed(), 0u);
}

TEST(EventQueue, AdvanceInlineRefusesASameTickTieAtEveryPriority)
{
    for (int prio : {Event::DevicePrio, Event::CpuPrio,
                     Event::SchedulerPrio, Event::DefaultPrio}) {
        SCOPED_TRACE(prio);
        EventQueue eq;
        eq.setInlineHorizon(maxTick);
        std::vector<std::string> log;
        TagEvent head("head", log, prio);
        eq.schedule(&head, 100);
        EXPECT_FALSE(eq.advanceInline(100));
        EXPECT_EQ(eq.now(), 0u);
        EXPECT_TRUE(eq.advanceInline(99));
        eq.runToExhaustion();
        EXPECT_EQ(log, std::vector<std::string>{"head"});
    }
}

TEST(EventQueue, AdvanceInlineLooksPastAStaleHead)
{
    EventQueue eq;
    eq.setInlineHorizon(maxTick);
    std::vector<std::string> log;
    TagEvent squashed("squashed", log), moved("moved", log),
        live("live", log);
    eq.schedule(&squashed, 50);
    eq.schedule(&moved, 60);
    eq.schedule(&live, 200);
    eq.deschedule(&squashed);
    eq.reschedule(&moved, 300);   // leaves a stale entry at 60
    EXPECT_TRUE(eq.advanceInline(150));
    EXPECT_EQ(eq.now(), 150u);
    EXPECT_FALSE(eq.advanceInline(200));
    eq.runToExhaustion();
    EXPECT_EQ(log, (std::vector<std::string>{"live", "moved"}));
}

TEST(EventQueue, AdvanceInlineRefusesPastTheHorizon)
{
    EventQueue eq;
    eq.setInlineHorizon(100);
    EXPECT_FALSE(eq.advanceInline(101));
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.advanceInline(100));
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, AdvanceInlineMovesTimeAndCountsTheEvent)
{
    EventQueue eq;
    eq.setInlineHorizon(maxTick);
    eq.scheduleLambda("e", 10, [] {});
    eq.runToExhaustion();
    EXPECT_TRUE(eq.advanceInline(25));
    EXPECT_EQ(eq.now(), 25u);
    EXPECT_EQ(eq.numProcessed(), 2u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, AdvanceInlineStepsTakesManyStepsBeforeTheNextEntry)
{
    EventQueue eq;
    eq.setInlineHorizon(maxTick);
    eq.scheduleLambda("e", 100, [] {});
    eq.advanceInlineSteps(99, 12);
    EXPECT_EQ(eq.now(), 99u);
    EXPECT_EQ(eq.numProcessed(), 12u);
    // Up to the next entry is what advanceInline() refuses too.
    EXPECT_DEATH(eq.advanceInlineSteps(100, 4), "pass the next event");
    eq.setInlineHorizon(150);
    eq.runToExhaustion();
    EXPECT_DEATH(eq.advanceInlineSteps(151, 4), "pass the next event");
}

// ---------------------------------------------------------------------
// ClockDomain
// ---------------------------------------------------------------------

TEST(ClockDomain, PeriodsFromMHz)
{
    const auto clk = ClockDomain::fromMHz("cpu", 150);
    EXPECT_EQ(clk.period(), tickPerSec / 150'000'000);
    const auto tc = ClockDomain("tc", 80 * tickPerNs);
    EXPECT_NEAR(tc.frequencyMHz(), 12.5, 0.001);
}

TEST(ClockDomain, CycleConversions)
{
    const ClockDomain clk("c", 80 * tickPerNs);
    EXPECT_EQ(clk.cyclesToTicks(0), 0u);
    EXPECT_EQ(clk.cyclesToTicks(5), 400 * tickPerNs);
    EXPECT_EQ(clk.ticksToCycles(400 * tickPerNs), 5u);
    EXPECT_EQ(clk.ticksToCycles(401 * tickPerNs), 6u);   // rounds up
}

TEST(ClockDomain, NextEdge)
{
    const ClockDomain clk("c", 100);
    EXPECT_EQ(clk.nextEdgeAtOrAfter(0), 0u);
    EXPECT_EQ(clk.nextEdgeAtOrAfter(1), 100u);
    EXPECT_EQ(clk.nextEdgeAtOrAfter(100), 100u);
    EXPECT_EQ(clk.nextEdgeAtOrAfter(101), 200u);
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

TEST(Stats, ScalarCounts)
{
    stats::Scalar s;
    EXPECT_EQ(s.value(), 0u);
    ++s;
    s += 4;
    EXPECT_EQ(s.value(), 5u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Stats, AverageMoments)
{
    stats::Average a;
    EXPECT_EQ(a.mean(), 0.0);
    a.sample(2);
    a.sample(4);
    a.sample(6);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);
    EXPECT_NEAR(a.stddev(), 1.632993, 1e-5);
}

TEST(Stats, RepeatedSamplesMatchSampleCalls)
{
    // 0.1 and 3.3 are inexact in binary, so a sum taken another way
    // (k * v in one sample, say) would differ in its last bits.
    stats::Average one, many;
    stats::Histogram h_one(0.0, 10.0, 5), h_many(0.0, 10.0, 5);
    many.sampleRepeated(5.0, 0);
    h_many.sampleRepeated(5.0, 0);
    EXPECT_EQ(many.count(), 0u);
    EXPECT_EQ(h_many.totalSamples(), 0u);
    for (double v : {0.1, 3.3, -1.0, 12.0}) {
        for (int i = 0; i < 1000; ++i) {
            one.sample(v);
            h_one.sample(v);
        }
        many.sampleRepeated(v, 1000);
        h_many.sampleRepeated(v, 1000);
    }
    EXPECT_EQ(many.count(), one.count());
    EXPECT_EQ(many.sum(), one.sum());
    EXPECT_EQ(many.stddev(), one.stddev());
    EXPECT_EQ(many.min(), one.min());
    EXPECT_EQ(many.max(), one.max());
    EXPECT_EQ(h_many.totalSamples(), h_one.totalSamples());
    EXPECT_EQ(h_many.underflow(), h_one.underflow());
    EXPECT_EQ(h_many.overflow(), h_one.overflow());
    for (unsigned b = 0; b < h_one.numBuckets(); ++b)
        EXPECT_EQ(h_many.bucketCount(b), h_one.bucketCount(b)) << b;
}

TEST(Stats, HistogramBuckets)
{
    stats::Histogram h(0.0, 10.0, 5);
    h.sample(-1);       // underflow
    h.sample(0);        // bucket 0
    h.sample(1.99);     // bucket 0
    h.sample(5);        // bucket 2
    h.sample(9.99);     // bucket 4
    h.sample(10);       // overflow
    EXPECT_EQ(h.totalSamples(), 6u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
}

TEST(Stats, GroupDumpContainsEverything)
{
    stats::Group group("unit");
    stats::Scalar s;
    stats::Average a;
    ++s;
    a.sample(3.5);
    group.addScalar("events", &s, "things that happened");
    group.addAverage("latency", &a, "how long");

    std::ostringstream os;
    group.dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("unit.events"), std::string::npos);
    EXPECT_NE(text.find("unit.latency"), std::string::npos);
    EXPECT_NE(text.find("things that happened"), std::string::npos);
}

TEST(EventRing, DisabledPathRecordsNothingAndHoldsNoStorage)
{
    trace::EventRing &ring = trace::eventRing();
    ring.disable();

    EXPECT_FALSE(trace::eventCaptureOn());
    // While disabled the ring holds zero storage — no per-event (or
    // even per-run) allocation on the disabled path.
    EXPECT_EQ(ring.capacity(), 0u);

    bool payload_evaluated = false;
    auto expensive = [&]() {
        payload_evaluated = true;
        return std::string("payload");
    };
    ULDMA_TRACE_EVENT("unit", Tick{0}, "kind", expensive());
    // The macro must not evaluate its payload arguments when capture
    // is off.
    EXPECT_FALSE(payload_evaluated);
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.recorded(), 0u);
}

TEST(EventRing, WraparoundKeepsNewestInChronologicalOrder)
{
    trace::EventRing &ring = trace::eventRing();
    ring.enable(4);
    EXPECT_TRUE(trace::eventCaptureOn());

    for (int i = 0; i < 6; ++i) {
        ULDMA_TRACE_EVENT("unit", static_cast<Tick>(i * 10), "tick",
                          "n=", i);
    }

    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.recorded(), 6u);
    EXPECT_EQ(ring.dropped(), 2u);
    // Oldest two (ticks 0, 10) fell off; order stays chronological.
    for (std::size_t i = 0; i < ring.size(); ++i) {
        const trace::TraceEvent &e = ring.at(i);
        EXPECT_EQ(e.tick, static_cast<Tick>((i + 2) * 10));
        EXPECT_EQ(e.component, "unit");
        EXPECT_EQ(e.kind, "tick");
        EXPECT_EQ(e.payload, "n=" + std::to_string(i + 2));
    }
    ring.disable();
    EXPECT_EQ(ring.capacity(), 0u);
}

TEST(EventRing, RecordTimeFilterDropsBeforeTheRing)
{
    trace::EventRing &ring = trace::eventRing();
    ring.enable(16);

    // Component-prefix filter: only dma* events reach the ring.
    ring.setFilter("dma");
    EXPECT_TRUE(ring.hasFilter());
    ULDMA_TRACE_EVENT("dma0", Tick{10}, "start", "sz=64");
    ULDMA_TRACE_EVENT("cpu0", Tick{20}, "fetch", "pc=0x40");
    ULDMA_TRACE_EVENT("dma1", Tick{30}, "done", "sz=64");
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.recorded(), 2u);
    EXPECT_EQ(ring.filteredOut(), 1u);
    // Filtered events never count as recorded or dropped.
    EXPECT_EQ(ring.dropped(), 0u);

    // Adding a kind narrows further: prefix AND exact kind.  Changing
    // the filter restarts its counter.
    ring.setFilter("dma", "start");
    ULDMA_TRACE_EVENT("dma0", Tick{40}, "done", "sz=8");
    ULDMA_TRACE_EVENT("dma0", Tick{50}, "start", "sz=8");
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.filteredOut(), 1u);
    EXPECT_EQ(ring.at(2).kind, "start");

    // The export reports what the filter discarded.
    std::ostringstream os;
    ring.exportChromeTracing(os);
    ASSERT_TRUE(json::valid(os.str())) << os.str();
    EXPECT_EQ(json::parse(os.str())["meta_filtered"].asNumber(), 1.0);

    // clearFilter() lets everything through again.
    ring.clearFilter();
    EXPECT_FALSE(ring.hasFilter());
    ULDMA_TRACE_EVENT("cpu0", Tick{60}, "retire", "pc=0x44");
    EXPECT_EQ(ring.size(), 4u);

    // disable() resets the filter and its counter with the storage.
    ring.setFilter("nic");
    ring.disable();
    EXPECT_FALSE(ring.hasFilter());
    EXPECT_EQ(ring.filteredOut(), 0u);
}

TEST(EventRing, ChromeTracingExportIsValidJson)
{
    trace::EventRing &ring = trace::eventRing();
    ring.enable(16);
    ULDMA_TRACE_EVENT("cpu0", tickPerUs, "fetch", "pc=0x40");
    ULDMA_TRACE_EVENT("dma0", 2 * tickPerUs, "start", "sz=64");
    ULDMA_TRACE_EVENT("cpu0", 3 * tickPerUs, "retire", "pc=0x44");

    std::ostringstream os;
    ring.exportChromeTracing(os);
    ring.disable();

    ASSERT_TRUE(json::valid(os.str())) << os.str();
    const json::Value root = json::parse(os.str());
    ASSERT_TRUE(root["traceEvents"].isArray());

    // Two thread_name metadata records (one per component) plus the
    // three instants plus the recorded/dropped summary.
    unsigned meta = 0, instants = 0;
    for (const json::Value &e : root["traceEvents"].asArray()) {
        if (e["ph"].asString() == "M")
            ++meta;
        else if (e["ph"].asString() == "i")
            ++instants;
        // pid/tid must be numbers for chrome://tracing.
        EXPECT_TRUE(e["pid"].isNumber());
        EXPECT_TRUE(e["tid"].isNumber());
    }
    EXPECT_EQ(meta, 2u);
    EXPECT_EQ(instants, 3u);
}

} // namespace
} // namespace uldma
