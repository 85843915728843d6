/**
 * @file
 * Tests for the scoped profiler (src/prof): the disabled-capture
 * contract, record-time call-tree aggregation, tick attribution via a
 * registered tick source, the deterministic uldma-profile-v1 export,
 * the collapsed-stack flamegraph text, and the cross-shard merge.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "prof/profiler.hh"
#include "sim/json.hh"

namespace uldma {
namespace {

/** Reset the calling thread's profiler after every test. */
class ProfTest : public ::testing::Test
{
  protected:
    void TearDown() override { prof::profiler().disable(); }
};

TEST_F(ProfTest, DisabledScopesCostNothingAndRecordNothing)
{
    ASSERT_FALSE(prof::profiler().enabled());
    {
        ULDMA_PROF_SCOPE("never.recorded");
        ULDMA_PROF_SCOPE("also.never");
    }
    EXPECT_EQ(prof::profiler().scopesEntered(), 0u);
    const prof::ProfileNode root = prof::profiler().snapshot();
    EXPECT_TRUE(root.children.empty());
}

TEST_F(ProfTest, EnableLatchesTheGateInsideOpenScopes)
{
    // The guard latches capture state at construction, so an enable()
    // inside an un-captured scope must not unbalance the stack.
    prof::profiler().disable();
    {
        ULDMA_PROF_SCOPE("outside");
        prof::profiler().enable();
        {
            ULDMA_PROF_SCOPE("inside");
        }
    }
    const prof::ProfileNode root = prof::profiler().snapshot();
    ASSERT_EQ(root.children.size(), 1u);
    EXPECT_EQ(root.children[0].name, "inside");
    EXPECT_EQ(root.children[0].count, 1u);
}

TEST_F(ProfTest, AggregatesByNestingPathWithFirstAppearanceOrder)
{
    prof::profiler().enable();
    for (int i = 0; i < 3; ++i) {
        ULDMA_PROF_SCOPE("outer");
        {
            ULDMA_PROF_SCOPE("b");
        }
        {
            ULDMA_PROF_SCOPE("a");
        }
        {
            ULDMA_PROF_SCOPE("b");
        }
    }
    EXPECT_EQ(prof::profiler().scopesEntered(), 12u);

    const prof::ProfileNode root = prof::profiler().snapshot();
    ASSERT_EQ(root.children.size(), 1u);
    const prof::ProfileNode &outer = root.children[0];
    EXPECT_EQ(outer.name, "outer");
    EXPECT_EQ(outer.count, 3u);
    // Child order is first appearance, not alphabetical.
    ASSERT_EQ(outer.children.size(), 2u);
    EXPECT_EQ(outer.children[0].name, "b");
    EXPECT_EQ(outer.children[0].count, 6u);
    EXPECT_EQ(outer.children[1].name, "a");
    EXPECT_EQ(outer.children[1].count, 3u);
}

TEST_F(ProfTest, TickSourceAttributesInclusiveSimulatedTime)
{
    prof::Profiler &p = prof::profiler();
    p.enable();
    Tick now = 0;
    p.setTickSource([&now] { return now; });

    p.enter("outer");
    now += 100;
    p.enter("inner");
    now += 30;
    p.exit();
    now += 20;
    p.exit();
    p.clearTickSource();

    const prof::ProfileNode root = p.snapshot();
    ASSERT_EQ(root.children.size(), 1u);
    const prof::ProfileNode &outer = root.children[0];
    EXPECT_EQ(outer.ticks, 150u);
    ASSERT_EQ(outer.children.size(), 1u);
    EXPECT_EQ(outer.children[0].ticks, 30u);
}

/** A hand-built tree exercising the exclusive = inclusive - children
 *  derivation (including the clamp at zero). */
prof::ProfileNode
sampleTree()
{
    prof::ProfileNode root;
    prof::ProfileNode outer;
    outer.name = "outer";
    outer.count = 2;
    outer.ticks = 150;
    outer.hostNs = 5000;
    prof::ProfileNode inner;
    inner.name = "inner";
    inner.count = 4;
    inner.ticks = 30;
    inner.hostNs = 6000;  // exceeds the parent: exclusive clamps to 0
    outer.children.push_back(inner);
    root.children.push_back(outer);
    return root;
}

TEST_F(ProfTest, JsonExportIsDeterministicAndDerivesExclusive)
{
    const prof::ProfileNode root = sampleTree();
    std::ostringstream a, b;
    prof::writeProfileJson(a, root);
    prof::writeProfileJson(b, root);
    EXPECT_EQ(a.str(), b.str());

    std::string error;
    const json::Value doc = json::parse(a.str(), &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(doc["schema"].asString(), "uldma-profile-v1");
    EXPECT_EQ(doc["scopes"].asNumber(), 6.0);
    EXPECT_FALSE(doc["host_time"].asBool());
    const json::Value &outer = doc["tree"][0];
    EXPECT_EQ(outer["inclusive_ticks"].asNumber(), 150.0);
    EXPECT_EQ(outer["exclusive_ticks"].asNumber(), 120.0);
    // Host members stay out of the default (deterministic) document.
    EXPECT_FALSE(outer.has("inclusive_ns"));
    const json::Value &inner = outer["children"][0];
    EXPECT_EQ(inner["exclusive_ticks"].asNumber(), 30.0);
}

TEST_F(ProfTest, HostTimeExportIsOptInAndClampsExclusive)
{
    std::ostringstream os;
    prof::writeProfileJson(os, sampleTree(), /*include_host=*/true);

    std::string error;
    const json::Value doc = json::parse(os.str(), &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_TRUE(doc["host_time"].asBool());
    const json::Value &outer = doc["tree"][0];
    EXPECT_EQ(outer["inclusive_ns"].asNumber(), 5000.0);
    // Child ns exceeds the parent's: exclusive clamps at zero rather
    // than underflowing.
    EXPECT_EQ(outer["exclusive_ns"].asNumber(), 0.0);
}

TEST_F(ProfTest, CollapsedStacksUseCountsAndSkipZeroWeights)
{
    prof::ProfileNode root = sampleTree();
    prof::ProfileNode idle;
    idle.name = "idle";
    idle.count = 0;  // never completed: must not emit a line
    root.children.push_back(idle);

    std::ostringstream os;
    prof::writeCollapsedProfile(os, root);
    EXPECT_EQ(os.str(), "outer 2\n"
                        "outer;inner 4\n");
}

TEST_F(ProfTest, MergeSumsByPathAndKeepsFirstAppearanceOrder)
{
    prof::ProfileNode a = sampleTree();
    prof::ProfileNode b = sampleTree();
    prof::ProfileNode extra;
    extra.name = "only-in-b";
    extra.count = 7;
    b.children.push_back(extra);

    const prof::ProfileNode merged = prof::mergeProfiles({a, b});
    ASSERT_EQ(merged.children.size(), 2u);
    EXPECT_EQ(merged.children[0].name, "outer");
    EXPECT_EQ(merged.children[0].count, 4u);
    EXPECT_EQ(merged.children[0].ticks, 300u);
    ASSERT_EQ(merged.children[0].children.size(), 1u);
    EXPECT_EQ(merged.children[0].children[0].count, 8u);
    EXPECT_EQ(merged.children[1].name, "only-in-b");
    EXPECT_EQ(merged.children[1].count, 7u);

    // Merging is fold-order dependent only in child order, never in
    // totals; and merging one tree is the identity on its numbers.
    const prof::ProfileNode one = prof::mergeProfiles({a});
    EXPECT_EQ(one.children[0].ticks, a.children[0].ticks);
}

} // namespace
} // namespace uldma
