/**
 * @file
 * Unit tests for the Program builder and ExecContext: op encoding,
 * branch targets and patching, program appending (target and hook
 * rebasing, self-append), the per-program hook table,
 * register-file bounds, and run-state transitions.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cpu/exec_context.hh"
#include "cpu/program.hh"

namespace uldma {
namespace {

TEST(ProgramBuilder, EncodesOperands)
{
    Program p;
    const int i_load = p.load(reg::t0, 0x1234, 4);
    const int i_store = p.storeReg(0x5678, reg::t1, 2);
    const int i_move = p.move(reg::v0, 99);
    const int i_add = p.addImm(reg::t2, reg::t0, 7);

    EXPECT_EQ(p.size(), 4u);
    EXPECT_EQ(p.at(i_load).kind, OpKind::Load);
    EXPECT_EQ(p.at(i_load).dstReg, reg::t0);
    EXPECT_EQ(p.at(i_load).vaddr, 0x1234u);
    EXPECT_EQ(p.at(i_load).size, 4u);

    EXPECT_EQ(p.at(i_store).kind, OpKind::Store);
    EXPECT_EQ(p.at(i_store).srcReg, reg::t1);
    EXPECT_EQ(p.at(i_store).size, 2u);

    EXPECT_EQ(p.at(i_move).imm, 99u);
    EXPECT_EQ(p.at(i_add).srcReg, reg::t0);
    EXPECT_EQ(p.at(i_add).imm, 7u);
}

TEST(ProgramBuilder, HereAndBranchTargets)
{
    Program p;
    p.move(reg::t0, 0);
    const int top = p.here();
    EXPECT_EQ(top, 1);
    p.addImm(reg::t0, reg::t0, 1);
    const int br = p.branchNe(reg::t0, 3, top);
    EXPECT_EQ(p.at(br).target, top);
}

TEST(ProgramBuilder, SetTargetPatches)
{
    Program p;
    const int jump = p.jump(-1);
    p.move(reg::t0, 1);
    p.setTarget(jump, p.here());
    EXPECT_EQ(p.at(jump).target, 2);
}

TEST(ProgramBuilderDeath, SetTargetOnNonBranch)
{
    Program p;
    const int mv = p.move(reg::t0, 1);
    EXPECT_DEATH(p.setTarget(mv, 0), "non-branch");
}

TEST(ProgramBuilder, AppendRebasesTargets)
{
    Program inner;
    const int top = inner.here();
    inner.addImm(reg::t0, reg::t0, 1);
    inner.branchNe(reg::t0, 2, top);

    Program outer;
    outer.move(reg::t0, 0);
    outer.move(reg::t1, 5);
    outer.append(inner);
    outer.exit();

    // The appended branch's target moved from 0 to 2.
    EXPECT_EQ(outer.at(3).kind, OpKind::BranchNe);
    EXPECT_EQ(outer.at(3).target, 2);
    EXPECT_EQ(outer.size(), 5u);
}

TEST(ProgramBuilder, WithLabelAttachesToLastOp)
{
    Program p;
    p.store(0x100, 1);
    p.withLabel("the store");
    EXPECT_STREQ(p.at(0).label, "the store");
}

TEST(ProgramBuilder, CallbackOpHoldsHook)
{
    Program p;
    bool ran = false;
    p.callback([&ran](ExecContext &) { ran = true; });
    PageTable pt;
    ExecContext ctx(1, "t", pt);
    p.hook(p.at(0))(ctx);
    EXPECT_TRUE(ran);
}

/** A hook that records @p id in @p ran. */
Program::Hook
recorder(std::vector<int> &ran, int id)
{
    return [&ran, id](ExecContext &) { ran.push_back(id); };
}

TEST(ProgramBuilder, AppendRebasesHookIndices)
{
    std::vector<int> ran;
    Program outer;
    outer.callback(recorder(ran, 0));
    Program inner;
    inner.move(reg::t0, 1);
    inner.callback(recorder(ran, 1));
    inner.callback(recorder(ran, 2));
    outer.append(inner);

    ASSERT_EQ(outer.size(), 4u);
    EXPECT_EQ(outer.at(2).target, 1);
    EXPECT_EQ(outer.at(3).target, 2);
    PageTable pt;
    ExecContext ctx(1, "t", pt);
    for (std::size_t i : {3, 0, 2})
        outer.hook(outer.at(i))(ctx);
    EXPECT_EQ(ran, (std::vector<int>{2, 0, 1}));
}

TEST(ProgramBuilder, AppendToItselfDoublesTheProgram)
{
    std::vector<int> ran;
    Program p;
    p.callback(recorder(ran, 0));
    const int top = p.here();
    p.callback(recorder(ran, 1));
    p.addImm(reg::t0, reg::t0, 1);
    p.branchNe(reg::t0, 3, top);
    p.append(p);

    ASSERT_EQ(p.size(), 8u);
    // The second copy's branch and hooks point into the second copy.
    EXPECT_EQ(p.at(3).target, 1);
    EXPECT_EQ(p.at(7).kind, OpKind::BranchNe);
    EXPECT_EQ(p.at(7).target, 5);
    EXPECT_EQ(p.at(4).target, 2);
    EXPECT_EQ(p.at(5).target, 3);
    PageTable pt;
    ExecContext ctx(1, "t", pt);
    for (std::size_t i : {0, 1, 4, 5})
        p.hook(p.at(i))(ctx);
    EXPECT_EQ(ran, (std::vector<int>{0, 1, 0, 1}));
}

TEST(ProgramBuilder, CallbackOpsShareAnAddedHook)
{
    std::vector<int> ran;
    Program p;
    const int shared = p.addHook(recorder(ran, 5));
    EXPECT_EQ(p.size(), 0u);
    p.callbackAt(shared);
    p.move(reg::t0, 1);
    p.callbackAt(shared, 3);
    p.append(p);

    ASSERT_EQ(p.size(), 6u);
    EXPECT_EQ(p.numHooks(), 2u);
    EXPECT_EQ(p.at(2).imm, 3u);
    EXPECT_EQ(p.at(0).target, p.at(2).target);
    EXPECT_EQ(p.at(3).target, p.at(5).target);
    EXPECT_NE(p.at(0).target, p.at(3).target);
    PageTable pt;
    ExecContext ctx(1, "t", pt);
    for (std::size_t i : {0, 2, 3, 5})
        p.hook(p.at(i))(ctx);
    EXPECT_EQ(ran, (std::vector<int>{5, 5, 5, 5}));
}

TEST(ProgramBuilder, CopyRunsItsOwnHooks)
{
    std::vector<int> ran;
    auto original = std::make_unique<Program>();
    original->move(reg::t0, 1);
    original->callback(recorder(ran, 7));
    const Program copy = *original;
    // Nothing of the copy may point into the original.
    original.reset();
    PageTable pt;
    ExecContext ctx(1, "t", pt);
    copy.hook(copy.at(1))(ctx);
    EXPECT_EQ(ran, std::vector<int>{7});
}

TEST(ExecContextTest, RegisterFile)
{
    PageTable pt;
    ExecContext ctx(7, "proc", pt);
    EXPECT_EQ(ctx.pid(), 7);
    for (unsigned i = 0; i < numRegs; ++i)
        EXPECT_EQ(ctx.reg(static_cast<int>(i)), 0u);
    ctx.setReg(reg::t0, 42);
    EXPECT_EQ(ctx.reg(reg::t0), 42u);
}

TEST(ExecContextDeath, RegisterBounds)
{
    PageTable pt;
    ExecContext ctx(1, "t", pt);
    EXPECT_DEATH(ctx.reg(-1), "out of range");
    EXPECT_DEATH(ctx.setReg(static_cast<int>(numRegs), 0),
                 "out of range");
}

TEST(ExecContextTest, ProgramLifecycle)
{
    PageTable pt;
    ExecContext ctx(1, "t", pt);
    EXPECT_TRUE(ctx.atEnd());   // empty program

    Program p;
    p.move(reg::t0, 1);
    p.exit();
    ctx.setProgram(std::move(p));
    EXPECT_EQ(ctx.state(), RunState::Ready);
    EXPECT_EQ(ctx.pc(), 0);
    EXPECT_FALSE(ctx.atEnd());
    EXPECT_EQ(ctx.currentOp().kind, OpKind::Move);

    ctx.setPc(2);
    EXPECT_TRUE(ctx.atEnd());
}

TEST(ExecContextTest, FaultRecording)
{
    PageTable pt;
    ExecContext ctx(1, "t", pt);
    ctx.recordFault(Fault::ProtectionWrite, 0xBAD);
    EXPECT_EQ(ctx.state(), RunState::Faulted);
    EXPECT_EQ(ctx.faultReason(), Fault::ProtectionWrite);
    EXPECT_EQ(ctx.faultAddr(), 0xBADu);
}

TEST(ProgramBuilder, OpKindNames)
{
    EXPECT_STREQ(toString(OpKind::Load), "load");
    EXPECT_STREQ(toString(OpKind::CallPal), "call_pal");
    EXPECT_STREQ(toString(OpKind::AtomicRmw), "atomic_rmw");
    EXPECT_STREQ(toString(OpKind::Membar), "membar");
}

} // namespace
} // namespace uldma
