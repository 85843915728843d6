/**
 * @file
 * The paper's figures as tests: pin the exact micro-op sequences the
 * library emits for each method against the published pseudo-code
 * (figures 1-4 and 7), so a regression in emitInitiation is caught as
 * a shape change, not just a timing drift.  A digest of every method's
 * listing pins each label and operand the disassembler prints.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/machine.hh"
#include "core/methods.hh"
#include "util/fnv.hh"

namespace uldma {
namespace {

class Emission : public ::testing::Test
{
  protected:
    Emission()
    {
        config_.node.dma.mode = EngineMode::KeyBased;   // superset
        config_.node.dma.ctxIdBits = 2;
        machine_ = std::make_unique<Machine>(config_);
        kernel_ = &machine_->node(0).kernel();
        proc_ = &kernel_->createProcess("p");
        kernel_->grantKeyContext(*proc_);
        kernel_->grantShadowContext(*proc_);
        src_ = kernel_->allocate(*proc_, pageSize, Rights::ReadWrite);
        dst_ = kernel_->allocate(*proc_, pageSize, Rights::ReadWrite);
        kernel_->createShadowMappings(*proc_, src_, pageSize);
        kernel_->createShadowMappings(*proc_, dst_, pageSize);
    }

    /** Emit and return the op-kind sequence. */
    std::vector<OpKind>
    kinds(DmaMethod method)
    {
        Program p;
        emitInitiation(p, *kernel_, *proc_, method, src_, dst_, 128);
        std::vector<OpKind> out;
        for (std::size_t i = 0; i < p.size(); ++i)
            out.push_back(p.at(i).kind);
        return out;
    }

    Program
    emit(DmaMethod method)
    {
        Program p;
        emitInitiation(p, *kernel_, *proc_, method, src_, dst_, 128);
        return p;
    }

    MachineConfig config_;
    std::unique_ptr<Machine> machine_;
    Kernel *kernel_ = nullptr;
    Process *proc_ = nullptr;
    Addr src_ = 0, dst_ = 0;
};

using K = OpKind;

TEST_F(Emission, KernelIsFigure1Trap)
{
    // Three argument moves and the trap (figure 1 runs in-kernel).
    EXPECT_EQ(kinds(DmaMethod::Kernel),
              (std::vector<K>{K::Move, K::Move, K::Move, K::Syscall}));
}

TEST_F(Emission, Shrimp1IsOneAtomicAccess)
{
    EXPECT_EQ(kinds(DmaMethod::Shrimp1),
              (std::vector<K>{K::AtomicRmw}));
}

TEST_F(Emission, PairMethodsAreFigure2StoreLoad)
{
    // SHRIMP-2 / FLASH / ext-shadow: STORE size; LOAD status (figs 2/4).
    const std::vector<K> expected{K::Store, K::Load};
    EXPECT_EQ(kinds(DmaMethod::Shrimp2), expected);
    EXPECT_EQ(kinds(DmaMethod::Flash), expected);
    EXPECT_EQ(kinds(DmaMethod::ExtShadow), expected);

    // The store carries the size; the load's destination is v0.
    const Program p = emit(DmaMethod::ExtShadow);
    EXPECT_EQ(p.at(0).imm, 128u);
    EXPECT_EQ(p.at(1).dstReg, reg::v0);
    // Store goes to shadow(dst); load comes from shadow(src).
    EXPECT_EQ(p.at(0).vaddr, kernel_->shadowVaddrFor(*proc_, dst_));
    EXPECT_EQ(p.at(1).vaddr, kernel_->shadowVaddrFor(*proc_, src_));
}

TEST_F(Emission, PalCodeStagesArgsAndTraps)
{
    EXPECT_EQ(kinds(DmaMethod::PalCode),
              (std::vector<K>{K::Move, K::Move, K::Move, K::CallPal}));
    const Program p = emit(DmaMethod::PalCode);
    EXPECT_EQ(p.at(3).imm, palDmaIndex);
}

TEST_F(Emission, KeyBasedIsFigure3)
{
    // Figure 3: keyed store (dst), keyed store (src), size store to
    // the context page, status load from the context page.
    EXPECT_EQ(kinds(DmaMethod::KeyBased),
              (std::vector<K>{K::Store, K::Store, K::Store, K::Load}));

    const Program p = emit(DmaMethod::KeyBased);
    const auto &grant = proc_->dmaGrant();
    const std::uint64_t payload =
        keyfield::pack(grant.key, *grant.keyContext);
    EXPECT_EQ(p.at(0).imm, payload);
    EXPECT_EQ(p.at(1).imm, payload);
    EXPECT_EQ(p.at(0).vaddr, kernel_->shadowVaddrFor(*proc_, dst_));
    EXPECT_EQ(p.at(1).vaddr, kernel_->shadowVaddrFor(*proc_, src_));
    EXPECT_EQ(p.at(2).vaddr, grant.contextPageVaddr);
    EXPECT_EQ(p.at(2).imm, 128u);
    EXPECT_EQ(p.at(3).vaddr, grant.contextPageVaddr);
}

TEST_F(Emission, Repeated3IsDubnickisSequence)
{
    // LOAD, (membar), STORE, LOAD — §3.3's three accesses.
    EXPECT_EQ(kinds(DmaMethod::Repeated3),
              (std::vector<K>{K::Load, K::Membar, K::Store, K::Load}));
    const Program p = emit(DmaMethod::Repeated3);
    EXPECT_EQ(p.at(0).vaddr, p.at(3).vaddr);   // both loads hit src
}

TEST_F(Emission, Repeated4AlternatesWithBarrier)
{
    EXPECT_EQ(kinds(DmaMethod::Repeated4),
              (std::vector<K>{K::Store, K::Load, K::Membar, K::Store,
                              K::Load}));
    const Program p = emit(DmaMethod::Repeated4);
    EXPECT_EQ(p.at(0).vaddr, p.at(3).vaddr);
    EXPECT_EQ(p.at(1).vaddr, p.at(4).vaddr);
}

TEST_F(Emission, Repeated5IsFigure7WithRetries)
{
    // Figure 7: ST LD [mb,beq] ST LD [mb,beq] LD [mb,beq], with the
    // retry branches aiming back at the first store.
    const std::vector<K> expected{
        K::Store, K::Load, K::Membar, K::BranchEq,
        K::Store, K::Load, K::Membar, K::BranchEq,
        K::Load, K::Membar, K::BranchEq};
    EXPECT_EQ(kinds(DmaMethod::Repeated5), expected);

    const Program p = emit(DmaMethod::Repeated5);
    // Stores at 0 and 4 and the final load at 8 all address
    // shadow(dst) (the paper: "address arguments of instructions 1, 3
    // and 5 are the same").
    EXPECT_EQ(p.at(0).vaddr, p.at(4).vaddr);
    EXPECT_EQ(p.at(0).vaddr, p.at(8).vaddr);
    // Loads at 1 and 5 address shadow(src) ("2 and 4 the same").
    EXPECT_EQ(p.at(1).vaddr, p.at(5).vaddr);
    // Every retry branch restarts the sequence.
    for (int idx : {3, 7, 10}) {
        EXPECT_EQ(p.at(idx).target, 0);
        EXPECT_EQ(p.at(idx).imm, dmastatus::failure);
    }
}

TEST_F(Emission, AccessCountsMatchEmittedMemoryOps)
{
    // initiationAccessCount() must agree with what we actually emit
    // (counting NI-visible accesses: loads/stores/rmw to uncached
    // space; the kernel method's four accesses happen in-kernel).
    for (DmaMethod m :
         {DmaMethod::Shrimp1, DmaMethod::Shrimp2, DmaMethod::Flash,
          DmaMethod::ExtShadow, DmaMethod::KeyBased,
          DmaMethod::Repeated3, DmaMethod::Repeated4,
          DmaMethod::Repeated5}) {
        unsigned mem_ops = 0;
        const Program p = emit(m);
        for (std::size_t i = 0; i < p.size(); ++i) {
            const OpKind k = p.at(i).kind;
            if (k == K::Load || k == K::Store || k == K::AtomicRmw)
                ++mem_ops;
        }
        EXPECT_EQ(mem_ops, initiationAccessCount(m)) << toString(m);
    }
}

/** The listing of one 512-byte initiation by a fresh process on a
 *  fresh machine set up for @p method. */
std::string
initiationListing(DmaMethod method)
{
    MachineConfig config;
    configureNode(config.node, method);
    Machine machine(config);
    prepareMachine(machine, method);
    Process &proc = machine.node(0).kernel().createProcess("p");
    DmaSession session(machine, 0, proc, method);
    EXPECT_TRUE(session.ready());
    const Addr src = session.allocBuffer(pageSize);
    const Addr dst = session.allocBuffer(pageSize);
    Program program;
    session.emitDma(program, src, dst, 512);
    return program.disassemble();
}

TEST(ProgramListing, EveryMethodMatchesTheRecordedDigest)
{
    // Recorded while ops still held their labels as std::string, so
    // they pin every label and operand the listing prints.  Index =
    // DmaMethod value.
    static constexpr std::uint64_t recorded[] = {
        0x5adec90f46e3b699ULL, 0xfd75872949fa1d8aULL, 0x270a428bca966ce6ULL,
        0x270a428bca966ce6ULL, 0x381f68ed6f1ff7a6ULL, 0x70b330d62b7a279bULL,
        0x270a428bca966ce6ULL, 0x2aa60d8cda6662e8ULL, 0x9ba172512077d64dULL,
        0x155c4305eabcc110ULL, 0x95bebbcd6375220eULL, 0xd7b7f0838cd4d236ULL,
    };
    for (unsigned m = 0; m < std::size(recorded); ++m) {
        const DmaMethod method = static_cast<DmaMethod>(m);
        const std::string listing = initiationListing(method);
        Fnv1a digest;
        digest.mixBytes(listing);
        EXPECT_EQ(digest.h, recorded[m])
            << toString(method) << " = 0x" << std::hex << digest.h
            << "\n" << listing;
    }
}

} // namespace
} // namespace uldma
