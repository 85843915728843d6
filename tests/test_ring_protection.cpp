/**
 * @file
 * Protection tests for the descriptor ring (docs/RING.md): forged
 * doorbells from the wrong context, descriptors aimed at another
 * context's ring, and torn descriptor writes (control word first) are
 * all rejected with the correct span outcome — and the weakRing fault
 * flag (mirroring weakRecognizer) demonstrably re-opens the hole in a
 * way the model checker's ring-isolation oracle catches.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "check/invariants.hh"
#include "core/machine.hh"
#include "core/methods.hh"
#include "sim/json.hh"
#include "sim/span.hh"

namespace uldma {
namespace {

/** A one-node ring machine with a victim and an adversary process,
 *  each owning its own ring, key context, and buffer page. */
struct RingPair
{
    Machine machine;
    Node &node;
    Kernel &kernel;
    Process &victim;
    Process &adversary;
    Addr victimBuf = 0, victimBufPaddr = 0;
    Addr advSrc = 0, advSrcPaddr = 0;
    Addr advDst = 0, advDstPaddr = 0;
    unsigned victimCtx_ = 0, advCtx_ = 0;

    static MachineConfig
    makeConfig(bool weak_ring)
    {
        MachineConfig config;
        configureNode(config.node, DmaMethod::Ring);
        config.node.dma.weakRing = weak_ring;
        return config;
    }

    explicit RingPair(bool weak_ring = false)
        : machine(makeConfig(weak_ring)),
          node(machine.node(0)),
          kernel(node.kernel()),
          victim(kernel.createProcess("victim")),
          adversary(kernel.createProcess("adversary"))
    {
        prepareMachine(machine, DmaMethod::Ring);
        EXPECT_TRUE(kernel.setupRing(victim, 4,
                                     ringdesc::policyPolling));
        EXPECT_TRUE(kernel.setupRing(adversary, 4,
                                     ringdesc::policyPolling));

        victimBuf = kernel.allocate(victim, pageSize, Rights::ReadWrite);
        kernel.authorizeRingDma(victim, victimBuf, pageSize);
        victimBufPaddr =
            kernel.translateFor(victim, victimBuf, Rights::Read).paddr;

        advSrc = kernel.allocate(adversary, pageSize, Rights::ReadWrite);
        advDst = kernel.allocate(adversary, pageSize, Rights::ReadWrite);
        kernel.authorizeRingDma(adversary, advSrc, pageSize);
        kernel.authorizeRingDma(adversary, advDst, pageSize);
        advSrcPaddr =
            kernel.translateFor(adversary, advSrc, Rights::Read).paddr;
        advDstPaddr =
            kernel.translateFor(adversary, advDst, Rights::Read).paddr;

        // Exit-time reaping revokes both grants (ctxReset clears
        // keyContext and the per-ring counters), so the context ids
        // must be captured while the grants are live.
        victimCtx_ = *victim.dmaGrant().keyContext;
        advCtx_ = *adversary.dmaGrant().keyContext;
    }

    unsigned victimCtx() const { return victimCtx_; }
    unsigned advCtx() const { return advCtx_; }

    Addr
    advDesc(unsigned slot) const
    {
        return adversary.dmaGrant().ringDescVaddr +
               Addr(slot) * ringdesc::descBytes;
    }

    Addr
    advCpl(unsigned slot) const
    {
        return adversary.dmaGrant().ringCplVaddr +
               Addr(slot) * ringdesc::cplBytes;
    }

    Addr
    advDoorbell() const
    {
        return adversary.dmaGrant().contextPageVaddr +
               ctxpage::ringDoorbell;
    }

    std::uint64_t
    advPayload() const
    {
        const auto &grant = adversary.dmaGrant();
        return keyfield::pack(grant.key, *grant.keyContext);
    }

    /** Run the adversary's program; victim just exits. */
    void
    run(Program adv_prog)
    {
        Program victim_prog;
        victim_prog.exit();
        kernel.launch(victim, std::move(victim_prog));
        kernel.launch(adversary, std::move(adv_prog));
        machine.start();
        ASSERT_TRUE(machine.run(60 * tickPerSec));
    }
};

/** Export, disable, and parse the span tracker's capture. */
json::Value
drainSpans()
{
    std::ostringstream os;
    span::tracker().exportJson(os);
    span::tracker().disable();
    return json::parse(os.str());
}

/** Outcome counts of the "ring" protocol rows in a span export. */
std::map<std::string, unsigned>
ringOutcomes(const json::Value &spans)
{
    std::map<std::string, unsigned> out;
    for (const json::Value &s : spans["spans"].asArray()) {
        if (s["protocol"].asString() == "ring")
            ++out[s["outcome"].asString()];
    }
    return out;
}

TEST(RingProtection, ForgedDoorbellFromWrongContextRejected)
{
    RingPair rig;
    span::tracker().enable();

    // The adversary knows the victim's real key (worst case) and rings
    // its *own* doorbell page claiming the victim's context — the MMU
    // proves the page is ctx(adversary), so the payload's context
    // field can never reach another ring.  A plain wrong-key guess on
    // its own context dies the same way.
    const auto &victim_grant = rig.victim.dmaGrant();
    const std::uint64_t forged_ctx_payload = keyfield::pack(
        victim_grant.key, rig.victimCtx());
    const std::uint64_t forged_key_payload = keyfield::pack(
        rig.adversary.dmaGrant().key + 1, rig.advCtx());

    Program prog;
    // A perfectly valid descriptor waits in the adversary's own ring,
    // so only the doorbell gate is under test.
    prog.store(rig.advCpl(0), 0);
    prog.store(rig.advDesc(0) + ringdesc::srcOff, rig.advSrcPaddr);
    prog.store(rig.advDesc(0) + ringdesc::dstOff, rig.advDstPaddr);
    prog.store(rig.advDesc(0) + ringdesc::sizeOff, 64);
    prog.membar();
    prog.store(rig.advDesc(0) + ringdesc::ctrlOff,
               ringdesc::ctrl::valid);
    prog.membar();
    // A membar after each doorbell: same-address stores would merge in
    // the CPU's write buffer, and an unflushed store would only drain
    // at the exit context switch — after the grant is reaped.
    prog.store(rig.advDoorbell(), forged_ctx_payload);
    prog.membar();
    prog.store(rig.advDoorbell(), forged_key_payload);
    prog.membar();
    prog.exit();
    rig.run(std::move(prog));

    DmaEngine &engine = rig.node.dmaEngine();
    EXPECT_EQ(engine.numKeyMismatches(), 2u);
    EXPECT_EQ(engine.numRingDoorbells(), 0u);
    EXPECT_EQ(engine.numRingDescriptors(), 0u);
    EXPECT_TRUE(engine.initiations().empty());
    EXPECT_EQ(engine.ringRetired(rig.victimCtx()), 0u);
    EXPECT_EQ(engine.ringRetired(rig.advCtx()), 0u);

    const auto outcomes = ringOutcomes(drainSpans());
    EXPECT_EQ(outcomes.count("completed"), 0u);
    EXPECT_EQ(outcomes.at("key-mismatch"), 2u);
}

TEST(RingProtection, DescriptorAimedAtAnotherContextsRingRejected)
{
    RingPair rig;
    span::tracker().enable();

    // The adversary's descriptor tries to DMA over the *victim's*
    // descriptor ring (and a second one tries to read the victim's
    // buffer).  The kernel-programmed frame table rejects both.
    const Addr victim_desc_paddr = rig.kernel.translateFor(
        rig.victim, rig.victim.dmaGrant().ringDescVaddr,
        Rights::Read).paddr;

    Program prog;
    const struct
    {
        Addr src, dst;
    } thefts[] = {
        {rig.advSrcPaddr, victim_desc_paddr},
        {rig.victimBufPaddr, rig.advDstPaddr},
    };
    for (unsigned slot = 0; slot < 2; ++slot) {
        prog.store(rig.advCpl(slot), 0);
        prog.store(rig.advDesc(slot) + ringdesc::srcOff,
                   thefts[slot].src);
        prog.store(rig.advDesc(slot) + ringdesc::dstOff,
                   thefts[slot].dst);
        prog.store(rig.advDesc(slot) + ringdesc::sizeOff, 64);
        prog.membar();
        prog.store(rig.advDesc(slot) + ringdesc::ctrlOff,
                   ringdesc::ctrl::valid);
    }
    prog.membar();
    prog.store(rig.advDoorbell(), rig.advPayload());
    prog.membar();   // drain the doorbell before exit reaps the grant

    // Translate the ring regions while the grant is live — exit-time
    // reaping zeroes the grant's ring fields.
    const Addr adv_desc_paddr = rig.kernel.translateFor(
        rig.adversary, rig.adversary.dmaGrant().ringDescVaddr,
        Rights::Read).paddr;
    const Addr adv_cpl_paddr = rig.kernel.translateFor(
        rig.adversary, rig.adversary.dmaGrant().ringCplVaddr,
        Rights::Read).paddr;

    prog.exit();
    rig.run(std::move(prog));

    DmaEngine &engine = rig.node.dmaEngine();
    EXPECT_EQ(engine.numRingDoorbells(), 1u);
    EXPECT_EQ(engine.numRingDescriptors(), 2u);
    EXPECT_EQ(engine.numRingRejects(), 2u);
    EXPECT_TRUE(engine.initiations().empty());

    // Both completion records report failure and both descriptors
    // carry the error bit — the enqueuer can see it was caught.
    PhysicalMemory &mem = rig.node.memory();
    for (unsigned slot = 0; slot < 2; ++slot) {
        EXPECT_EQ(mem.readInt(adv_cpl_paddr +
                                  Addr(slot) * ringdesc::cplBytes, 8),
                  dmastatus::failure);
        EXPECT_TRUE(mem.readInt(adv_desc_paddr +
                                    Addr(slot) * ringdesc::descBytes +
                                    ringdesc::ctrlOff, 8) &
                    ringdesc::ctrl::error);
    }

    const auto outcomes = ringOutcomes(drainSpans());
    EXPECT_EQ(outcomes.count("completed"), 0u);
    EXPECT_EQ(outcomes.at("rejected"), 2u);
}

TEST(RingProtection, TornWriteControlWordFirstRejected)
{
    RingPair rig;
    span::tracker().enable();

    // Torn enqueue: the control word's valid bit lands *before* the
    // source/destination/size fields (the write order emitRingBatch's
    // membar forbids).  The engine must treat the half-written
    // descriptor as garbage, not as a zero-length transfer to
    // wherever the stale fields point.
    DmaEngine &engine = rig.node.dmaEngine();
    std::uint64_t retired_before_exit = 0;

    Program prog;
    prog.store(rig.advCpl(0), 0);
    prog.store(rig.advDesc(0) + ringdesc::ctrlOff,
               ringdesc::ctrl::valid);
    prog.membar();
    prog.store(rig.advDoorbell(), rig.advPayload());
    prog.membar();   // drain the doorbell before exit reaps the grant
    prog.callback([&](ExecContext &) {
        // Exit-time reaping clears the per-ring counters, so the
        // retirement count is only observable while the process lives.
        retired_before_exit = engine.ringRetired(rig.advCtx());
    });
    // Translate while the grant is live — exit-time reaping zeroes
    // the grant's ring fields.
    const Addr adv_cpl_paddr = rig.kernel.translateFor(
        rig.adversary, rig.adversary.dmaGrant().ringCplVaddr,
        Rights::Read).paddr;

    prog.exit();
    rig.run(std::move(prog));

    EXPECT_EQ(engine.numRingDoorbells(), 1u);
    EXPECT_EQ(engine.numRingDescriptors(), 1u);
    EXPECT_EQ(engine.numRingRejects(), 1u);
    EXPECT_TRUE(engine.initiations().empty());
    EXPECT_EQ(retired_before_exit, 1u);

    // The torn slot is poisoned (error bit, failure record), and the
    // head moved past it so the ring stays usable.
    PhysicalMemory &mem = rig.node.memory();
    EXPECT_EQ(mem.readInt(adv_cpl_paddr, 8), dmastatus::failure);

    const auto outcomes = ringOutcomes(drainSpans());
    EXPECT_EQ(outcomes.count("completed"), 0u);
    EXPECT_EQ(outcomes.at("rejected"), 1u);
}

TEST(RingProtection, WeakRingReopensTheHoleAndTheOracleCatchesIt)
{
    // weakRing mirrors weakRecognizer: with the frame check disabled,
    // the descriptor aimed at the victim's buffer actually transfers —
    // and the model checker's ring-isolation invariant must flag it.
    RingPair rig(/*weak_ring=*/true);

    Program prog;
    prog.store(rig.advCpl(0), 0);
    prog.store(rig.advDesc(0) + ringdesc::srcOff, rig.victimBufPaddr);
    prog.store(rig.advDesc(0) + ringdesc::dstOff, rig.advDstPaddr);
    prog.store(rig.advDesc(0) + ringdesc::sizeOff, 64);
    prog.membar();
    prog.store(rig.advDesc(0) + ringdesc::ctrlOff,
               ringdesc::ctrl::valid);
    prog.membar();
    prog.store(rig.advDoorbell(), rig.advPayload());
    // Poll the completion record: the theft must finish while the
    // process (and its ring context) is still alive.
    const int poll = prog.here();
    prog.load(reg::v0, rig.advCpl(0));
    prog.membar();
    prog.compute(8);
    prog.branchEq(reg::v0, 0, poll);
    prog.exit();
    rig.run(std::move(prog));

    // The theft really started.
    DmaEngine &engine = rig.node.dmaEngine();
    ASSERT_EQ(engine.initiations().size(), 1u);
    const auto &rec = engine.initiations().front();
    EXPECT_TRUE(rec.viaRing);
    EXPECT_EQ(rec.src, rig.victimBufPaddr);
    EXPECT_EQ(rec.ctx, rig.advCtx());

    // Feed the run to the checker's oracle exactly as the runner
    // does: the grants come from the kernel's ledger, and the
    // adversary's authorized ring frames do NOT include the victim's
    // buffer, so ring-isolation must fire.
    check::RunArtifacts art = check::grantArtifacts(rig.kernel, engine);
    EXPECT_EQ(art.ctxOwner.at(rig.victimCtx()), rig.victim.pid());
    EXPECT_EQ(art.ctxOwner.at(rig.advCtx()), rig.adversary.pid());
    art.machineFinished = true;
    art.victimFinished = true;
    art.victimStatus = dmastatus::failure;
    art.allowed.push_back({rig.adversary.pid(), rig.victimBufPaddr,
                           rig.advDstPaddr, 64});

    const std::vector<check::Violation> violations =
        check::checkInvariants(art);
    bool ring_isolation = false;
    for (const check::Violation &v : violations)
        ring_isolation = ring_isolation || v.invariant == "ring-isolation";
    EXPECT_TRUE(ring_isolation)
        << "oracle missed the weakRing theft (" << violations.size()
        << " other violations)";
}

} // namespace
} // namespace uldma
