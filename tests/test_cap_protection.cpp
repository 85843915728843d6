/**
 * @file
 * Protection tests for capability-gated initiation
 * (docs/CAPABILITIES.md): forged capwords, stale capwords after a
 * delegate-then-revoke race (including a true mid-transfer
 * revocation), and presentations whose endpoints escape the granted
 * frame spans are all rejected fail-closed — and the weakCap fault
 * flag (mirroring weakRecognizer/weakRing) demonstrably re-opens the
 * hole in a way the model checker's cap-* oracles catch.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "cap/cap_params.hh"
#include "check/invariants.hh"
#include "core/machine.hh"
#include "core/methods.hh"
#include "sim/json.hh"
#include "sim/span.hh"

namespace uldma {
namespace {

/** A one-node capability machine with a victim and an adversary, each
 *  owning one slot spanning a source and a destination page. */
struct CapPair
{
    Machine machine;
    Node &node;
    Kernel &kernel;
    Process &victim;
    Process &adversary;
    Addr vSrc = 0, vDst = 0, vSrcPaddr = 0, vDstPaddr = 0;
    Addr aSrc = 0, aDst = 0, aSrcPaddr = 0, aDstPaddr = 0;
    unsigned vSlot = 0, aSlot = 0;

    static MachineConfig
    makeConfig(bool weak_cap)
    {
        MachineConfig config;
        configureNode(config.node, DmaMethod::Cap);
        config.node.dma.weakCap = weak_cap;
        return config;
    }

    explicit CapPair(bool weak_cap = false)
        : machine(makeConfig(weak_cap)),
          node(machine.node(0)),
          kernel(node.kernel()),
          victim(kernel.createProcess("victim")),
          adversary(kernel.createProcess("adversary"))
    {
        prepareMachine(machine, DmaMethod::Cap);

        vSrc = kernel.allocate(victim, pageSize, Rights::ReadWrite);
        vDst = kernel.allocate(victim, pageSize, Rights::ReadWrite);
        const int vs = kernel.capGrant(victim, vSrc, pageSize,
                                       /*rate_class=*/0);
        EXPECT_GE(vs, 0);
        vSlot = static_cast<unsigned>(vs);
        EXPECT_TRUE(kernel.capExtend(victim, vSlot, vDst, pageSize));
        vSrcPaddr =
            kernel.translateFor(victim, vSrc, Rights::Read).paddr;
        vDstPaddr =
            kernel.translateFor(victim, vDst, Rights::Read).paddr;

        aSrc = kernel.allocate(adversary, pageSize, Rights::ReadWrite);
        aDst = kernel.allocate(adversary, pageSize, Rights::ReadWrite);
        const int as = kernel.capGrant(adversary, aSrc, pageSize,
                                       /*rate_class=*/1);
        EXPECT_GE(as, 0);
        aSlot = static_cast<unsigned>(as);
        EXPECT_TRUE(kernel.capExtend(adversary, aSlot, aDst, pageSize));
        aSrcPaddr =
            kernel.translateFor(adversary, aSrc, Rights::Read).paddr;
        aDstPaddr =
            kernel.translateFor(adversary, aDst, Rights::Read).paddr;
    }

    std::uint64_t victimWord() const
    {
        return victim.dmaGrant().capWords.back();
    }

    /** The adversary's most recently mapped presentation page — its
     *  own slot's, or the delegated slot's after capDelegate. */
    Addr advPage() const
    {
        return adversary.dmaGrant().capPageVaddrs.back();
    }

    std::uint64_t advWord() const
    {
        return adversary.dmaGrant().capWords.back();
    }

    /** Run the adversary's program; the victim just exits.  The
     *  adversary is launched (and so scheduled) first: the victim must
     *  still be alive at presentation time, or exit-time reaping would
     *  have torn its slot down already and every rejection would
     *  classify as NotValid instead of the fault under test. */
    void
    run(Program adv_prog)
    {
        Program victim_prog;
        victim_prog.exit();
        kernel.launch(adversary, std::move(adv_prog));
        kernel.launch(victim, std::move(victim_prog));
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

/** Outcome counts of the "cap" protocol rows in a span export. */
std::map<std::string, unsigned>
capOutcomes(const json::Value &spans)
{
    std::map<std::string, unsigned> out;
    for (const json::Value &s : spans["spans"].asArray()) {
        if (s["protocol"].asString() == "cap")
            ++out[s["outcome"].asString()];
    }
    return out;
}

TEST(CapProtection, ForgedCapwordRejected)
{
    CapPair rig;
    span::tracker().enable();

    // The adversary holds a legitimately delegated page for the
    // victim's slot (worst case: it can even reach the presentation
    // window), but presents a capword with a guessed secret.  The
    // 40-bit secret comparison must refuse it before any transfer
    // state is touched.
    ASSERT_TRUE(rig.kernel.capDelegate(rig.victim, rig.vSlot,
                                       rig.adversary));
    const std::uint64_t real = rig.advWord();
    const std::uint64_t forged = capfield::pack(
        rig.vSlot, capfield::genOf(real),
        capfield::secretOf(real) ^ 0xBADC0DEULL);

    std::uint64_t status = 0;
    Program prog;
    emitCapPresentationRaw(prog, rig.advPage(), forged, rig.vSrcPaddr,
                           rig.vDstPaddr, 64);
    prog.membar();
    prog.callback([&status](ExecContext &ctx) {
        status = ctx.reg(reg::v0);
    });
    prog.exit();
    rig.run(std::move(prog));

    DmaEngine &engine = rig.node.dmaEngine();
    EXPECT_EQ(status, dmastatus::failure);
    EXPECT_EQ(engine.numCapPresentations(), 1u);
    EXPECT_EQ(engine.numCapRejects(), 1u);
    EXPECT_EQ(engine.numCapStarts(), 0u);
    EXPECT_TRUE(engine.initiations().empty());
    ASSERT_NE(engine.cap(), nullptr);
    EXPECT_EQ(engine.cap()->forgedRejects(), 1u);

    const auto outcomes = capOutcomes(drainSpans());
    EXPECT_EQ(outcomes.count("completed"), 0u);
    EXPECT_EQ(outcomes.at("rejected"), 1u);
}

TEST(CapProtection, DelegateThenRevokeStaleCapwordFailsClosed)
{
    CapPair rig;
    span::tracker().enable();

    // Delegate-then-revoke race: the adversary keeps the capword it
    // was legitimately handed, the victim revokes.  The generation
    // bump must kill the stale word while the kernel re-arms the
    // owner with a fresh secret.
    ASSERT_TRUE(rig.kernel.capDelegate(rig.victim, rig.vSlot,
                                       rig.adversary));
    const std::uint64_t stale = rig.advWord();
    ASSERT_TRUE(rig.kernel.capRevoke(rig.victim, rig.vSlot));
    const std::uint64_t fresh = rig.victimWord();
    ASSERT_NE(stale, fresh);
    EXPECT_NE(capfield::genOf(stale), capfield::genOf(fresh));

    // The re-armed owner word is live right away: the engine's own
    // table accepts it over the granted spans.  (Checked before the
    // run — process exit reaps the slot.)
    ASSERT_NE(rig.node.dmaEngine().cap(), nullptr);
    EXPECT_EQ(rig.node.dmaEngine().cap()->check(
                  rig.vSlot, fresh, rig.vSrcPaddr, rig.vDstPaddr, 64),
              CapFault::None);

    std::uint64_t status = 0;
    Program prog;
    emitCapPresentationRaw(prog, rig.advPage(), stale, rig.vSrcPaddr,
                           rig.vDstPaddr, 64);
    prog.membar();
    prog.callback([&status](ExecContext &ctx) {
        status = ctx.reg(reg::v0);
    });
    prog.exit();
    rig.run(std::move(prog));

    DmaEngine &engine = rig.node.dmaEngine();
    EXPECT_EQ(status, dmastatus::failure);
    EXPECT_EQ(engine.numCapRejects(), 1u);
    EXPECT_TRUE(engine.initiations().empty());
    ASSERT_NE(engine.cap(), nullptr);
    EXPECT_EQ(engine.cap()->staleRejects(), 1u);

    const auto outcomes = capOutcomes(drainSpans());
    EXPECT_EQ(outcomes.count("completed"), 0u);
    EXPECT_EQ(outcomes.at("rejected"), 1u);
}

TEST(CapProtection, MidTransferRevocationSuppressesThePayload)
{
    CapPair rig;

    // Sentinel in the victim's source frame; the destination frame
    // starts zeroed.  If the revocation loses the race, the sentinel
    // lands in the destination.
    rig.node.memory().writeInt(rig.vSrcPaddr, 0x5EED5EED5EED5EEDULL, 8);

    Kernel *kernel = &rig.kernel;
    Process *victim = &rig.victim;
    const unsigned slot = rig.vSlot;
    std::uint64_t status = 0;

    // The victim itself presents a perfectly valid full-page transfer,
    // then the kernel revokes the slot while the payload is still on
    // the bus (the commit has drained — the membar guarantees it — but
    // a page transfer takes thousands of bus cycles).
    Program prog;
    emitCapPresentationRaw(prog, rig.victim.dmaGrant().capPageVaddrs[0],
                           rig.victimWord(), rig.vSrcPaddr,
                           rig.vDstPaddr, pageSize);
    prog.membar();
    prog.callback([kernel, victim, slot](ExecContext &) {
        EXPECT_TRUE(kernel->capRevoke(*victim, slot));
    });
    const Addr status_vaddr =
        rig.victim.dmaGrant().capPageVaddrs[0] + cappage::word;
    const int poll = prog.here();
    prog.load(reg::v0, status_vaddr);
    prog.membar();
    prog.compute(8);
    prog.branchEq(reg::v0, dmastatus::pending, poll);
    prog.callback([&status](ExecContext &ctx) {
        status = ctx.reg(reg::v0);
    });
    prog.exit();

    Program adv;
    adv.exit();
    rig.kernel.launch(rig.adversary, std::move(adv));
    rig.kernel.launch(rig.victim, std::move(prog));
    rig.machine.start();
    ASSERT_TRUE(rig.machine.run(60 * tickPerSec));

    DmaEngine &engine = rig.node.dmaEngine();
    // The transfer really started — and was then cancelled in flight,
    // so the slot reports failure and the payload never arrived.
    EXPECT_EQ(engine.numCapStarts(), 1u);
    EXPECT_EQ(engine.numCapCancels(), 1u);
    EXPECT_EQ(status, dmastatus::failure);
    EXPECT_EQ(rig.node.memory().readInt(rig.vDstPaddr, 8), 0u);
}

TEST(CapProtection, CrossTenantSpanEscapeRejected)
{
    CapPair rig;
    span::tracker().enable();

    // The adversary's capword is perfectly valid — but it names the
    // victim's frame as the source (and, in a second presentation, as
    // the destination).  The span check must confine both endpoints
    // to the adversary's own grant.
    std::uint64_t status = 0;
    Program prog;
    emitCapPresentationRaw(prog, rig.advPage(), rig.advWord(),
                           rig.vSrcPaddr, rig.aDstPaddr, 64);
    prog.membar();
    emitCapPresentationRaw(prog, rig.advPage(), rig.advWord(),
                           rig.aSrcPaddr, rig.vDstPaddr, 64);
    prog.membar();
    prog.callback([&status](ExecContext &ctx) {
        status = ctx.reg(reg::v0);
    });
    prog.exit();
    rig.run(std::move(prog));

    DmaEngine &engine = rig.node.dmaEngine();
    EXPECT_EQ(status, dmastatus::failure);
    EXPECT_EQ(engine.numCapPresentations(), 2u);
    EXPECT_EQ(engine.numCapRejects(), 2u);
    EXPECT_TRUE(engine.initiations().empty());
    ASSERT_NE(engine.cap(), nullptr);
    EXPECT_EQ(engine.cap()->spanRejects(), 2u);

    const auto outcomes = capOutcomes(drainSpans());
    EXPECT_EQ(outcomes.count("completed"), 0u);
    EXPECT_EQ(outcomes.at("rejected"), 2u);
}

TEST(CapProtection, WeakCapReopensTheHoleAndTheOracleCatchesIt)
{
    // weakCap mirrors weakRecognizer/weakRing: with the table check
    // disabled, the ex-delegate's stale capword actually moves bytes
    // out of the victim's frame — and the model checker's cap
    // invariants must flag it.
    CapPair rig(/*weak_cap=*/true);

    ASSERT_TRUE(rig.kernel.capDelegate(rig.victim, rig.vSlot,
                                       rig.adversary));
    const std::uint64_t stale = rig.advWord();
    const Addr page = rig.advPage();
    ASSERT_TRUE(rig.kernel.capRevoke(rig.victim, rig.vSlot));

    Program prog;
    emitCapPresentationRaw(prog, page, stale, rig.vSrcPaddr,
                           rig.aDstPaddr, 64);
    // Poll to completion: the theft must finish while the process
    // (and its slot) is still alive — exit-time reaping cancels.
    const int poll = prog.here();
    prog.load(reg::v0, page + cappage::word);
    prog.membar();
    prog.compute(8);
    prog.branchEq(reg::v0, dmastatus::pending, poll);
    prog.exit();
    rig.run(std::move(prog));

    // The theft really started, through the victim's slot.
    DmaEngine &engine = rig.node.dmaEngine();
    ASSERT_EQ(engine.initiations().size(), 1u);
    const auto &rec = engine.initiations().front();
    EXPECT_TRUE(rec.viaCap);
    EXPECT_EQ(rec.capSlot, rig.vSlot);
    EXPECT_EQ(rec.src, rig.vSrcPaddr);

    // Feed the run to the checker's oracle exactly as the runner
    // does, with the grants from the kernel's ledger: the revocation
    // struck the adversary from the delegate list, so both cap-forgery
    // and cap-revocation must fire.
    check::RunArtifacts art = check::grantArtifacts(rig.kernel, engine);
    EXPECT_TRUE(art.capEnabled);
    EXPECT_EQ(art.capSlotOwner.at(rig.vSlot), rig.victim.pid());
    EXPECT_EQ(art.capRevoked, std::vector<unsigned>{rig.vSlot});
    EXPECT_TRUE(art.capDelegates.empty());
    art.machineFinished = true;
    art.victimFinished = true;
    art.victimStatus = dmastatus::failure;

    const std::vector<check::Violation> violations =
        check::checkInvariants(art);
    bool forgery = false, revocation = false;
    for (const check::Violation &v : violations) {
        forgery = forgery || v.invariant == "cap-forgery";
        revocation = revocation || v.invariant == "cap-revocation";
    }
    EXPECT_TRUE(forgery)
        << "oracle missed the weakCap forgery (" << violations.size()
        << " violations total)";
    EXPECT_TRUE(revocation)
        << "oracle missed the weakCap revocation race ("
        << violations.size() << " violations total)";
}

} // namespace
} // namespace uldma
