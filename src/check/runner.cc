#include "check/runner.hh"

#include <algorithm>
#include <iterator>
#include <memory>

#include "cap/cap_params.hh"
#include "core/machine.hh"
#include "core/methods.hh"
#include "cpu/exec_context.hh"
#include "cpu/program.hh"
#include "os/scheduler.hh"
#include "sim/ticks.hh"
#include "util/fnv.hh"
#include "util/logging.hh"
#include "vm/layout.hh"

namespace uldma::check {
namespace {

/// Victim transfer size (fits one page at both endpoints).
constexpr Addr payloadSize = 192;
/// Size the adversary's own (legitimate) transfers would carry.
constexpr Addr burstBytes = 48;
/// Byte pattern of the victim's source buffer.
constexpr std::uint8_t pattern = 0xD5;

/** Micro-ops of one adversary gap burst for @p method. */
std::uint64_t
burstLength(DmaMethod method, bool faults)
{
    if (!faults)
        return 1;   // one benign compute op per gap
    if (method == DmaMethod::Ring)
        return 6;   // malicious descriptor enqueue + arm + doorbell
    if (method == DmaMethod::Cap)
        return 6;   // hostile presentation: 3 arg stores + membar +
                    // capword commit + status load
    switch (engineModeFor(method)) {
      case EngineMode::ShadowPair: return 2;   // probe LOAD + dangling STORE
      case EngineMode::KeyBased: return 2;     // two forged-key STOREs
      default: return 3;                       // competing ST/LD/LD sequence
    }
}

void
mixExecContext(Fnv1a &f, ExecContext &ctx)
{
    f.mix(static_cast<std::uint64_t>(ctx.pc()));
    f.mix(static_cast<std::uint64_t>(ctx.state()));
    f.mix(ctx.instructionsRetired());
    for (int r = 0; r < static_cast<int>(numRegs); ++r)
        f.mix(ctx.reg(r));
}

} // namespace

RunResult
runSchedule(const RunnerConfig &config,
            const std::vector<std::uint64_t> &preemptAfter)
{
    const DmaMethod method = config.method;

    MachineConfig mconfig;
    // The checker builds thousands of machines per exploration.  Each
    // takes the previous one's DRAM mapping (mem/physical_memory.hh)
    // and pays for re-zeroing the pages that run wrote, not for its
    // size; 2 MiB holds the 4 data pages used.
    mconfig.node.memBytes = 2 * 1024 * 1024;
    configureNode(mconfig.node, method);
    mconfig.node.dma.weakRecognizer = config.weakRecognizer;
    mconfig.node.dma.weakRing = config.weakRing;
    mconfig.node.dma.weakCap = config.weakCap;

    // IOMMU mode (weakIommu implies it): descriptors carry virtual
    // addresses and the engine translates them.  A deliberately tiny
    // IOTLB keeps walks on the explored paths.
    const bool iommuOn = config.useIommu || config.weakIommu;
    if (iommuOn) {
        mconfig.node.dma.iommu.enabled = true;
        mconfig.node.dma.iommu.iotlbEntries = 8;
        mconfig.node.dma.iommu.iotlbWays = 2;
        mconfig.node.dma.iommu.pinPolicy = PinPolicy::OnMap;
        mconfig.node.dma.weakIommu = config.weakIommu;
    }

    ScriptedScheduler *sched = nullptr;
    mconfig.node.makeScheduler = [&]() {
        auto s = std::make_unique<ScriptedScheduler>(preemptionScript(
            /*victim=*/1, /*intruder=*/2, preemptAfter,
            burstLength(method, config.faults)));
        sched = s.get();
        return s;
    };

    Machine machine(mconfig);
    prepareMachine(machine, method);
    Kernel &kernel = machine.node(0).kernel();
    DmaEngine &engine = machine.node(0).dmaEngine();
    PhysicalMemory &mem = machine.node(0).memory();

    Process &victim = kernel.createProcess("victim");
    Process &adversary = kernel.createProcess("adversary");
    ULDMA_ASSERT(prepareProcess(kernel, victim, method),
                 "victim grant failed for ", toString(method));
    ULDMA_ASSERT(prepareProcess(kernel, adversary, method),
                 "adversary grant failed for ", toString(method));

    // Buffers: one source and one destination page per process, all
    // shadow-mapped (the adversary legitimately owns DMA-able pages —
    // the question is whether it can abuse the victim's).
    const Addr vsrc = kernel.allocate(victim, pageSize, Rights::ReadWrite);
    const Addr vdst = kernel.allocate(victim, pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(victim, vsrc, pageSize);
    kernel.createShadowMappings(victim, vdst, pageSize);
    const Addr asrc = kernel.allocate(adversary, pageSize, Rights::ReadWrite);
    const Addr adst = kernel.allocate(adversary, pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(adversary, asrc, pageSize);
    kernel.createShadowMappings(adversary, adst, pageSize);
    if (method == DmaMethod::Ring && iommuOn) {
        // IOMMU mode: descriptors carry virtual addresses, so the I/O
        // page table (not the kernel frame table) confines them — map
        // each process's own buffers into its own context, pinned.
        kernel.iommuMapRange(victim, vsrc, pageSize, /*pin=*/true);
        kernel.iommuMapRange(victim, vdst, pageSize, /*pin=*/true);
        kernel.iommuMapRange(adversary, asrc, pageSize, /*pin=*/true);
        kernel.iommuMapRange(adversary, adst, pageSize, /*pin=*/true);
    } else if (method == DmaMethod::Ring) {
        // Ring descriptors name physical addresses, so the kernel's
        // frame table (not the MMU) is what confines them: authorize
        // each process's own buffers for its own ring.
        kernel.authorizeRingDma(victim, vsrc, pageSize);
        kernel.authorizeRingDma(victim, vdst, pageSize);
        kernel.authorizeRingDma(adversary, asrc, pageSize);
        kernel.authorizeRingDma(adversary, adst, pageSize);
    }

    // Capability scenario (docs/CAPABILITIES.md): three slots.
    //  - B: the victim grants a capability over its buffers, delegates
    //    it to the adversary, then revokes it — all at setup, so any
    //    use of the stale delegated word is a violation without a
    //    timing-dependent oracle (true mid-transfer revocation is unit
    //    tested via TransferEngine::cancel).
    //  - A: the victim's own working slot, granted after B so the
    //    victim's emitInitiation (which presents capSlots.back()) uses
    //    the healthy one.
    //  - C: the adversary's own legitimate slot over its own buffers —
    //    the valid word a span-escape attack presents while naming the
    //    victim's frames.
    int slotB = -1, slotC = -1;
    std::uint64_t staleWordB = 0, validWordC = 0;
    if (method == DmaMethod::Cap) {
        slotB = kernel.capGrant(victim, vsrc, pageSize, /*rate_class=*/1);
        ULDMA_ASSERT(slotB >= 0, "cap grant (slot B) failed");
        kernel.capExtend(victim, static_cast<unsigned>(slotB), vdst,
                         pageSize);
        ULDMA_ASSERT(kernel.capDelegate(victim,
                                        static_cast<unsigned>(slotB),
                                        adversary),
                     "cap delegation failed");
        ULDMA_ASSERT(kernel.capRevoke(victim,
                                      static_cast<unsigned>(slotB)),
                     "cap revocation failed");
        const int slotA =
            kernel.capGrant(victim, vsrc, pageSize, /*rate_class=*/0);
        ULDMA_ASSERT(slotA >= 0, "cap grant (slot A) failed");
        kernel.capExtend(victim, static_cast<unsigned>(slotA), vdst,
                         pageSize);
        slotC = kernel.capGrant(adversary, asrc, pageSize,
                                /*rate_class=*/2);
        ULDMA_ASSERT(slotC >= 0, "cap grant (slot C) failed");
        kernel.capExtend(adversary, static_cast<unsigned>(slotC), adst,
                         pageSize);

        // The adversary's grant view: the stale delegated word for B
        // (revocation left delegate copies untouched — that is the
        // race under test) and its own valid word for C.
        const DmaGrant &ag = adversary.dmaGrant();
        for (std::size_t i = 0; i < ag.capSlots.size(); ++i) {
            if (ag.capSlots[i] == static_cast<unsigned>(slotB))
                staleWordB = ag.capWords[i];
            if (ag.capSlots[i] == static_cast<unsigned>(slotC))
                validWordC = ag.capWords[i];
        }
        ULDMA_ASSERT(staleWordB != 0 && validWordC != 0,
                     "adversary capability words missing");
    }

    const Addr vsrc_p = kernel.translateFor(victim, vsrc, Rights::Read).paddr;
    const Addr vdst_p = kernel.translateFor(victim, vdst, Rights::Write).paddr;
    const Addr asrc_p =
        kernel.translateFor(adversary, asrc, Rights::Read).paddr;
    const Addr adst_p =
        kernel.translateFor(adversary, adst, Rights::Write).paddr;

    mem.fill(vsrc_p, pattern, payloadSize);
    mem.fill(vdst_p, 0x00, payloadSize);
    mem.fill(asrc_p, 0xA5, burstBytes);
    mem.fill(adst_p, 0x00, burstBytes);

    // The run's own intent: the victim's transfer (and, below, the
    // adversary's own shadow-pair transfer).  Every grant comes from
    // the kernel's ledger after the run (grantArtifacts).
    std::vector<AllowedTransfer> allowed = {
        {victim.pid(), vsrc_p, vdst_p, payloadSize}};

    // Victim: one DMA initiation, then capture the status register.
    std::uint64_t status = 0;
    Program vp;
    emitInitiation(vp, kernel, victim, method, vsrc, vdst, payloadSize);
    const std::uint64_t initiationOps = vp.size();
    vp.callback([&status](ExecContext &ctx) { status = ctx.reg(reg::v0); });
    vp.exit();

    for (std::uint64_t b : preemptAfter) {
        ULDMA_ASSERT(b <= initiationOps, "preemption boundary ", b,
                     " beyond initiation length ", initiationOps);
    }

    // Adversary: one burst per preemption gap.  With faults enabled
    // the burst is the nastiest protocol-specific shadow traffic the
    // process can legally issue; otherwise it is benign compute.
    Program ap;
    if (config.faults && method == DmaMethod::Ring) {
        // Ring attack: enqueue a descriptor into the adversary's OWN
        // ring that names the *victim's* source frame, arm it (ctrl
        // last) and ring the doorbell with the adversary's own valid
        // key.  The engine's per-context frame check must reject it;
        // with weakRing injected the theft goes through and the
        // ring-isolation invariant catches it.
        const DmaGrant &ag = adversary.dmaGrant();
        ULDMA_ASSERT(ag.ringConfigured && ag.keyContext.has_value(),
                     "ring adversary without a configured ring");
        const std::uint64_t payload =
            keyfield::pack(ag.key, *ag.keyContext);
        const Addr doorbell = ag.contextPageVaddr + ctxpage::ringDoorbell;
        for (std::size_t i = 0; i < preemptAfter.size(); ++i) {
            const Addr desc =
                ag.ringDescVaddr +
                Addr(i % ag.ringSlots) * ringdesc::descBytes;
            ap.store(desc + ringdesc::srcOff, vsrc_p);
            ap.withLabel("ring attack: desc.src = victim frame");
            ap.store(desc + ringdesc::dstOff, adst_p);
            ap.store(desc + ringdesc::sizeOff, burstBytes);
            ap.store(desc + ringdesc::ctrlOff, ringdesc::ctrl::valid);
            ap.membar();
            ap.store(doorbell, payload);
            ap.withLabel("ring attack: doorbell");
        }
    } else if (config.faults && method == DmaMethod::Cap) {
        // Capability attacks, one per gap, rotating three shapes: the
        // stale delegated word (revocation race), a forged secret on
        // the delegated page (forgery), and the adversary's own valid
        // word naming the victim's frame (span escape).  The sound
        // engine rejects all three at the commit; the weakened one
        // starts them and the cap-* invariants catch the transfers.
        const Addr pageB = capVirtualBase + Addr(slotB) * pageSize;
        const Addr pageC = capVirtualBase + Addr(slotC) * pageSize;
        const std::uint64_t forgedB = capfield::pack(
            static_cast<unsigned>(slotB), 0, 0xBADC0DEULL);
        for (std::size_t i = 0; i < preemptAfter.size(); ++i) {
            switch (i % 3) {
              case 0:
                emitCapPresentationRaw(ap, pageB, staleWordB, vsrc_p,
                                       vdst_p, burstBytes);
                break;
              case 1:
                emitCapPresentationRaw(ap, pageB, forgedB, vsrc_p,
                                       vdst_p, burstBytes);
                break;
              default:
                emitCapPresentationRaw(ap, pageC, validWordC, vsrc_p,
                                       adst_p, burstBytes);
                break;
            }
        }
    } else if (config.faults) {
        const Addr s_asrc = kernel.shadowVaddrFor(adversary, asrc);
        const Addr s_adst = kernel.shadowVaddrFor(adversary, adst);
        switch (engineModeFor(method)) {
          case EngineMode::ShadowPair:
            // The LOAD completes whatever is latched (the previous
            // burst's store → the adversary's own transfer, which is
            // declared as intended below); the STORE is left dangling
            // to tempt the victim's completing LOAD.
            for (std::size_t i = 0; i < preemptAfter.size(); ++i) {
                ap.load(reg::t0, s_asrc);
                ap.store(s_adst, burstBytes);
            }
            if (!preemptAfter.empty())
                allowed.push_back(
                    {adversary.pid(), asrc_p, adst_p, burstBytes});
            break;
          case EngineMode::KeyBased: {
            // Forged key aimed at the *victim's* register context.
            ULDMA_ASSERT(victim.dmaGrant().keyContext.has_value(),
                         "key-based victim without a context");
            const std::uint64_t forged = keyfield::pack(
                0xBADC0DEULL, *victim.dmaGrant().keyContext);
            for (std::size_t i = 0; i < preemptAfter.size(); ++i) {
                ap.store(s_adst, forged);
                ap.store(s_asrc, forged);
            }
            break;
          }
          default:
            // Competing repeated-passing traffic at the adversary's
            // own addresses, shaped to hijack a half-done sequence if
            // the recognizer fails to reset.
            for (std::size_t i = 0; i < preemptAfter.size(); ++i) {
                ap.store(s_adst, burstBytes);
                ap.load(reg::t0, s_asrc);
                ap.load(reg::t1, s_adst);
            }
            break;
        }
    } else {
        for (std::size_t i = 0; i < preemptAfter.size(); ++i)
            ap.compute(1);
    }
    ap.exit();

    // Snapshot a state hash at each delivered preemption: engine
    // protocol state plus both execution contexts.  Equal hashes mean
    // equal futures, which is what the explorer's pruning relies on.
    RunResult result;
    result.boundarySpace = initiationOps + 1;
    machine.setContextSwitchObserver(
        0, [&](Tick, Process *, Process *next) {
            if (sched == nullptr || next == nullptr ||
                next->pid() != adversary.pid()) {
                return;
            }
            if (sched->dispatched(adversary.pid()) <=
                result.boundaryHashes.size()) {
                return;   // drain-phase dispatch, not a preemption
            }
            Fnv1a f;
            f.mix(engine.stateHash());
            mixExecContext(f, victim.context());
            mixExecContext(f, adversary.context());
            result.boundaryHashes.push_back(f.h);
        });

    kernel.launch(victim, std::move(vp));
    kernel.launch(adversary, std::move(ap));
    machine.start();
    const bool finished = machine.run(tickPerSec / 100);

    RunArtifacts art = grantArtifacts(kernel, engine);
    art.allowed = std::move(allowed);
    art.victimPid = victim.pid();
    art.machineFinished = finished;
    art.victimFinished = victim.context().state() == RunState::Exited;
    art.victimStatus = status;
    std::uint8_t delivered[payloadSize];
    mem.read(vdst_p, delivered, payloadSize);
    art.payloadDelivered =
        std::all_of(std::begin(delivered), std::end(delivered),
                    [](std::uint8_t b) { return b == pattern; });

    result.outcome.finished = finished;
    result.outcome.status = status;
    result.outcome.initiations = engine.numInitiations();
    result.outcome.stateHash = engine.stateHash();
    result.outcome.violations = checkInvariants(art);
    return result;
}

} // namespace uldma::check
