#include "core/attack.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/logging.hh"
#include "util/random.hh"
#include "util/strutil.hh"

namespace uldma {

namespace {

/** Byte patterns for content checks. */
constexpr std::uint8_t victimPattern = 0xAA;
constexpr std::uint8_t attackerPattern = 0x55;

/** True when @p kernel granted some process @p need on the frame
 *  holding @p paddr (its grant ledger, Kernel::grants()). */
bool
someoneGranted(const Kernel &kernel, Addr paddr, Rights need)
{
    const std::vector<Grant> &grants = kernel.grants();
    return std::any_of(grants.begin(), grants.end(), [&](const Grant &g) {
        return g.kind == Grant::Kind::Frames && paddr >= g.base &&
               paddr < g.base + g.bytes && allows(g.rights, need);
    });
}

/** Common two-process (victim + attacker) machine for the figures. */
struct FigureSetup
{
    std::unique_ptr<Machine> machine;
    Process *legit = nullptr;
    Process *mal = nullptr;
    Addr bufA = 0, bufB = 0;        ///< victim source / destination
    Addr malA = 0;                  ///< attacker's read-only view of A
    Addr bufC = 0, bufC2 = 0;       ///< attacker-owned pages
    Addr paddrA = 0, paddrB = 0, paddrC = 0;
    std::uint64_t legitStatus = dmastatus::pending;

    FigureSetup(DmaMethod method,
                std::vector<ScriptedScheduler::Slice> script)
    {
        MachineConfig config;
        configureNode(config.node, method);
        config.node.makeScheduler = [script = std::move(script)]() {
            return std::make_unique<ScriptedScheduler>(script);
        };
        machine = std::make_unique<Machine>(config);
        prepareMachine(*machine, method);

        Kernel &kernel = machine->node(0).kernel();
        legit = &kernel.createProcess("legit");
        mal = &kernel.createProcess("malicious");
        prepareProcess(kernel, *legit, method);
        prepareProcess(kernel, *mal, method);

        bufA = kernel.allocate(*legit, pageSize, Rights::ReadWrite);
        bufB = kernel.allocate(*legit, pageSize, Rights::ReadWrite);
        kernel.createShadowMappings(*legit, bufA, pageSize);
        kernel.createShadowMappings(*legit, bufB, pageSize);

        bufC = kernel.allocate(*mal, pageSize, Rights::ReadWrite);
        bufC2 = kernel.allocate(*mal, pageSize, Rights::ReadWrite);
        kernel.createShadowMappings(*mal, bufC, pageSize);
        kernel.createShadowMappings(*mal, bufC2, pageSize);

        paddrA = kernel.translateFor(*legit, bufA, Rights::Read).paddr;
        paddrB = kernel.translateFor(*legit, bufB, Rights::Write).paddr;
        paddrC = kernel.translateFor(*mal, bufC, Rights::Read).paddr;

        // Distinctive contents.
        PhysicalMemory &mem = machine->node(0).memory();
        mem.fill(paddrA, victimPattern, pageSize);
        mem.fill(paddrC, attackerPattern, pageSize);
    }

    /** Give the attacker a read-only shared view of A (figure 6). */
    void
    shareAWithAttacker()
    {
        Kernel &kernel = machine->node(0).kernel();
        malA = kernel.mapShared(*legit, bufA, pageSize, *mal,
                                Rights::Read);
        kernel.createShadowMappings(*mal, malA, pageSize);
    }

    AttackOutcome
    audit(Addr intended_size)
    {
        AttackOutcome outcome;
        outcome.legitStatus = legitStatus;
        DmaEngine &engine = machine->node(0).dmaEngine();

        bool intended_started = false;
        for (const auto &rec : engine.initiations()) {
            if (rec.viaKernel)
                continue;
            ++outcome.initiations;
            const bool is_intended =
                pageNumber(rec.src) == pageNumber(paddrA) &&
                pageNumber(rec.dst) == pageNumber(paddrB);
            if (is_intended) {
                intended_started = true;
            } else if (!outcome.wrongTransferStarted) {
                outcome.wrongTransferStarted = true;
                outcome.wrongSrc = rec.src;
                outcome.wrongDst = rec.dst;
            }
            const bool uniform =
                std::all_of(rec.contributors.begin(),
                            rec.contributors.end(), [&](Pid p) {
                                return p == rec.contributors.front();
                            });
            if (!uniform)
                outcome.crossProcessContributors = true;
        }

        outcome.legitDeceived =
            intended_started && legitStatus == dmastatus::failure;

        // Did the attacker's bytes land in B?
        PhysicalMemory &mem = machine->node(0).memory();
        std::vector<std::uint8_t> b(intended_size);
        mem.read(paddrB, b.data(), b.size());
        outcome.dstGotAttackerData =
            std::all_of(b.begin(), b.end(), [](std::uint8_t v) {
                return v == attackerPattern;
            });
        return outcome;
    }
};

} // namespace

void
appendAdversarialOps(Program &program, Kernel &kernel, Process &process,
                     Addr own_page1, Addr own_page2,
                     Addr shared_readonly_vaddr, Random &rng, unsigned ops,
                     bool hijacker)
{
    if (hijacker) {
        // A dedicated hijacker: spam loads of its own page's shadow
        // address (with barriers so every load reaches the engine),
        // hoping to slot into a victim's half-finished sequence — the
        // figure-5 strategy, automated.
        const Addr spam = kernel.shadowVaddrFor(process, own_page1);
        for (unsigned op = 0; op < ops; ++op) {
            program.load(reg::t0, spam);
            program.membar();
        }
        return;
    }

    // Random access mix over everything the attacker can name.
    struct Target { Addr shadow; bool writable; };
    std::vector<Target> targets = {
        {kernel.shadowVaddrFor(process, own_page1), true},
        {kernel.shadowVaddrFor(process, own_page1) + 64, true},
        {kernel.shadowVaddrFor(process, own_page2), true},
    };
    if (shared_readonly_vaddr != 0) {
        targets.push_back(
            {kernel.shadowVaddrFor(process, shared_readonly_vaddr),
             false});
    }
    for (unsigned op = 0; op < ops; ++op) {
        const Target &t = targets[rng.below(targets.size())];
        if (t.writable && rng.chance(0.5)) {
            program.store(t.shadow, rng.inRange(1, 128));
        } else {
            program.load(reg::t0, t.shadow);
        }
        if (rng.chance(0.3))
            program.membar();
    }
}

AttackOutcome
runFigure5Attack()
{
    // Victim program (Repeated3 emission): LD(A) MB ST(B) LD(A).
    // Attacker: ST(foo) LD(foo) LD(C) LD(C) — foo is an attacker page.
    //
    // Script (matching figure 5's interleaving):
    //   legit 1 instr : LD shadow(A)
    //   mal   3 instr : ST shadow(foo), LD shadow(foo), LD shadow(C)
    //   legit 2 instr : MB, ST shadow(B)
    //   mal   rest    : LD shadow(C)  -> engine starts C -> B
    //   legit rest    : LD shadow(A), record status
    const Pid legit_pid = 1, mal_pid = 2;
    FigureSetup setup(
        DmaMethod::Repeated3,
        {{legit_pid, 1}, {mal_pid, 3}, {legit_pid, 2}, {mal_pid, 10},
         {legit_pid, 10}});

    Kernel &kernel = setup.machine->node(0).kernel();
    const Addr size = 256;

    Program legit_prog;
    emitInitiation(legit_prog, kernel, *setup.legit, DmaMethod::Repeated3,
                   setup.bufA, setup.bufB, size);
    legit_prog.callback([&](ExecContext &ctx) {
        setup.legitStatus = ctx.reg(reg::v0);
    });
    legit_prog.exit();

    const Addr shadow_foo = kernel.shadowVaddrFor(*setup.mal, setup.bufC2);
    const Addr shadow_c = kernel.shadowVaddrFor(*setup.mal, setup.bufC);
    Program mal_prog;
    mal_prog.store(shadow_foo, 0xF00);
    mal_prog.load(reg::t0, shadow_foo);
    mal_prog.load(reg::t1, shadow_c);
    mal_prog.load(reg::t2, shadow_c);
    mal_prog.exit();

    kernel.launch(*setup.legit, std::move(legit_prog));
    kernel.launch(*setup.mal, std::move(mal_prog));
    setup.machine->start();
    setup.machine->run(tickPerSec);

    return setup.audit(size);
}

AttackOutcome
runFigure6Attack()
{
    // Victim (Repeated4 emission): ST(B) LD(A) MB ST(B) LD(A).
    // Attacker has read-only shared access to A and issues one LD(A)
    // between the victim's 4th and 5th ops.
    //
    // Script (figure 6):
    //   legit 4 instr : ST(B), LD(A), MB, ST(B)
    //   mal   rest    : LD(A)  -> engine starts A -> B, tells mal OK
    //   legit rest    : LD(A)  -> told FAILURE (deceived)
    const Pid legit_pid = 1, mal_pid = 2;
    FigureSetup setup(DmaMethod::Repeated4,
                      {{legit_pid, 4}, {mal_pid, 10}, {legit_pid, 10}});
    setup.shareAWithAttacker();

    Kernel &kernel = setup.machine->node(0).kernel();
    const Addr size = 256;

    Program legit_prog;
    emitInitiation(legit_prog, kernel, *setup.legit, DmaMethod::Repeated4,
                   setup.bufA, setup.bufB, size);
    legit_prog.callback([&](ExecContext &ctx) {
        setup.legitStatus = ctx.reg(reg::v0);
    });
    legit_prog.exit();

    const Addr mal_shadow_a =
        kernel.shadowVaddrFor(*setup.mal, setup.malA);
    Program mal_prog;
    mal_prog.load(reg::t0, mal_shadow_a);
    mal_prog.exit();

    kernel.launch(*setup.legit, std::move(legit_prog));
    kernel.launch(*setup.mal, std::move(mal_prog));
    setup.machine->start();
    setup.machine->run(tickPerSec);

    return setup.audit(size);
}

RandomAttackResult
runRandomizedAttack(const RandomAttackConfig &config)
{
    MachineConfig mc;
    configureNode(mc.node, config.method);
    mc.node.makeScheduler = [&]() {
        return std::make_unique<RandomScheduler>(config.seed,
                                                 config.maxSlice);
    };
    Machine machine(mc);
    prepareMachine(machine, config.method);
    Kernel &kernel = machine.node(0).kernel();

    // Victim with private A (source) and B (destination).
    Process &legit = kernel.createProcess("legit");
    ULDMA_ASSERT(prepareProcess(kernel, legit, config.method),
                 "victim could not get a context");
    const Addr bufA = kernel.allocate(legit, pageSize, Rights::ReadWrite);
    const Addr bufB = kernel.allocate(legit, pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(legit, bufA, pageSize);
    kernel.createShadowMappings(legit, bufB, pageSize);
    const Addr paddrA = kernel.translateFor(legit, bufA,
                                            Rights::Read).paddr;
    const Addr paddrB = kernel.translateFor(legit, bufB,
                                            Rights::Write).paddr;

    const Addr size = 128;
    std::uint64_t legit_successes = 0;

    Program legit_prog;
    for (unsigned i = 0; i < config.legitIterations; ++i) {
        emitInitiation(legit_prog, kernel, legit, config.method,
                       bufA, bufB, size);
        legit_prog.callback([&legit_successes](ExecContext &ctx) {
            const std::uint64_t status = ctx.reg(reg::v0);
            if (status != dmastatus::failure)
                ++legit_successes;
        });
    }
    legit_prog.exit();
    kernel.launch(legit, std::move(legit_prog));

    // Attackers: own pages (rw) + read-only view of A, issuing random
    // shadow accesses.
    Random rng(config.seed * 0x9E3779B97F4A7C15ULL + 1);
    for (unsigned m = 0; m < config.malProcesses; ++m) {
        Process &mal = kernel.createProcess(csprintf("mal%u", m));
        prepareProcess(kernel, mal, config.method);
        const Addr c1 = kernel.allocate(mal, pageSize, Rights::ReadWrite);
        const Addr c2 = kernel.allocate(mal, pageSize, Rights::ReadWrite);
        kernel.createShadowMappings(mal, c1, pageSize);
        kernel.createShadowMappings(mal, c2, pageSize);
        const Addr mal_a = kernel.mapShared(legit, bufA, pageSize, mal,
                                            Rights::Read);
        kernel.createShadowMappings(mal, mal_a, pageSize);

        Program mal_prog;
        appendAdversarialOps(mal_prog, kernel, mal, c1, c2, mal_a, rng,
                             config.malOps, /*hijacker=*/m == 0);
        mal_prog.exit();
        kernel.launch(mal, std::move(mal_prog));
    }

    machine.start();
    machine.run(10 * tickPerSec);

    // Audit: the victim's private pages are A (shared read-only with
    // the attackers) and B (no attacker access).  Any started transfer
    // that writes a victim page other than the intended A -> B, or
    // reads from B, harms the victim.  As a cross-check, every
    // initiation must also satisfy the pairwise-achievability bound:
    // some contributing process can read the source and some
    // contributing process can write the destination (the rights the
    // shadow mappings enforce per access).
    RandomAttackResult result;
    result.legitSuccesses = legit_successes;
    const Addr pageA = pageNumber(paddrA);
    const Addr pageB = pageNumber(paddrB);
    for (const auto &rec : machine.node(0).dmaEngine().initiations()) {
        if (rec.viaKernel)
            continue;
        ++result.initiations;
        const Addr src_page = pageNumber(rec.src);
        const Addr dst_page = pageNumber(rec.dst);
        const bool intended = src_page == pageA && dst_page == pageB;
        if (intended)
            ++result.intendedTransfers;

        const bool harms_victim =
            !intended &&
            (dst_page == pageA || dst_page == pageB || src_page == pageB);
        // Per-access rights must always hold: the source was named
        // through a readable shadow mapping by *someone*, the
        // destination through a writable one.
        const bool rights_hold =
            someoneGranted(kernel, rec.src, Rights::Read) &&
            someoneGranted(kernel, rec.dst, Rights::Write);
        if (harms_victim || !rights_hold)
            ++result.violations;
    }
    return result;
}

} // namespace uldma
