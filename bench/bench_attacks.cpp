/**
 * @file
 * Experiment E5 — figures 5, 6 and 8 as a security scoreboard: the
 * deterministic exploits against the 3- and 4-instruction
 * repeated-passing variants, and randomized-schedule storms against
 * every user-level protocol, reporting protection violations per
 * thousand initiations.
 */

#include "bench_common.hh"

#include "core/attack.hh"

namespace {

using namespace uldma;

void
printExhibit(benchutil::Reporter &reporter)
{
    benchutil::header("E5: protocol security scoreboard");

    // Deterministic reproductions of the paper's figures.
    const AttackOutcome fig5 = runFigure5Attack();
    const AttackOutcome fig6 = runFigure6Attack();
    reporter.record("attacks/figure5")
        .config("method", "repeated3")
        .metric("wrong_transfer_started",
                fig5.wrongTransferStarted ? 1.0 : 0.0)
        .metric("dst_got_attacker_data",
                fig5.dstGotAttackerData ? 1.0 : 0.0)
        .metric("initiations", static_cast<double>(fig5.initiations));
    reporter.record("attacks/figure6")
        .config("method", "repeated4")
        .metric("initiations", static_cast<double>(fig6.initiations))
        .metric("legit_deceived", fig6.legitDeceived ? 1.0 : 0.0);
    std::printf("figure 5 (repeated-3): wrong transfer %s, "
                "victim buffer corrupted %s\n",
                fig5.wrongTransferStarted ? "STARTED" : "blocked",
                fig5.dstGotAttackerData ? "YES" : "no");
    std::printf("figure 6 (repeated-4): DMA started %s, victim "
                "deceived %s\n\n",
                fig6.initiations > 0 ? "YES" : "no",
                fig6.legitDeceived ? "YES" : "no");

    // Randomized storms.
    std::printf("%-28s %12s %12s %12s\n", "protocol", "initiations",
                "violations", "legit ok");
    benchutil::rule(70);
    const DmaMethod methods[] = {
        DmaMethod::Repeated3, DmaMethod::Repeated4, DmaMethod::Repeated5,
        DmaMethod::KeyBased, DmaMethod::ExtShadow, DmaMethod::PalCode,
    };
    for (DmaMethod method : methods) {
        std::uint64_t initiations = 0, violations = 0, ok = 0;
        const unsigned seeds = 30;
        for (unsigned seed = 1; seed <= seeds; ++seed) {
            RandomAttackConfig config;
            config.method = method;
            config.seed = benchutil::seedBase() + seed;
            config.legitIterations = 10;
            config.malOps = 50;
            config.malProcesses = 2;
            config.maxSlice = 3;
            const RandomAttackResult r = runRandomizedAttack(config);
            initiations += r.initiations;
            violations += r.violations;
            ok += r.legitSuccesses;
        }
        std::printf("%-28s %12llu %12llu %9llu/%llu\n", toString(method),
                    static_cast<unsigned long long>(initiations),
                    static_cast<unsigned long long>(violations),
                    static_cast<unsigned long long>(ok),
                    static_cast<unsigned long long>(10ull * seeds));

        auto &r = reporter.record(std::string("attacks/storm/") +
                                  toString(method));
        r.config("method", toString(method));
        r.config("seeds", static_cast<std::int64_t>(seeds));
        r.metric("initiations", static_cast<double>(initiations));
        r.metric("violations", static_cast<double>(violations));
        r.metric("legit_successes", static_cast<double>(ok));
    }

    std::printf("\nThe 3/4-instruction variants leak (paper §3.3); the "
                "5-instruction protocol,\nkey-based, extended-shadow and "
                "PAL approaches stay clean (paper §3.3.1).\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return uldma::benchutil::benchMain(argc, argv, printExhibit);
}
