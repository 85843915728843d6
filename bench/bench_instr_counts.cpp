/**
 * @file
 * Experiment E4 — the abstract's claim made measurable: "Using our
 * proposed algorithms, a DMA operation can be initiated in 2 to 5
 * assembly instructions.  By comparison, operating system-based
 * initiation of DMA requires thousands of assembly instructions."
 *
 * For every method: the NI accesses per initiation (the paper's
 * instruction count), the total user-mode micro-ops retired per
 * initiation (including argument staging and barriers), and the
 * CPU-cycle-equivalent cost of the kernel path (the "thousands").
 */

#include "bench_common.hh"

#include "core/experiment.hh"

namespace {

using namespace uldma;

void
printExhibit(benchutil::Reporter &reporter)
{
    benchutil::header(
        "E4: instructions and NI accesses per DMA initiation");
    std::printf("%-28s %10s %12s %12s %14s\n", "DMA algorithm",
                "NI acc.", "micro-ops", "us/init",
                "cycle-equiv");
    benchutil::rule(80);

    for (DmaMethod method : allMethods) {
        MeasureConfig config;
        config.method = method;
        config.iterations = 300;
        const InitiationMeasurement m = measureInitiation(config);
        // Cycle-equivalent at 150 MHz: how many CPU cycles the
        // initiation costs end to end.
        const double cycles = m.avgUs * 150.0;
        std::printf("%-28s %10u %12.1f %12.2f %14.0f\n",
                    toString(method), initiationAccessCount(method),
                    m.instructions, m.avgUs, cycles);

        auto &r = reporter.record(std::string("instr_counts/") +
                                  toString(method));
        r.config("method", toString(method));
        r.config("iterations",
                 static_cast<std::int64_t>(m.iterations));
        r.metric("ni_accesses",
                 static_cast<double>(initiationAccessCount(method)));
        r.metric("instructions_per_initiation", m.instructions);
        r.metric("instructions",
                 static_cast<double>(m.totalInstructions));
        r.metric("avg_us", m.avgUs);
        r.metric("cycle_equiv", cycles);
        r.metric("ticks", static_cast<double>(m.simulatedTicks));
        r.metric("events", static_cast<double>(m.initiationsStarted));
    }

    std::printf("\nThe kernel path costs thousands of cycle-equivalents "
                "(trap + translation\n+ checks); every user-level method "
                "passes all arguments in 1-5 NI accesses\n(paper "
                "abstract).  micro-ops includes immediate staging, "
                "barriers, and the\nmeasurement callbacks of the "
                "harness.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return uldma::benchutil::benchMain(argc, argv, printExhibit);
}
