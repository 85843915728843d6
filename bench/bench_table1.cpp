/**
 * @file
 * Experiment E1 — reproduces **Table 1** of the paper: average DMA
 * initiation time of the four measured algorithms on the simulated
 * Alpha 3000/300 + 12.5 MHz TurboChannel testbed, 1,000 initiations,
 * successive operations on different addresses, no data-transfer wait.
 *
 *   | DMA algorithm             | paper (us) |
 *   |---------------------------|------------|
 *   | Kernel-level DMA          | 18.6       |
 *   | Ext. Shadow Addressing    | 1.1        |
 *   | Rep. Passing of Arguments | 2.6        |
 *   | Key-based DMA             | 2.3        |
 *
 * The remaining methods (SHRIMP-1/2, FLASH, PAL) are printed as
 * supplementary rows — the paper discusses but does not time them.
 */

#include "bench_common.hh"

#include "core/experiment.hh"

namespace {

using namespace uldma;

/** Publish one measured row into the machine-readable report. */
void
recordRow(benchutil::Reporter &reporter, const std::string &name,
          const InitiationMeasurement &m, double paper_us)
{
    auto &r = reporter.record(name);
    r.config("method", toString(m.method));
    r.config("iterations", static_cast<std::int64_t>(m.iterations));
    r.metric("avg_us", m.avgUs);
    r.metric("min_us", m.minUs);
    r.metric("max_us", m.maxUs);
    r.metric("instructions",
             static_cast<double>(m.totalInstructions));
    r.metric("instructions_per_initiation", m.instructions);
    r.metric("uncached_accesses_per_initiation", m.uncachedAccesses);
    r.metric("ticks", static_cast<double>(m.simulatedTicks));
    r.metric("events", static_cast<double>(m.initiationsStarted));
    if (paper_us > 0.0) {
        r.metric("paper_us", paper_us);
        r.metric("ratio", m.avgUs / paper_us);
    }
}

void
printTable1(benchutil::Reporter &reporter)
{
    benchutil::header(
        "Table 1: Comparison of DMA initiation algorithms "
        "(1,000 initiations)");
    std::printf("%-28s %12s %12s %8s\n", "DMA algorithm", "paper (us)",
                "sim (us)", "ratio");
    benchutil::rule();

    for (DmaMethod method : table1Methods) {
        MeasureConfig config;
        config.method = method;
        const InitiationMeasurement m = measureInitiation(config);
        const double paper = paperTable1Us(method);
        std::printf("%-28s %12.1f %12.2f %8.2f\n", toString(method), paper,
                    m.avgUs, m.avgUs / paper);
        recordRow(reporter, std::string("table1/") + toString(method), m,
                  paper);
    }

    std::printf("\nsupplementary (not timed in the paper):\n");
    for (DmaMethod method :
         {DmaMethod::Shrimp1, DmaMethod::Shrimp2, DmaMethod::Flash,
          DmaMethod::PalCode}) {
        MeasureConfig config;
        config.method = method;
        const InitiationMeasurement m = measureInitiation(config);
        std::printf("%-28s %12s %12.2f\n", toString(method), "-", m.avgUs);
        recordRow(reporter,
                  std::string("supplementary/") + toString(method), m,
                  0.0);
    }

    // Ablations of the machine model (ext-shadow as the probe).
    std::printf("\nablations (ext-shadow initiation, us):\n");
    {
        MeasureConfig config;
        config.method = DmaMethod::ExtShadow;
        config.iterations = 500;
        InitiationMeasurement m = measureInitiation(config);
        std::printf("  %-38s %8.2f\n", "default machine", m.avgUs);
        recordRow(reporter, "ablation/default", m, 0.0);

        MeasureConfig no_merge = config;
        no_merge.cpu.mergeBuffer.collapseStores = false;
        no_merge.cpu.mergeBuffer.mergeLoads = false;
        m = measureInitiation(no_merge);
        std::printf("  %-38s %8.2f\n", "write/read merging disabled",
                    m.avgUs);
        recordRow(reporter, "ablation/no-merge", m, 0.0);

        MeasureConfig cached = config;
        cached.cpu.dcache.enabled = true;
        m = measureInitiation(cached);
        std::printf("  %-38s %8.2f\n", "L1 data cache enabled", m.avgUs);
        recordRow(reporter, "ablation/dcache", m, 0.0);

        MeasureConfig contended = config;
        contended.bus.dmaContentionCycles = 4;
        m = measureInitiation(contended);
        std::printf("  %-38s %8.2f  (DMA cycle stealing)\n",
                    "bus contention 4 cycles", m.avgUs);
        recordRow(reporter, "ablation/bus-contention", m, 0.0);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    return uldma::benchutil::benchMain(argc, argv, printTable1);
}
