/**
 * @file
 * Experiment E7 — resource provisioning ablations:
 *
 *  - §3.1: "The DMA engine is equipped with several (say 4 to 8)
 *    register contexts"; what happens when more processes want
 *    user-level DMA than there are contexts?  The unlucky ones fall
 *    back to kernel DMA — this bench quantifies the blended cost.
 *  - §3.2: "We envision the CONTEXT_ID to be 1-2 bits long.  Thus,
 *    2-4 processes will be able to start user-level DMA operations
 *    from the same processor" — same sweep for extended shadow
 *    addressing.
 */

#include "bench_common.hh"

#include <vector>

#include "core/experiment.hh"

namespace {

using namespace uldma;

/** Grant outcome for P processes against a machine configuration. */
struct Provisioning
{
    unsigned granted = 0;
    unsigned fallback = 0;
};

Provisioning
provision(DmaMethod method, unsigned resource, unsigned processes)
{
    MachineConfig config;
    configureNode(config.node, method);
    if (method == DmaMethod::KeyBased)
        config.node.dma.numContexts = resource;
    else
        config.node.dma.ctxIdBits = resource;
    Machine machine(config);
    Kernel &kernel = machine.node(0).kernel();

    Provisioning result;
    for (unsigned i = 0; i < processes; ++i) {
        Process &p = kernel.createProcess("p");
        if (prepareProcess(kernel, p, method))
            ++result.granted;
        else
            ++result.fallback;
    }
    return result;
}

void
printExhibit(benchutil::Reporter &reporter)
{
    // Baseline costs for the blended estimate.
    MeasureConfig kc;
    kc.method = DmaMethod::Kernel;
    kc.iterations = 300;
    const double kernel_us = measureInitiation(kc).avgUs;

    MeasureConfig keyc;
    keyc.method = DmaMethod::KeyBased;
    keyc.iterations = 300;
    const double key_us = measureInitiation(keyc).avgUs;

    MeasureConfig extc;
    extc.method = DmaMethod::ExtShadow;
    extc.iterations = 300;
    const double ext_us = measureInitiation(extc).avgUs;

    benchutil::header("E7a: key-based register contexts (paper 3.1)");
    std::printf("%-10s %-10s %-10s %-10s %s\n", "contexts", "procs",
                "granted", "fallback", "blended us/init");
    benchutil::rule(60);
    for (unsigned contexts : {1u, 2u, 4u, 8u}) {
        for (unsigned procs : {2u, 4u, 8u, 12u}) {
            const Provisioning p =
                provision(DmaMethod::KeyBased, contexts, procs);
            const double blended =
                (p.granted * key_us + p.fallback * kernel_us) / procs;
            std::printf("%-10u %-10u %-10u %-10u %10.2f\n", contexts,
                        procs, p.granted, p.fallback, blended);
            reporter.record("contexts/key-based/" +
                            std::to_string(contexts) + "ctx/" +
                            std::to_string(procs) + "procs")
                .config("method", "key-based")
                .config("contexts", static_cast<std::int64_t>(contexts))
                .config("processes", static_cast<std::int64_t>(procs))
                .metric("granted", p.granted)
                .metric("fallback", p.fallback)
                .metric("blended_us", blended);
        }
    }

    benchutil::header(
        "E7b: extended-shadow CONTEXT_ID bits (paper 3.2)");
    std::printf("%-10s %-10s %-10s %-10s %s\n", "ctx bits", "procs",
                "granted", "fallback", "blended us/init");
    benchutil::rule(60);
    for (unsigned bits : {0u, 1u, 2u}) {
        for (unsigned procs : {1u, 2u, 4u, 8u}) {
            const Provisioning p =
                provision(DmaMethod::ExtShadow, bits, procs);
            const double blended =
                (p.granted * ext_us + p.fallback * kernel_us) / procs;
            std::printf("%-10u %-10u %-10u %-10u %10.2f\n", bits, procs,
                        p.granted, p.fallback, blended);
            reporter.record("contexts/ext-shadow/" +
                            std::to_string(bits) + "bits/" +
                            std::to_string(procs) + "procs")
                .config("method", "ext-shadow")
                .config("ctx_bits", static_cast<std::int64_t>(bits))
                .config("processes", static_cast<std::int64_t>(procs))
                .metric("granted", p.granted)
                .metric("fallback", p.fallback)
                .metric("blended_us", blended);
        }
    }

    std::printf("\nWith 4-8 contexts / 2 CONTEXT_ID bits, typical "
                "process counts all get\nuser-level DMA; beyond that "
                "the blended cost climbs toward the kernel\npath — the "
                "provisioning the paper suggests (4-8 contexts, 1-2 "
                "bits) keeps\nthe fallback rate at zero for its "
                "workloads.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return uldma::benchutil::benchMain(argc, argv, printExhibit);
}
