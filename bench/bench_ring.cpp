/**
 * @file
 * Descriptor-ring crossover curve (docs/RING.md): amortized cost per
 * transfer when a fixed budget of small DMAs is issued through the
 * per-context descriptor ring at queue depths 1..32, next to the
 * paper's key-based per-transfer initiation as the baseline.
 *
 * Two baselines bracket the ring: key-based (the protection-equivalent
 * per-transfer protocol, which the ring beats even unbatched because
 * descriptor writes are cached where shadow-address initiation is all
 * uncached) and ext-shadow (the cheapest per-transfer initiation in
 * Table 1).  The crossover depth is measured against the *cheapest*
 * baseline, and the ring numbers are deliberately conservative: each
 * batch runs to *completion* (the polling wait drains every
 * descriptor) before the next batch is enqueued, while both baselines
 * are Table 1's pure initiation overhead with the transfers
 * themselves overlapped.
 *
 * The exhibit exits 1 when no swept depth crosses below the cheapest
 * baseline.
 */

#include "bench_common.hh"

#include <string>
#include <vector>

#include "core/experiment.hh"
#include "util/logging.hh"

namespace {

using namespace uldma;

/** Transfers issued per depth (divisible by every swept depth). */
constexpr unsigned kTransfers = 96;
/** Small-message size: the regime the paper's motivation targets. */
constexpr Addr kTransferBytes = 8;
/** Distinct page slots cycled through (paper §3.4). */
constexpr unsigned kAddressSlots = 16;

const unsigned kDepths[] = {1, 2, 4, 8, 16, 32};

struct RingMeasurement
{
    unsigned depth = 0;
    unsigned batches = 0;
    /** Wall time of the whole sweep divided by kTransfers, including
     *  each batch's completion drain. */
    double amortizedUs = 0.0;
    double totalUs = 0.0;
    double instructionsPerTransfer = 0.0;
    double uncachedPerTransfer = 0.0;
    /** Engine-confirmed transfer starts (sanity: == kTransfers). */
    std::uint64_t initiationsStarted = 0;
    /** Batches whose final completion record was not a failure. */
    std::uint64_t successes = 0;
};

/**
 * Issue kTransfers small DMAs through a ring sized to @p depth,
 * batching exactly @p depth descriptors per doorbell, and measure the
 * amortized per-transfer cost from enqueue through completion.
 */
RingMeasurement
measureRing(unsigned depth, Addr transfer_bytes)
{
    ULDMA_ASSERT(kTransfers % depth == 0,
                 "transfer budget must divide evenly into batches");

    MachineConfig mc;
    configureNode(mc.node, DmaMethod::Ring);
    mc.node.makeScheduler = []() {
        // One process; a huge quantum keeps context-switch costs out
        // of the measurement.
        return std::make_unique<RoundRobinScheduler>(tickPerSec);
    };

    Machine machine(mc);
    prepareMachine(machine, DmaMethod::Ring);
    Node &node = machine.node(0);
    Kernel &kernel = node.kernel();

    Process &proc = kernel.createProcess("bench");
    ULDMA_ASSERT(kernel.setupRing(proc, depth, ringdesc::policyPolling),
                 "benchmark process could not set up a ring");

    const Addr region = Addr(kAddressSlots) * pageSize;
    const Addr src_base = kernel.allocate(proc, region, Rights::ReadWrite);
    const Addr dst_base = kernel.allocate(proc, region, Rights::ReadWrite);
    kernel.authorizeRingDma(proc, src_base, region);
    kernel.authorizeRingDma(proc, dst_base, region);

    std::vector<Tick> marks;
    marks.reserve(kTransfers / depth + 1);
    std::vector<std::uint64_t> instr_marks;
    std::vector<std::uint64_t> uncached_marks;
    std::uint64_t successes = 0;

    Machine *machine_ptr = &machine;
    Cpu *cpu_ptr = &node.cpu();
    auto mark = [machine_ptr, cpu_ptr, &marks, &instr_marks,
                 &uncached_marks](ExecContext &) {
        marks.push_back(machine_ptr->now());
        instr_marks.push_back(cpu_ptr->instructionsRetired());
        uncached_marks.push_back(cpu_ptr->numUncachedAccesses());
    };

    Program prog;
    prog.callback(mark);
    std::vector<RingTransfer> batch;
    for (unsigned i = 0; i < kTransfers; ++i) {
        const unsigned s = i % kAddressSlots;
        batch.push_back({src_base + Addr(s) * pageSize,
                         dst_base + Addr(s) * pageSize, transfer_bytes});
        if (batch.size() < depth)
            continue;
        emitRingBatch(prog, kernel, proc, batch);
        batch.clear();
        prog.callback([&successes](ExecContext &ctx) {
            if (ctx.reg(reg::v0) != dmastatus::failure)
                ++successes;
        });
        prog.callback(mark);
    }
    prog.exit();

    kernel.launch(proc, std::move(prog));
    machine.start();
    const bool finished = machine.run(60 * tickPerSec);
    ULDMA_ASSERT(finished, "ring benchmark did not finish");
    ULDMA_ASSERT(marks.size() == kTransfers / depth + 1,
                 "missing measurement marks");

    RingMeasurement m;
    m.depth = depth;
    m.batches = kTransfers / depth;
    m.totalUs = ticksToUs(marks.back() - marks.front());
    m.amortizedUs = m.totalUs / kTransfers;
    m.instructionsPerTransfer =
        static_cast<double>(instr_marks.back() - instr_marks.front()) /
        kTransfers;
    m.uncachedPerTransfer =
        static_cast<double>(uncached_marks.back() -
                            uncached_marks.front()) /
        kTransfers;
    m.successes = successes;
    m.initiationsStarted = node.dmaEngine().initiations().size();
    return m;
}

InitiationMeasurement
measureBaseline(DmaMethod method)
{
    MeasureConfig base;
    base.method = method;
    base.iterations = kTransfers;
    base.addressSlots = kAddressSlots;
    base.transferSize = kTransferBytes;
    return measureInitiation(base);
}

void
printExhibit(benchutil::Reporter &reporter)
{
    const InitiationMeasurement key_based =
        measureBaseline(DmaMethod::KeyBased);
    const InitiationMeasurement cheapest =
        measureBaseline(DmaMethod::ExtShadow);
    for (const InitiationMeasurement *b : {&key_based, &cheapest}) {
        reporter.record("ring/baseline")
            .config("protocol", toString(b->method))
            .config("transfers", kTransfers)
            .config("transfer_bytes", kTransferBytes)
            // Table-1 style: initiation only, transfers overlap.
            .config("includes_completion", "false")
            .metric("per_transfer_us", b->avgUs)
            .metric("instructions_per_transfer", b->instructions)
            .metric("uncached_per_transfer", b->uncachedAccesses);
    }

    benchutil::header("Ring crossover: amortized batched initiation vs "
                      "per-transfer protocols");
    std::printf("baselines (%u x %llu B transfers): key-based %.2f us, "
                "ext-shadow (cheapest) %.2f us\n\n",
                kTransfers,
                static_cast<unsigned long long>(kTransferBytes),
                key_based.avgUs, cheapest.avgUs);
    std::printf("%-7s %-8s %-14s %-11s %-11s %-12s %s\n", "depth",
                "batches", "amortized us", "vs keyed", "vs cheap",
                "instr/xfer", "uncached/xfer");
    benchutil::rule(72);

    // Smallest depth strictly below the cheapest per-transfer
    // baseline.  "None" reads as twice the deepest swept depth, the
    // next one a doubling sweep would try, so losing the crossover
    // also trips the lower-is-better gate.
    const unsigned deepest = kDepths[std::size(kDepths) - 1];
    unsigned crossover = 2 * deepest;
    for (unsigned depth : kDepths) {
        const RingMeasurement m = measureRing(depth, kTransferBytes);
        if (crossover > depth && m.amortizedUs < cheapest.avgUs)
            crossover = depth;
        std::printf("%-7u %-8u %-14.2f %-11.2f %-11.2f %-12.1f %.2f\n",
                    m.depth, m.batches, m.amortizedUs,
                    m.amortizedUs / key_based.avgUs,
                    m.amortizedUs / cheapest.avgUs,
                    m.instructionsPerTransfer, m.uncachedPerTransfer);
        reporter.record("ring/depth")
            .config("depth", m.depth)
            .config("transfers", kTransfers)
            .config("transfer_bytes", kTransferBytes)
            // Each batch runs to completion before the next enqueue.
            .config("includes_completion", "true")
            .metric("batches", m.batches)
            .metric("amortized_us", m.amortizedUs)
            .metric("total_us", m.totalUs)
            .metric("instructions_per_transfer", m.instructionsPerTransfer)
            .metric("uncached_per_transfer", m.uncachedPerTransfer)
            .metric("initiations_started",
                    static_cast<double>(m.initiationsStarted))
            .metric("successes", static_cast<double>(m.successes));
    }
    reporter.record("ring/crossover")
        .config("baseline", toString(cheapest.method))
        .metric("crossover_depth", crossover);

    const bool crossed = crossover <= deepest;
    if (crossed)
        std::printf("\ncrossover: ring amortized cost drops strictly "
                    "below the cheapest\nper-transfer baseline "
                    "(ext-shadow) at queue depth %u -- and the ring\n"
                    "numbers include the batch completion drain the "
                    "baselines exclude.\n",
                    crossover);
    reporter.claim(crossed, "ring batching beats the cheapest "
                            "per-transfer baseline at some swept depth");
}

} // namespace

int
main(int argc, char **argv)
{
    return uldma::benchutil::benchMain(argc, argv, printExhibit);
}
