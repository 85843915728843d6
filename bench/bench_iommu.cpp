/**
 * @file
 * IOTLB locality sweep (docs/IOMMU.md): amortized per-transfer cost of
 * ring DMA through the IOMMU as the working set grows past the IOTLB,
 * under both pinning policies.  Every descriptor carries virtual
 * addresses, so each transfer pays two translations (source read,
 * destination write); the sweep cycles through `slots` distinct page
 * pairs, moving the translation mix from all-hits (working set inside
 * the IOTLB) to walk-bound (every access misses and walks the I/O
 * page table).
 *
 * The headline is the hot-vs-cold gap: the same transfers cost
 * `walk_penalty_us` more per transfer once the IOTLB stops covering
 * the working set.  On-demand points run against a deliberately small
 * pin budget so the pin-eviction path shows up in the counters.
 *
 * The exhibit exits 1 when the cold sweep is not slower than the hot
 * one or no on-demand point evicts a pin.
 */

#include "bench_common.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "sim/span.hh"
#include "util/logging.hh"

namespace {

using namespace uldma;

/** Transfers issued per sweep point (divisible by the batch depth). */
constexpr unsigned kTransfers = 96;
/** Tiny payload (the paper's small-message regime): the bus transfer
 *  cannot hide the translation stall, so the walk penalty lands in
 *  the amortized wall time instead of overlapping prior segments. */
constexpr Addr kTransferBytes = 8;
/** Descriptors enqueued per doorbell. */
constexpr unsigned kDepth = 4;
/** IOTLB geometry under test (defaults from IommuParams). */
constexpr unsigned kIotlbEntries = 16;
constexpr unsigned kIotlbWays = 4;
/** Pin budget for the on-demand points: small enough that the widest
 *  working set (2 x 64 pages) churns through pin evictions. */
constexpr unsigned kPinBudget = 16;

/** Distinct src/dst page pairs cycled through.  4 slots = 8 pages
 *  fits the IOTLB (hot); 64 slots = 128 pages defeats it (cold). */
const unsigned kSlotSweep[] = {4, 16, 64};

struct IommuMeasurement
{
    std::string pinning;
    unsigned slots = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t walks = 0;
    double hitRate = 0.0;
    /** Wall time of the whole point divided by kTransfers, including
     *  each batch's completion drain. */
    double amortizedUs = 0.0;
    /** Median per-segment translation phase (span firstAccess ->
     *  translated). */
    double translationP50Us = 0.0;
    std::uint64_t demandPins = 0;
    std::uint64_t pinEvictions = 0;
};

/**
 * Issue kTransfers ring DMAs through an IOMMU-fronted engine, cycling
 * source and destination across @p slots page slots, and read the
 * IOTLB counters back from the translation unit.
 */
IommuMeasurement
measurePoint(PinPolicy pinning, unsigned slots)
{
    ULDMA_ASSERT(kTransfers % kDepth == 0,
                 "transfer budget must divide evenly into batches");

    MachineConfig mc;
    configureNode(mc.node, DmaMethod::Ring);
    mc.node.dma.iommu.enabled = true;
    mc.node.dma.iommu.iotlbEntries = kIotlbEntries;
    mc.node.dma.iommu.iotlbWays = kIotlbWays;
    mc.node.dma.iommu.pinPolicy = pinning;
    mc.node.dma.iommu.pinBudgetPages =
        pinning == PinPolicy::OnDemand ? kPinBudget : 0;
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
    ULDMA_ASSERT(kernel.setupRing(proc, kDepth, ringdesc::policyPolling),
                 "benchmark process could not set up a ring");

    const Addr region = Addr(slots) * pageSize;
    const Addr src_base = kernel.allocate(proc, region, Rights::ReadWrite);
    const Addr dst_base = kernel.allocate(proc, region, Rights::ReadWrite);
    const bool pin_on_map = pinning == PinPolicy::OnMap;
    ULDMA_ASSERT(kernel.iommuMapRange(proc, src_base, region, pin_on_map),
                 "could not iommu-map the source region");
    ULDMA_ASSERT(kernel.iommuMapRange(proc, dst_base, region, pin_on_map),
                 "could not iommu-map the destination region");

    std::vector<Tick> marks;
    marks.reserve(kTransfers / kDepth + 1);
    Machine *machine_ptr = &machine;
    auto mark = [machine_ptr, &marks](ExecContext &) {
        marks.push_back(machine_ptr->now());
    };

    Program prog;
    prog.callback(mark);
    std::vector<RingTransfer> batch;
    for (unsigned i = 0; i < kTransfers; ++i) {
        const unsigned s = i % slots;
        batch.push_back({src_base + Addr(s) * pageSize,
                         dst_base + Addr(s) * pageSize, kTransferBytes});
        if (batch.size() < kDepth)
            continue;
        emitRingBatch(prog, kernel, proc, batch);
        batch.clear();
        prog.callback(mark);
    }
    prog.exit();

    // Capture spans for this point only: the translation phase of
    // each per-page segment is the hit-vs-walk latency itself.
    span::tracker().enable();
    kernel.launch(proc, std::move(prog));
    machine.start();
    const bool finished = machine.run(60 * tickPerSec);
    ULDMA_ASSERT(finished, "iommu benchmark did not finish");
    ULDMA_ASSERT(marks.size() == kTransfers / kDepth + 1,
                 "missing measurement marks");

    std::vector<double> translation_us;
    for (const span::Span &s : span::tracker().snapshot()) {
        if (s.translated != 0 && s.firstAccess != 0)
            translation_us.push_back(
                ticksToUs(s.translated - s.firstAccess));
    }
    span::tracker().disable();

    const Iommu *iommu = node.dmaEngine().iommu();
    ULDMA_ASSERT(iommu != nullptr, "engine lost its IOMMU");

    IommuMeasurement m;
    m.pinning = pin_on_map ? "on-map" : "on-demand";
    m.slots = slots;
    m.hits = iommu->hits();
    m.misses = iommu->misses();
    m.walks = iommu->walks();
    const std::uint64_t lookups = m.hits + m.misses;
    m.hitRate = lookups == 0
                    ? 0.0
                    : static_cast<double>(m.hits) /
                          static_cast<double>(lookups);
    m.amortizedUs = ticksToUs(marks.back() - marks.front()) / kTransfers;
    if (!translation_us.empty()) {
        std::sort(translation_us.begin(), translation_us.end());
        m.translationP50Us = translation_us[translation_us.size() / 2];
    }
    m.demandPins = iommu->demandPins();
    m.pinEvictions = iommu->pinEvictions();
    return m;
}

void
printExhibit(benchutil::Reporter &reporter)
{
    std::vector<IommuMeasurement> points;
    for (PinPolicy pinning : {PinPolicy::OnMap, PinPolicy::OnDemand})
        for (unsigned slots : kSlotSweep)
            points.push_back(measurePoint(pinning, slots));

    // Headline on the map-time-pinned sweep: tightest vs widest
    // working set, same transfers, same pinning.
    const double hot_us = points.front().amortizedUs;
    const double cold_us = points[std::size(kSlotSweep) - 1].amortizedUs;

    benchutil::header("IOMMU: IOTLB locality vs walk-bound virtual DMA");
    std::printf("%u x %llu B ring transfers per point through a "
                "%u-entry %u-way IOTLB\n\n",
                kTransfers,
                static_cast<unsigned long long>(kTransferBytes),
                kIotlbEntries, kIotlbWays);
    std::printf("%-10s %-6s %-7s %-7s %-7s %-9s %-13s %-10s %-6s %s\n",
                "pinning", "slots", "hits", "misses", "walks",
                "hit rate", "amortized us", "xlate p50", "pins",
                "evictions");
    benchutil::rule(92);
    bool evicted = false;
    for (const IommuMeasurement &m : points) {
        std::printf("%-10s %-6u %-7llu %-7llu %-7llu %-9.3f %-13.3f "
                    "%-10.3f %-6llu %llu\n",
                    m.pinning.c_str(), m.slots,
                    static_cast<unsigned long long>(m.hits),
                    static_cast<unsigned long long>(m.misses),
                    static_cast<unsigned long long>(m.walks), m.hitRate,
                    m.amortizedUs, m.translationP50Us,
                    static_cast<unsigned long long>(m.demandPins),
                    static_cast<unsigned long long>(m.pinEvictions));
        reporter.record("iommu/point")
            .config("pinning", m.pinning)
            .config("slots", m.slots)
            .config("transfers", kTransfers)
            .config("transfer_bytes", kTransferBytes)
            .config("iotlb_entries", kIotlbEntries)
            .config("iotlb_ways", kIotlbWays)
            .metric("hits", static_cast<double>(m.hits))
            .metric("misses", static_cast<double>(m.misses))
            .metric("walks", static_cast<double>(m.walks))
            .metric("hit_rate", m.hitRate)
            .metric("amortized_us", m.amortizedUs)
            .metric("translation_p50_us", m.translationP50Us)
            .metric("demand_pins", static_cast<double>(m.demandPins))
            .metric("pin_evictions", static_cast<double>(m.pinEvictions));
        evicted = evicted || m.pinEvictions > 0;
    }
    reporter.record("iommu/headline")
        .config("pinning", points.front().pinning)
        .metric("hot_us", hot_us)
        .metric("cold_us", cold_us)
        .metric("walk_penalty_us", cold_us - hot_us);

    std::printf("\nhot (IOTLB-resident) %.3f us/transfer vs cold "
                "(walk-bound) %.3f us/transfer:\nthe same transfers "
                "cost %.3f us more each once the working set defeats "
                "the IOTLB.\n",
                hot_us, cold_us, cold_us - hot_us);
    reporter.claim(cold_us > hot_us, "the walk-bound sweep is slower "
                                     "than the IOTLB-resident one");
    reporter.claim(evicted, "the on-demand sweep evicts a pin");
}

} // namespace

int
main(int argc, char **argv)
{
    return uldma::benchutil::benchMain(argc, argv, printExhibit);
}
