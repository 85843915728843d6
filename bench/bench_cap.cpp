/**
 * @file
 * Capability-gated initiation exhibit (docs/CAPABILITIES.md).  Two
 * parts:
 *
 * 1. Table-1-style initiation cost: the per-operation wall time of
 *    the capability presentation (three argument stores, the capword
 *    commit, and the status wait) next to key-based DMA, the paper
 *    protocol sharing the same engine mode.  The delta is the price
 *    of the table lookup plus the arbiter hop.
 *
 * 2. A tenant-sharing storm: 128 concurrent tenants — 32 per rate
 *    class — each holding one capability slot and pushing fixed-size
 *    transfers through one engine.  The weighted round-robin arbiter
 *    (class c carries weight 1<<c) shapes per-class throughput; the
 *    exhibit reports per-class shares, the per-tenant min/max share,
 *    the worst queue wait any request saw, and the Jain fairness
 *    index over all tenants.
 *
 * The exhibit exits 1 when the capability premium vanishes, a valid
 * capword is rejected, or a higher rate class earns a smaller share
 * than a lower one.
 */

#include "bench_common.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "util/logging.hh"

namespace {

using namespace uldma;

/** Initiations averaged over in the Table-1-style comparison. */
constexpr unsigned kInitIterations = 1000;

/** Tenant-storm shape: kClasses rate classes x kTenantsPerClass
 *  tenants, each issuing kTransfersPerTenant transfers of
 *  kStormBytes.  Full pages keep the engine bandwidth-bound, so the
 *  arbiter — not the CPU — decides the shares. */
constexpr unsigned kClasses = 4;
constexpr unsigned kTenantsPerClass = 32;
constexpr unsigned kTenants = kClasses * kTenantsPerClass;
static_assert(kTenants >= 100, "the fairness exhibit needs 100+ tenants");
constexpr unsigned kTransfersPerTenant = 64;
constexpr Addr kStormBytes = pageSize;
/** CPU quantum of the storm: short slices interleave the tenants'
 *  presentations, so the arbiter queues actually build depth. */
constexpr std::uint64_t kStormQuantumUs = 20;
/** Observation horizon.  Demand (kTenants x kTransfersPerTenant
 *  pages) deliberately outlasts it: shares are read mid-backlog,
 *  where the weighted round-robin — not run-to-completion — decides
 *  who moved how much. */
constexpr std::uint64_t kStormHorizonUs = 200 * 1000;

struct ClassShare
{
    unsigned rateClass = 0;
    unsigned tenants = 0;
    std::uint64_t bytes = 0;
    double share = 0.0;
};

struct StormMeasurement
{
    std::uint64_t totalBytes = 0;
    double durationUs = 0.0;
    double jainIndex = 0.0;
    double maxStarvationUs = 0.0;
    double minTenantShare = 0.0;
    double maxTenantShare = 0.0;
    std::uint64_t presentations = 0;
    std::uint64_t rejects = 0;
    std::vector<ClassShare> classes;
};

/**
 * Run the 128-tenant storm: every tenant gets one slot at its rate
 * class over a private src/dst page pair, then pushes
 * kTransfersPerTenant page-sized transfers closed-loop.
 */
StormMeasurement
measureStorm()
{
    MachineConfig mc;
    configureNode(mc.node, DmaMethod::Cap);
    mc.node.dma.cap.numSlots = 256;
    mc.node.dma.cap.rateClasses = kClasses;
    mc.node.makeScheduler = []() {
        return std::make_unique<RoundRobinScheduler>(kStormQuantumUs *
                                                     tickPerUs);
    };

    Machine machine(mc);
    Node &node = machine.node(0);
    Kernel &kernel = node.kernel();

    std::vector<int> tenant_slot(kTenants, -1);
    std::vector<unsigned> tenant_class(kTenants, 0);

    for (unsigned t = 0; t < kTenants; ++t) {
        const unsigned rate = t / kTenantsPerClass;
        tenant_class[t] = rate;
        kernel.spawn("tenant." + std::to_string(t), [&](Process &proc) {
            const Addr src =
                kernel.allocate(proc, pageSize, Rights::ReadWrite);
            const Addr dst =
                kernel.allocate(proc, pageSize, Rights::ReadWrite);
            kernel.createShadowMappings(proc, src, pageSize);
            kernel.createShadowMappings(proc, dst, pageSize);
            const int slot = kernel.capGrant(proc, src, pageSize, rate);
            ULDMA_ASSERT(slot >= 0, "storm tenant without a slot");
            ULDMA_ASSERT(kernel.capExtend(proc,
                                          static_cast<unsigned>(slot),
                                          dst, pageSize),
                         "storm tenant could not span its destination");
            tenant_slot[t] = slot;

            Program prog;
            for (unsigned i = 0; i < kTransfersPerTenant; ++i)
                emitInitiation(prog, kernel, proc, DmaMethod::Cap, src,
                               dst, kStormBytes);
            prog.exit();
            return prog;
        });
    }

    machine.start();
    const bool finished = machine.run(kStormHorizonUs * tickPerUs);
    ULDMA_ASSERT(!finished,
                 "storm demand ran dry before the horizon — raise "
                 "kTransfersPerTenant");

    const DmaEngine &engine = node.dmaEngine();
    const CapTable *table = engine.cap();
    const CapArbiter *arbiter = engine.capArbiter();
    ULDMA_ASSERT(table != nullptr && arbiter != nullptr,
                 "storm engine lost its capability unit");

    StormMeasurement m;
    m.durationUs = ticksToUs(machine.now());
    m.classes.resize(kClasses);
    std::vector<std::uint64_t> tenant_bytes(kTenants, 0);
    for (unsigned t = 0; t < kTenants; ++t) {
        ULDMA_ASSERT(tenant_slot[t] >= 0, "tenant never got its slot");
        const std::uint64_t bytes =
            table->slotBytes(static_cast<unsigned>(tenant_slot[t]));
        tenant_bytes[t] = bytes;
        m.totalBytes += bytes;
        ClassShare &cls = m.classes[tenant_class[t]];
        cls.rateClass = tenant_class[t];
        ++cls.tenants;
        cls.bytes += bytes;
    }
    ULDMA_ASSERT(m.totalBytes > 0, "storm moved no bytes");
    for (ClassShare &cls : m.classes)
        cls.share = static_cast<double>(cls.bytes) /
                    static_cast<double>(m.totalBytes);

    const auto [lo, hi] =
        std::minmax_element(tenant_bytes.begin(), tenant_bytes.end());
    m.minTenantShare =
        static_cast<double>(*lo) / static_cast<double>(m.totalBytes);
    m.maxTenantShare =
        static_cast<double>(*hi) / static_cast<double>(m.totalBytes);
    m.jainIndex = table->jainIndex();
    m.maxStarvationUs =
        ticksToUs(static_cast<Tick>(arbiter->maxStarvationTicks()));
    m.presentations = engine.numCapPresentations();
    m.rejects = engine.numCapRejects();
    return m;
}

void
printExhibit(benchutil::Reporter &reporter)
{
    MeasureConfig config;
    config.method = DmaMethod::Cap;
    config.iterations = kInitIterations;
    const InitiationMeasurement cap = measureInitiation(config);
    config.method = DmaMethod::KeyBased;
    const InitiationMeasurement key_based = measureInitiation(config);

    benchutil::header("Capability-gated DMA: initiation cost and "
                      "multi-tenant fairness");
    std::printf("initiation (%u x %u B, Table-1 conditions):\n\n",
                kInitIterations, 8u);
    std::printf("%-28s %10s %10s %10s %8s\n", "method", "avg us",
                "min us", "max us", "instrs");
    benchutil::rule(70);
    for (const InitiationMeasurement *m : {&cap, &key_based}) {
        std::printf("%-28s %10.2f %10.2f %10.2f %8.1f\n",
                    toString(m->method), m->avgUs, m->minUs, m->maxUs,
                    m->instructions);
        reporter.record("cap/initiation")
            .config("method", toString(m->method))
            .config("iterations", m->iterations)
            .metric("avg_us", m->avgUs)
            .metric("min_us", m->minUs)
            .metric("max_us", m->maxUs)
            .metric("instructions_per_initiation", m->instructions)
            .metric("uncached_accesses_per_initiation",
                    m->uncachedAccesses);
    }
    const double premium_us = cap.avgUs - key_based.avgUs;
    reporter.record("cap/premium")
        .config("baseline", toString(key_based.method))
        .metric("cap_premium_us", premium_us);
    std::printf("\ncapability premium over key-based: %.2f us "
                "(table check + arbiter hop + completion wait)\n",
                premium_us);

    const StormMeasurement storm = measureStorm();
    std::printf("\ntenant storm: %u tenants (%u per class), %u x %llu B "
                "each, %.1f us simulated\n\n",
                kTenants, kTenantsPerClass, kTransfersPerTenant,
                static_cast<unsigned long long>(kStormBytes),
                storm.durationUs);
    std::printf("%-12s %-8s %-14s %-8s %s\n", "rate class", "weight",
                "bytes", "share", "share/tenant");
    benchutil::rule(60);
    for (const ClassShare &cls : storm.classes) {
        std::printf("%-12u %-8u %-14llu %-8.3f %.5f\n", cls.rateClass,
                    CapArbiter::weightOf(cls.rateClass),
                    static_cast<unsigned long long>(cls.bytes),
                    cls.share, cls.share / cls.tenants);
        reporter.record("cap/class")
            .config("rate_class", cls.rateClass)
            .config("weight", CapArbiter::weightOf(cls.rateClass))
            .metric("tenants", cls.tenants)
            .metric("bytes", static_cast<double>(cls.bytes))
            .metric("share", cls.share);
    }
    std::printf("\njain index %.4f over %u tenants; per-tenant share "
                "min %.5f max %.5f;\nworst queue wait %.1f us; %llu "
                "presentation(s), %llu reject(s)\n",
                storm.jainIndex, kTenants, storm.minTenantShare,
                storm.maxTenantShare, storm.maxStarvationUs,
                static_cast<unsigned long long>(storm.presentations),
                static_cast<unsigned long long>(storm.rejects));

    // Only the lowest class's share gates (as min_class_share): its
    // erosion is the starvation failure mode, while upper classes
    // trading share among themselves is the arbiter doing its job.
    reporter.record("cap/fairness")
        .config("tenants", kTenants)
        .config("transfers_per_tenant", kTransfersPerTenant)
        .config("transfer_bytes", kStormBytes)
        .metric("duration_us", storm.durationUs)
        .metric("total_bytes", static_cast<double>(storm.totalBytes))
        .metric("presentations", static_cast<double>(storm.presentations))
        .metric("rejects", static_cast<double>(storm.rejects))
        .metric("jain_index", storm.jainIndex)
        .metric("min_tenant_share", storm.minTenantShare)
        .metric("max_tenant_share", storm.maxTenantShare)
        .metric("max_starvation_us", storm.maxStarvationUs)
        .metric("min_class_share", storm.classes.front().share);

    reporter.claim(premium_us > 0.0, "capability initiation costs more "
                                     "than key-based");
    reporter.claim(storm.rejects == 0, "no valid capword is rejected");
    reporter.claim(std::is_sorted(storm.classes.begin(),
                                  storm.classes.end(),
                                  [](const ClassShare &a,
                                     const ClassShare &b) {
                                      return a.share < b.share;
                                  }),
                   "higher rate classes earn higher shares");
}

} // namespace

int
main(int argc, char **argv)
{
    return uldma::benchutil::benchMain(argc, argv, printExhibit);
}
