#include "workload/driver.hh"

#include <algorithm>

#include "prof/profiler.hh"
#include "sim/span.hh"
#include "util/logging.hh"
#include "workload/prng.hh"

namespace uldma::workload {

namespace {

BusParams
busFor(const std::string &name)
{
    if (name == "pci33")
        return BusParams::pci33();
    if (name == "pci66")
        return BusParams::pci66();
    ULDMA_ASSERT(name == "tc", "unknown bus '", name, "'");
    return BusParams{};
}

} // namespace

ProtocolStats &
protocolRow(std::vector<ProtocolStats> &rows, const std::string &protocol)
{
    for (ProtocolStats &row : rows) {
        if (row.protocol == protocol)
            return row;
    }
    rows.emplace_back();
    rows.back().protocol = protocol;
    return rows.back();
}

void
addOfferedLoad(std::vector<ProtocolStats> &rows,
               const std::vector<StreamRuntime> &streams)
{
    for (const StreamRuntime &stream : streams) {
        if (stream.spec == nullptr || stream.spec->adversarial)
            continue;
        ProtocolStats &row =
            protocolRow(rows, spanProtocolFor(stream.spec->method));
        row.offeredInitiations += stream.issued;
        row.offeredBytes += stream.offeredBytes;
        const std::string method = methodName(stream.spec->method);
        if (std::find(row.methods.begin(), row.methods.end(), method) ==
            row.methods.end())
            row.methods.push_back(method);
    }
}

WorkloadResult
runWorkload(const Scenario &scenario, std::uint64_t seed,
            const WorkloadOptions &options)
{
    ULDMA_PROF_SCOPE("workload.run");
    std::vector<std::vector<DmaMethod>> node_methods;
    std::string error;
    const bool derivable = deriveNodeMethods(scenario, node_methods,
                                             &error);
    ULDMA_ASSERT(derivable, "invalid scenario: ", error);

    MachineConfig config;
    config.numNodes = scenario.nodes;
    for (unsigned n = 0; n < scenario.nodes; ++n) {
        NodeConfig nc;
        nc.bus = busFor(scenario.bus);
        nc.cpu.clockMHz = scenario.cpuMhz;
        nc.kernel.syscallOverheadCycles = scenario.syscallCycles;
        const auto &methods = node_methods[n];
        if (!methods.empty()) {
            configureNode(nc, methods.front());
            // configureNode keys the extras off one method; a node can
            // legally mix several methods of one engine mode, so OR in
            // what any of them needs.
            for (DmaMethod m : methods) {
                if (m == DmaMethod::ExtShadow)
                    nc.dma.ctxIdBits = 2;
                if (m == DmaMethod::Flash)
                    nc.dma.flashTagCheck = true;
                if (m == DmaMethod::Cap)
                    nc.dma.cap.enabled = true;
            }
        }
        if (scenario.cap.enabled) {
            // Geometry overrides apply wherever a cap stream enabled
            // the table; the member alone does not switch it on, so a
            // cap-free scenario stays byte-identical to the baseline.
            nc.dma.cap.numSlots = scenario.cap.slots;
            nc.dma.cap.maxSpansPerSlot = scenario.cap.spansPerSlot;
            nc.dma.cap.rateClasses = scenario.cap.rateClasses;
            nc.dma.cap.checkCycles = scenario.cap.checkCycles;
        }
        if (scenario.iotlb.enabled) {
            nc.dma.iommu.enabled = true;
            nc.dma.iommu.iotlbEntries = scenario.iotlb.entries;
            nc.dma.iommu.iotlbWays = scenario.iotlb.ways;
            nc.dma.iommu.iotlbHitCycles = scenario.iotlb.hitCycles;
            nc.dma.iommu.iotlbMissCycles = scenario.iotlb.missCycles;
            nc.dma.iommu.walkCycles = scenario.iotlb.walkCycles;
            nc.dma.iommu.pinPolicy = scenario.iotlb.pinning == "on-demand"
                                         ? PinPolicy::OnDemand
                                         : PinPolicy::OnMap;
            nc.dma.iommu.pinBudgetPages =
                static_cast<unsigned>(scenario.iotlb.pinBudgetPages);
            nc.dma.iommu.faultPolicy = scenario.iotlb.fault == "trap"
                                           ? IommuFaultPolicy::Trap
                                           : IommuFaultPolicy::Abort;
        }
        if (scenario.scheduler.kind == SchedulerSpec::Kind::Random) {
            const std::uint64_t seed_node =
                options.nodeSeedIds.empty() ? n
                                            : options.nodeSeedIds.at(n);
            const std::uint64_t sched_seed =
                streamSeed(seed, seed_node, SeedPurpose::Scheduler);
            const std::uint64_t max_slice = scenario.scheduler.maxSlice;
            nc.makeScheduler = [sched_seed, max_slice]() {
                return std::make_unique<RandomScheduler>(sched_seed,
                                                         max_slice);
            };
        } else {
            const Tick quantum =
                Tick(scenario.scheduler.quantumUs) * tickPerUs;
            nc.makeScheduler = [quantum]() {
                return std::make_unique<RoundRobinScheduler>(quantum);
            };
        }
        config.perNode.push_back(std::move(nc));
    }

    Machine machine(config);
    for (unsigned n = 0; n < scenario.nodes; ++n) {
        for (DmaMethod m : node_methods[n])
            prepareNode(machine, static_cast<NodeId>(n), m);
    }

    span::tracker().enable();

    WorkloadResult result;
    result.seed = seed;
    result.streams.resize(scenario.streams.size());
    for (std::size_t i = 0; i < scenario.streams.size(); ++i) {
        const std::uint64_t seed_index =
            options.streamSeedIds.empty() ? i
                                          : options.streamSeedIds.at(i);
        spawnStream(machine, scenario, scenario.streams[i], seed_index,
                    seed, result.streams[i]);
    }

    machine.start();
    result.finished = machine.run(Tick(scenario.limitUs) * tickPerUs);
    result.durationUs = ticksToUs(machine.now());

    // Protocol rows: worker streams first (fixing first-appearance
    // order and the offered side), then whatever the tracker saw.
    addOfferedLoad(result.protocols, result.streams);

    const span::Tracker &tracker = span::tracker();
    for (std::size_t i = 0; i < tracker.size(); ++i) {
        const span::Span &span = tracker.at(i);
        ProtocolStats &row = protocolRow(result.protocols,
                                         span.protocol);
        ++row.opened;
        switch (span.outcome) {
          case span::Outcome::Completed:
            ++row.completed;
            row.completedBytes += span.size;
            row.e2eUs.push_back(
                ticksToUs(span.completed - span.firstAccess));
            break;
          case span::Outcome::Rejected:
            ++row.rejected;
            break;
          case span::Outcome::KeyMismatch:
            ++row.keyMismatch;
            break;
          case span::Outcome::Aborted:
            ++row.aborted;
            break;
          case span::Outcome::InFlight:
            ++row.inFlight;
            break;
        }
    }
    for (ProtocolStats &row : result.protocols)
        std::sort(row.e2eUs.begin(), row.e2eUs.end());

    for (unsigned n = 0; n < machine.numNodes(); ++n) {
        NodeStats stats;
        stats.node = n;
        stats.engineInitiations =
            machine.node(n).dmaEngine().numInitiations();
        stats.contextSwitches =
            machine.node(n).kernel().numContextSwitches();
        stats.syscalls = machine.node(n).kernel().numSyscalls();
        result.perNode.push_back(stats);
    }

    if (options.inspectMachine)
        options.inspectMachine(machine);
    if (!options.keepSpans)
        span::tracker().disable();
    return result;
}

} // namespace uldma::workload
