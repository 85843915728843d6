#include "workload/generator.hh"

#include "core/attack.hh"
#include "util/bitfield.hh"
#include "workload/prng.hh"

namespace uldma::workload {

namespace {

/**
 * Build one worker replica's program: slots × sg_buffer pages of
 * source and destination (the destination possibly a remote window),
 * granted through a DmaSession, then the paced initiation loop.
 */
Program
buildWorker(Machine &machine, const Scenario &scenario,
            const StreamSpec &spec, Kernel &kernel, Process &proc,
            const SizeSampler &sizes, Random &size_rng, Random &pace_rng,
            StreamRuntime &runtime)
{
    // A ring is sized to the stream's queue depth, so one doorbell
    // drains exactly one batch (docs/RING.md).
    DmaSession session(machine, spec.node, proc, spec.method,
                       spec.queueDepth, spec.rateClass);

    // Slot stride: sg streams cycle through multi-page buffers.
    const Addr stride = Addr(spec.sgPages) * pageSize;
    const Addr region = Addr(spec.slots) * stride;
    const Addr src = session.allocBuffer(region);
    Addr dst;
    if (spec.remoteNode >= 0) {
        const auto remote = static_cast<NodeId>(spec.remoteNode);
        const Addr frames =
            machine.node(remote).kernel().allocFrames(region / pageSize);
        dst = kernel.mapRemoteWindow(proc, remote, frames, region,
                                     Rights::ReadWrite);
        session.mapForDma(dst, region);
    } else {
        dst = session.allocBuffer(region);
    }
    session.pairMappedOut(src, dst, spec.slots);

    // No free context, ring, capability slot or span: this replica
    // degrades to the kernel channel, the fallback §3.2 prescribes
    // (the reaper reclaims a partial grant at process exit).
    DmaMethod method = spec.method;
    if (!session.ready()) {
        method = DmaMethod::Kernel;
        ++runtime.kernelFallbacks;
    }

    StreamRuntime *rt = &runtime;
    Program prog;
    const int count_failure = prog.addHook([rt](ExecContext &ctx) {
        if (ctx.reg(reg::v0) == dmastatus::failure)
            ++rt->failures;
    });
    std::vector<RingTransfer> batch;
    for (unsigned i = 0; i < spec.initiations; ++i) {
        const unsigned s = i % spec.slots;
        const Addr size = sizes.sample(size_rng);

        if (spec.pacing.kind == Pacing::Kind::Open) {
            const std::uint64_t gap_us =
                sampleIntervalUs(spec.pacing.interval, pace_rng);
            if (gap_us > 0)
                prog.compute(gap_us * scenario.cpuMhz);
        }

        if (method == DmaMethod::Ring) {
            // Ring streams batch queueDepth descriptors per doorbell;
            // the wait + status check happen once per batch.
            batch.push_back({src + Addr(s) * stride,
                             dst + Addr(s) * stride, size});
            ++runtime.issued;
            runtime.offeredBytes += size;
            if (batch.size() < spec.queueDepth &&
                i + 1 < spec.initiations)
                continue;
            emitRingBatch(prog, kernel, proc, batch);
            batch.clear();
        } else {
            emitInitiation(prog, kernel, proc, method,
                           src + Addr(s) * pageSize,
                           dst + Addr(s) * pageSize, size);
            ++runtime.issued;
            runtime.offeredBytes += size;
        }
        prog.callbackAt(count_failure);
        prog.membar();

        if (spec.pacing.kind == Pacing::Kind::Closed &&
            spec.pacing.thinkUs > 0)
            prog.compute(spec.pacing.thinkUs * scenario.cpuMhz);
    }
    prog.exit();
    return prog;
}

/**
 * Build one adversarial replica: two owned, shadow-mapped pages and
 * the attack harness's access mix over them.  Replica 0 plays the
 * hijacker (figure-5 strategy); the rest issue the random mix.
 */
Program
buildAdversary(const StreamSpec &spec, Kernel &kernel, Process &proc,
               Random &adv_rng, StreamRuntime &runtime, bool hijacker)
{
    const Addr page1 = kernel.allocate(proc, pageSize, Rights::ReadWrite);
    const Addr page2 = kernel.allocate(proc, pageSize, Rights::ReadWrite);
    kernel.createShadowMappings(proc, page1, pageSize);
    kernel.createShadowMappings(proc, page2, pageSize);

    Program prog;
    appendAdversarialOps(prog, kernel, proc, page1, page2,
                         /*shared_readonly_vaddr=*/0, adv_rng, spec.ops,
                         hijacker);
    prog.exit();
    runtime.adversarialOps += spec.ops;
    return prog;
}

} // namespace

std::vector<Addr>
framesPerNode(const Scenario &scenario)
{
    std::vector<Addr> frames(scenario.nodes, 0);
    for (const StreamSpec &spec : scenario.streams) {
        if (spec.adversarial) {
            frames[spec.node] += Addr(spec.count) * 2;  // buildAdversary
            continue;
        }
        const Addr region = Addr(spec.slots) * spec.sgPages;
        const NodeId dst_node = spec.remoteNode >= 0
                                    ? static_cast<NodeId>(spec.remoteNode)
                                    : spec.node;
        frames[spec.node] += Addr(spec.count) * region;
        frames[dst_node] += Addr(spec.count) * region;
        if (spec.method == DmaMethod::Ring) {
            // Kernel::setupRing's descriptor and completion regions.
            const Addr depth = spec.queueDepth;
            frames[spec.node] +=
                Addr(spec.count) *
                (divCeil(depth * ringdesc::descBytes, pageSize) +
                 divCeil(depth * ringdesc::cplBytes, pageSize));
        }
    }
    return frames;
}

void
spawnStream(Machine &machine, const Scenario &scenario,
            const StreamSpec &spec, std::uint64_t stream_index,
            std::uint64_t seed, StreamRuntime &runtime)
{
    runtime.spec = &spec;
    Kernel &kernel = machine.node(spec.node).kernel();

    // All replicas of a stream share its RNGs; draws happen in replica
    // order at build time, so the sequence is seed-deterministic.
    const SizeSampler sizes(spec.size);
    Random size_rng(streamSeed(seed, stream_index, SeedPurpose::Sizes));
    Random pace_rng(streamSeed(seed, stream_index, SeedPurpose::Pacing));
    Random adv_rng(
        streamSeed(seed, stream_index, SeedPurpose::Adversarial));

    for (unsigned r = 0; r < spec.count; ++r) {
        const std::string name =
            spec.count == 1 ? spec.name
                            : spec.name + "." + std::to_string(r);
        kernel.spawn(name, [&](Process &proc) {
            if (spec.adversarial) {
                return buildAdversary(spec, kernel, proc, adv_rng,
                                      runtime, /*hijacker=*/r == 0);
            }
            return buildWorker(machine, scenario, spec, kernel, proc,
                               sizes, size_rng, pace_rng, runtime);
        });
    }
}

} // namespace uldma::workload
