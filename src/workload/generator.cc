#include "workload/generator.hh"

#include "core/attack.hh"
#include "util/bitfield.hh"
#include "workload/prng.hh"

namespace uldma::workload {

namespace {

/** What one initiation of a worker draws at spawn. */
struct Draw
{
    Addr size = 0;
    std::uint64_t gapUs = 0;   ///< open pacing only
};

/**
 * Build one worker replica's program: slots × sg_buffer pages of
 * source and destination (the destination possibly a remote window),
 * granted through a DmaSession, then the paced initiation loop, whose
 * blocks the program's source emits as the CPU reaches them.
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

    // Every draw now, in the stream's order, so the replicas after
    // this one draw what they always did.
    std::vector<Draw> draws(spec.initiations);
    for (Draw &draw : draws) {
        draw.size = sizes.sample(size_rng);
        if (spec.pacing.kind == Pacing::Kind::Open)
            draw.gapUs = sampleIntervalUs(spec.pacing.interval, pace_rng);
        ++runtime.issued;
        runtime.offeredBytes += draw.size;
    }

    StreamRuntime *rt = &runtime;
    Program prog;
    const int count_failure = prog.addHook([rt](ExecContext &ctx) {
        if (ctx.reg(reg::v0) == dmastatus::failure)
            ++rt->failures;
    });
    // Each call runs the loop until one block is out: one initiation
    // (a ring stream: a batch of queueDepth) with its pacing and
    // failure check, and exit() after the last.  The process owns
    // the program and outlives it, the kernel outlives the process,
    // and the spec outlives the run (StreamRuntime::spec).
    auto blocks = [spec = &spec, kernel = &kernel, proc = &proc, method,
                   src, dst, stride, count_failure,
                   cpu_mhz = scenario.cpuMhz, draws = std::move(draws),
                   i = std::size_t(0),
                   batch = std::vector<RingTransfer>()](
                      Program &block) mutable {
        const std::size_t n = draws.size();
        if (i > n)
            return false;   // exit() went out
        while (i < n) {
            const Addr s = i % spec->slots;
            const Draw draw = draws[i++];
            if (draw.gapUs > 0)
                block.compute(draw.gapUs * cpu_mhz);

            if (method == DmaMethod::Ring) {
                // Ring streams batch queueDepth descriptors per
                // doorbell; the wait + status check happen once per
                // batch.
                batch.push_back({src + s * stride, dst + s * stride,
                                 draw.size});
                if (batch.size() < spec->queueDepth && i < n)
                    continue;
                emitRingBatch(block, *kernel, *proc, batch);
                batch.clear();
            } else {
                emitInitiation(block, *kernel, *proc, method,
                               src + s * pageSize, dst + s * pageSize,
                               draw.size);
            }
            block.callbackAt(count_failure);
            block.membar();

            if (spec->pacing.kind == Pacing::Kind::Closed &&
                spec->pacing.thinkUs > 0)
                block.compute(spec->pacing.thinkUs * cpu_mhz);
            break;
        }
        if (i == n) {
            block.exit();
            ++i;
        }
        return true;
    };
    blocks(prog);
    prog.setSource(std::move(blocks));
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
