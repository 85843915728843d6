#include "workload/generator.hh"

#include "core/attack.hh"
#include "workload/prng.hh"

namespace uldma::workload {

namespace {

/**
 * Build one worker replica's program: slots × pageSize source and
 * destination regions (destination possibly a remote window), then
 * the paced initiation loop.
 */
Program
buildWorker(Machine &machine, const Scenario &scenario,
            const StreamSpec &spec, Kernel &kernel, Process &proc,
            const SizeSampler &sizes, Random &size_rng, Random &pace_rng,
            StreamRuntime &runtime)
{
    DmaMethod method = spec.method;
    if (method == DmaMethod::Ring) {
        // Size the ring to the stream's queue depth so one doorbell
        // drains exactly one batch (docs/RING.md).
        if (!kernel.setupRing(proc, spec.queueDepth,
                              ringdesc::policyPolling)) {
            method = DmaMethod::Kernel;
            ++runtime.kernelFallbacks;
        }
    } else if (!prepareProcess(kernel, proc, method)) {
        // Contexts exhausted: this replica degrades to the kernel
        // channel, exactly the fallback §3.2 prescribes.
        method = DmaMethod::Kernel;
        ++runtime.kernelFallbacks;
    }

    // Slot stride: sg streams cycle through multi-page buffers.
    const Addr stride = Addr(spec.sgPages) * pageSize;
    const Addr region = Addr(spec.slots) * stride;
    const Addr src = kernel.allocate(proc, region, Rights::ReadWrite);
    kernel.createShadowMappings(proc, src, region);

    Addr dst;
    if (spec.remoteNode >= 0) {
        Kernel &remote =
            machine.node(static_cast<NodeId>(spec.remoteNode)).kernel();
        const Addr frames = remote.allocFrames(spec.slots);
        dst = kernel.mapRemoteWindow(proc,
                                     static_cast<NodeId>(spec.remoteNode),
                                     frames, region, Rights::ReadWrite);
    } else {
        dst = kernel.allocate(proc, region, Rights::ReadWrite);
    }
    kernel.createShadowMappings(proc, dst, region);

    if (method == DmaMethod::Ring) {
        const DmaEngine &engine = machine.node(spec.node).dmaEngine();
        if (engine.iommu() != nullptr) {
            // IOMMU mode: descriptors carry virtual addresses, so the
            // buffers go into the process's I/O page table instead of
            // the kernel's physical-frame table.  Under on-demand
            // pinning the first device access pins (docs/IOMMU.md).
            const bool pin = engine.iommu()->params().pinPolicy ==
                             PinPolicy::OnMap;
            kernel.iommuMapRange(proc, src, region, pin);
            kernel.iommuMapRange(proc, dst, region, pin);
        } else {
            kernel.authorizeRingDma(proc, src, region);
            kernel.authorizeRingDma(proc, dst, region);
        }
    }

    if (method == DmaMethod::Cap) {
        // One slot covers both buffers: the grant walks src's frames,
        // the extension widens the same slot over dst.  Slot or span
        // exhaustion degrades to the kernel channel like every other
        // fallback (the reaper reclaims the slot at process exit).
        const int slot = kernel.capGrant(proc, src, region,
                                         spec.rateClass);
        if (slot < 0 ||
            !kernel.capExtend(proc, static_cast<unsigned>(slot), dst,
                              region)) {
            method = DmaMethod::Kernel;
            ++runtime.kernelFallbacks;
        }
    }

    if (method == DmaMethod::Shrimp1) {
        for (unsigned s = 0; s < spec.slots; ++s) {
            kernel.setupMapOut(
                proc, src + Addr(s) * pageSize,
                kernel.translateFor(proc, dst + Addr(s) * pageSize,
                                    Rights::Write)
                    .paddr);
        }
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
