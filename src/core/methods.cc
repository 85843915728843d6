#include "core/methods.hh"

#include <algorithm>

#include "util/logging.hh"

namespace uldma {

const char *
toString(DmaMethod method)
{
    switch (method) {
      case DmaMethod::Kernel: return "kernel-level";
      case DmaMethod::Shrimp1: return "shrimp-1 (mapped-out)";
      case DmaMethod::Shrimp2: return "shrimp-2";
      case DmaMethod::Flash: return "flash";
      case DmaMethod::PalCode: return "pal-code";
      case DmaMethod::KeyBased: return "key-based";
      case DmaMethod::ExtShadow: return "ext-shadow";
      case DmaMethod::Repeated3: return "repeated-3 (unsafe)";
      case DmaMethod::Repeated4: return "repeated-4 (unsafe)";
      case DmaMethod::Repeated5: return "repeated-5";
      case DmaMethod::Ring: return "ring";
      case DmaMethod::Cap: return "cap";
    }
    return "?";
}

bool
isUserLevel(DmaMethod method)
{
    return method != DmaMethod::Kernel;
}

bool
requiresKernelModification(DmaMethod method)
{
    return method == DmaMethod::Shrimp2 || method == DmaMethod::Flash;
}

EngineMode
engineModeFor(DmaMethod method)
{
    switch (method) {
      case DmaMethod::Kernel:
        return EngineMode::ShadowPair;   // unused; kernel block only
      case DmaMethod::Shrimp1:
        return EngineMode::MappedOut;
      case DmaMethod::Shrimp2:
      case DmaMethod::Flash:
      case DmaMethod::PalCode:
      case DmaMethod::ExtShadow:
        return EngineMode::ShadowPair;
      case DmaMethod::KeyBased:
      case DmaMethod::Ring:   // doorbell is key-gated like §3.1
      case DmaMethod::Cap:    // cap window is decoded besides the mode
        return EngineMode::KeyBased;
      case DmaMethod::Repeated3:
        return EngineMode::Repeated3;
      case DmaMethod::Repeated4:
        return EngineMode::Repeated4;
      case DmaMethod::Repeated5:
        return EngineMode::Repeated5;
    }
    return EngineMode::ShadowPair;
}

unsigned
initiationAccessCount(DmaMethod method)
{
    switch (method) {
      case DmaMethod::Kernel: return 4;    // inside the kernel
      case DmaMethod::Shrimp1: return 1;
      case DmaMethod::Shrimp2: return 2;
      case DmaMethod::Flash: return 2;
      case DmaMethod::PalCode: return 2;
      case DmaMethod::KeyBased: return 4;
      case DmaMethod::ExtShadow: return 2;
      case DmaMethod::Repeated3: return 3;
      case DmaMethod::Repeated4: return 4;
      case DmaMethod::Repeated5: return 5;
      // Ring: 5 descriptor/completion stores, 1 doorbell store, 1
      // status load per transfer — but the doorbell amortizes over a
      // batch (bench_ring measures the amortized curve).
      case DmaMethod::Ring: return 7;
      // Cap: src/dst/size stores, the committing capword store, and
      // the status load (docs/CAPABILITIES.md).
      case DmaMethod::Cap: return 5;
    }
    return 0;
}

void
configureNode(NodeConfig &config, DmaMethod method)
{
    config.dma.mode = engineModeFor(method);
    config.dma.ctxIdBits = method == DmaMethod::ExtShadow ? 2 : 0;
    config.dma.flashTagCheck = method == DmaMethod::Flash;
    if (method == DmaMethod::Cap)
        config.dma.cap.enabled = true;
}

void
prepareNode(Machine &machine, NodeId node, DmaMethod method)
{
    Kernel &kernel = machine.node(node).kernel();
    if (method == DmaMethod::Shrimp2)
        kernel.installShrimp2Hook();
    if (method == DmaMethod::Flash)
        kernel.installFlashHook();

    if (method == DmaMethod::PalCode &&
        !machine.node(node).cpu().hasPal(palDmaIndex)) {
        // The PAL body of §2.7:
        //   STORE size TO shadow(vdestination)
        //   LOAD return_status FROM shadow(vsource)
        // with shadow(vdst) in a0, shadow(vsrc) in a1, size in a2.
        Program pal;
        pal.storeIndirectReg(reg::a0, 0, reg::a2);
        pal.loadIndirect(reg::v0, reg::a1, 0);
        machine.node(node).cpu().registerPal(palDmaIndex, std::move(pal));
    }
}

void
prepareMachine(Machine &machine, DmaMethod method)
{
    for (unsigned n = 0; n < machine.numNodes(); ++n)
        prepareNode(machine, static_cast<NodeId>(n), method);
}

const char *
spanProtocolFor(DmaMethod method)
{
    if (method == DmaMethod::Kernel)
        return "kernel";
    if (method == DmaMethod::Ring)
        return "ring";   // shares the key-based engine mode but spans
                         // and reports under its own protocol name
    if (method == DmaMethod::Cap)
        return "cap";
    return toString(engineModeFor(method));
}

bool
prepareProcess(Kernel &kernel, Process &process, DmaMethod method,
               unsigned ring_slots)
{
    switch (method) {
      case DmaMethod::KeyBased:
        return kernel.grantKeyContext(process);
      case DmaMethod::ExtShadow:
        return kernel.grantShadowContext(process);
      case DmaMethod::Ring:
        if (process.dmaGrant().ringConfigured)
            return true;   // pre-configured by the caller
        return kernel.setupRing(process, ring_slots);
      case DmaMethod::Cap:
        // Capabilities are granted per buffer (Kernel::capGrant at
        // DmaSession::mapForDma time), not per process; slot
        // exhaustion surfaces there.
        return true;
      default:
        return true;
    }
}

void
emitInitiation(Program &program, Kernel &kernel, Process &process,
               DmaMethod method, Addr vsrc, Addr vdst, Addr size)
{
    switch (method) {
      case DmaMethod::Kernel: {
        // Trap with (vsrc, vdst, size); the kernel does the rest
        // (figure 1).
        program.move(reg::a0, vsrc);
        program.move(reg::a1, vdst);
        program.move(reg::a2, size);
        program.syscall(sys::dma);
        program.withLabel("kernel dma");
        break;
      }

      case DmaMethod::Shrimp1: {
        // One compare-and-exchange to shadow(vsrc) carrying the size;
        // the destination is the mapped-out page (paper §2.4).
        const Addr ssrc = kernel.shadowVaddrFor(process, vsrc);
        program.atomicRmw(reg::v0, ssrc, size);
        program.withLabel("shrimp1 cmp&exchange");
        break;
      }

      case DmaMethod::Shrimp2:
      case DmaMethod::Flash:
      case DmaMethod::ExtShadow: {
        // Figure 2 / figure 4: STORE size TO shadow(vdst);
        // LOAD status FROM shadow(vsrc).
        const Addr sdst = kernel.shadowVaddrFor(process, vdst);
        const Addr ssrc = kernel.shadowVaddrFor(process, vsrc);
        program.store(sdst, size);
        program.withLabel("store size->shadow(dst)");
        program.load(reg::v0, ssrc);
        program.withLabel("load status<-shadow(src)");
        break;
      }

      case DmaMethod::PalCode: {
        // §2.7: the two-access pair wrapped in an uninterruptible PAL
        // call.
        const Addr sdst = kernel.shadowVaddrFor(process, vdst);
        const Addr ssrc = kernel.shadowVaddrFor(process, vsrc);
        program.move(reg::a0, sdst);
        program.move(reg::a1, ssrc);
        program.move(reg::a2, size);
        program.callPal(palDmaIndex);
        program.withLabel("call_pal user_level_dma");
        break;
      }

      case DmaMethod::KeyBased: {
        // Figure 3: two keyed address-passing stores, a size store to
        // the register-context page, and the initiating status load.
        const auto &grant = process.dmaGrant();
        ULDMA_ASSERT(grant.keyContext.has_value(),
                     "key-based initiation without a granted context");
        const std::uint64_t payload =
            keyfield::pack(grant.key, *grant.keyContext);
        const Addr sdst = kernel.shadowVaddrFor(process, vdst);
        const Addr ssrc = kernel.shadowVaddrFor(process, vsrc);
        program.store(sdst, payload);
        program.withLabel("store key#ctx->shadow(dst)");
        program.store(ssrc, payload);
        program.withLabel("store key#ctx->shadow(src)");
        program.store(grant.contextPageVaddr, size);
        program.withLabel("store size->ctx page");
        program.load(reg::v0, grant.contextPageVaddr);
        program.withLabel("load status<-ctx page");
        break;
      }

      case DmaMethod::Repeated3: {
        // §3.3, Dubnicki's 3-instruction sequence.  The membar keeps
        // the second load from being serviced by the read buffer
        // (footnote 6).
        const Addr sdst = kernel.shadowVaddrFor(process, vdst);
        const Addr ssrc = kernel.shadowVaddrFor(process, vsrc);
        program.load(reg::t0, ssrc);
        program.withLabel("1: load shadow(src)");
        program.membar();
        program.store(sdst, size);
        program.withLabel("2: store shadow(dst)");
        program.load(reg::v0, ssrc);
        program.withLabel("3: load shadow(src)");
        break;
      }

      case DmaMethod::Repeated4: {
        const Addr sdst = kernel.shadowVaddrFor(process, vdst);
        const Addr ssrc = kernel.shadowVaddrFor(process, vsrc);
        program.store(sdst, size);
        program.withLabel("1: store shadow(dst)");
        program.load(reg::t0, ssrc);
        program.withLabel("2: load shadow(src)");
        program.membar();
        program.store(sdst, size);
        program.withLabel("3: store shadow(dst)");
        program.load(reg::v0, ssrc);
        program.withLabel("4: load shadow(src)");
        break;
      }

      case DmaMethod::Repeated5: {
        // Figure 7, complete with the retry-on-failure branches and
        // the memory barriers §3.4 says the measurement used.
        const Addr sdst = kernel.shadowVaddrFor(process, vdst);
        const Addr ssrc = kernel.shadowVaddrFor(process, vsrc);
        const int restart = program.here();
        program.store(sdst, size);
        program.withLabel("1: store shadow(dst)");
        program.load(reg::v0, ssrc);
        program.withLabel("2: load shadow(src)");
        program.membar();
        program.branchEq(reg::v0, dmastatus::failure, restart);
        program.store(sdst, size);
        program.withLabel("3: store shadow(dst)");
        program.load(reg::v0, ssrc);
        program.withLabel("4: load shadow(src)");
        program.membar();
        program.branchEq(reg::v0, dmastatus::failure, restart);
        program.load(reg::v0, sdst);
        program.withLabel("5: load shadow(dst)");
        program.membar();
        program.branchEq(reg::v0, dmastatus::failure, restart);
        break;
      }

      case DmaMethod::Ring: {
        // Degenerate one-descriptor batch: same enqueue discipline,
        // one doorbell, wait for the single completion record.
        emitRingBatch(program, kernel, process,
                      {{vsrc, vdst, size}});
        break;
      }

      case DmaMethod::Cap: {
        // docs/CAPABILITIES.md: physical endpoints resolved once at
        // program-build time (uncosted, like shadowVaddrFor math), the
        // grant's own capword commits the presentation.
        const auto &grant = process.dmaGrant();
        ULDMA_ASSERT(!grant.capSlots.empty(),
                     "cap initiation without a granted capability");
        const Translation src_x =
            kernel.translateFor(process, vsrc, Rights::Read);
        const Translation dst_x =
            kernel.translateFor(process, vdst, Rights::Write);
        ULDMA_ASSERT(src_x.ok() && dst_x.ok(),
                     "cap initiation: transfer buffers not mapped");
        emitCapPresentationRaw(program, grant.capPageVaddrs.back(),
                               grant.capWords.back(), src_x.paddr,
                               dst_x.paddr, size);
        // The slot status stays `pending` from the commit until the
        // arbiter dispatches and the transfer completes.  Wait it out:
        // process exit tears the slot down (Kernel::reapGrants), which
        // fails closed anything still queued or in flight — a process
        // that wants its payload must outlive the transfer, exactly
        // like the ring method's completion poll.
        const Addr status_vaddr =
            grant.capPageVaddrs.back() + cappage::word;
        const int poll = program.here();
        program.load(reg::v0, status_vaddr);
        program.withLabel("cap: poll status");
        program.membar();   // invalidate the merge buffer between polls
        program.compute(8);
        program.branchEq(reg::v0, dmastatus::pending, poll);
        break;
      }
    }
}

void
emitCapPresentationRaw(Program &program, Addr page_vaddr,
                       std::uint64_t capword, Addr src_paddr,
                       Addr dst_paddr, Addr size)
{
    program.store(page_vaddr + cappage::src, src_paddr);
    program.withLabel("cap: store src");
    program.store(page_vaddr + cappage::dst, dst_paddr);
    program.withLabel("cap: store dst");
    program.store(page_vaddr + cappage::size, size);
    program.withLabel("cap: store size");
    program.membar();
    // The capword store is the commit point — arguments must be
    // visible before it lands.
    program.store(page_vaddr + cappage::word, capword);
    program.withLabel("cap: store capword (commit)");
    program.load(reg::v0, page_vaddr + cappage::word);
    program.withLabel("cap: load status");
}

void
emitRingBatch(Program &program, Kernel &kernel, Process &process,
              const std::vector<RingTransfer> &batch)
{
    auto &grant = process.dmaGrant();
    ULDMA_ASSERT(grant.ringConfigured && grant.keyContext.has_value(),
                 "ring batch without Kernel::setupRing");
    ULDMA_ASSERT(grant.ringSlots > 0, "ring batch on empty ring");
    const std::uint64_t doorbell_payload =
        keyfield::pack(grant.key, *grant.keyContext);
    const Addr doorbell =
        grant.contextPageVaddr + ctxpage::ringDoorbell;

    // Emit one doorbell per chunk of at most ringSlots descriptors: a
    // single doorbell store drains at most one full ring.
    std::size_t next = 0;
    while (next < batch.size()) {
        const std::size_t chunk =
            std::min<std::size_t>(batch.size() - next, grant.ringSlots);
        unsigned last_slot = 0;
        for (std::size_t i = 0; i < chunk; ++i) {
            const RingTransfer &t = batch[next + i];
            const unsigned slot =
                static_cast<unsigned>(grant.ringEnqueueSeq++ %
                                      grant.ringSlots);
            last_slot = slot;
            const Addr desc =
                grant.ringDescVaddr + Addr(slot) * ringdesc::descBytes;
            const Addr cpl =
                grant.ringCplVaddr + Addr(slot) * ringdesc::cplBytes;

            // IOMMU mode (docs/IOMMU.md): descriptors carry the raw
            // user virtual addresses — no translation at enqueue time
            // at all, the engine translates per segment.  Classic
            // mode: descriptors carry physical addresses the user
            // computed once at setup time (shadow(v) -
            // shadowVirtualBase, resolved here at program-build time,
            // uncosted like every other method's shadowVaddrFor math).
            Addr desc_src = t.vsrc;
            Addr desc_dst = t.vdst;
            if (!grant.ringIommu) {
                const Translation src_x =
                    kernel.translateFor(process, t.vsrc, Rights::Read);
                const Translation dst_x =
                    kernel.translateFor(process, t.vdst, Rights::Write);
                ULDMA_ASSERT(src_x.ok() && dst_x.ok(),
                             "ring batch: transfer buffers not mapped");
                desc_src = src_x.paddr;
                desc_dst = dst_x.paddr;
            }

            program.store(cpl, 0);
            program.withLabel("ring: clear completion record");
            program.store(desc + ringdesc::srcOff, desc_src);
            program.withLabel("ring: store desc.src");
            program.store(desc + ringdesc::dstOff, desc_dst);
            program.withLabel("ring: store desc.dst");
            program.store(desc + ringdesc::sizeOff, t.size);
            program.withLabel("ring: store desc.size");
            program.membar();
            // Control word written LAST: arming is the commit point,
            // so a preemption mid-enqueue leaves a torn descriptor the
            // engine will not consume.
            program.store(desc + ringdesc::ctrlOff, ringdesc::ctrl::valid);
            program.withLabel("ring: arm desc (ctrl last)");
        }
        program.membar();   // descriptors visible before the doorbell
        program.store(doorbell, doorbell_payload);
        program.withLabel("ring: doorbell (key#ctx)");

        // Completion side.  The engine retires slots in order, so the
        // chunk's last record flipping nonzero means the whole chunk
        // is done.
        const Addr last_cpl =
            grant.ringCplVaddr + Addr(last_slot) * ringdesc::cplBytes;
        const int poll = program.here();
        program.load(reg::v0, last_cpl);
        program.withLabel("ring: poll completion record");
        program.membar();
        program.compute(8);
        program.branchEq(reg::v0, 0, poll);
        next += chunk;
    }
}

DmaSession::DmaSession(Machine &machine, NodeId node, Process &process,
                       DmaMethod method, unsigned ring_slots,
                       unsigned rate_class)
    : kernel_(machine.node(node).kernel()), process_(process),
      method_(method), rateClass_(rate_class)
{
    ready_ = prepareProcess(kernel_, process_, method_, ring_slots);
}

Addr
DmaSession::allocBuffer(Addr bytes, Rights rights)
{
    const Addr vaddr = kernel_.allocate(process_, bytes, rights);
    mapForDma(vaddr, bytes);
    return vaddr;
}

void
DmaSession::mapForDma(Addr vaddr, Addr bytes)
{
    kernel_.createShadowMappings(process_, vaddr, bytes);
    if (method_ == DmaMethod::Cap && ready_) {
        // First buffer grants the slot; later buffers widen the same
        // slot's spans so one capword covers src and dst alike.
        auto &grant = process_.dmaGrant();
        if (grant.capSlots.empty()) {
            ready_ = kernel_.capGrant(process_, vaddr, bytes,
                                      rateClass_) >= 0;
        } else {
            ready_ = kernel_.capExtend(process_, grant.capSlots.back(),
                                       vaddr, bytes);
        }
        return;
    }
    if (method_ == DmaMethod::Ring && ready_) {
        if (process_.dmaGrant().ringIommu) {
            // IOMMU mode: the buffer enters the context's I/O page
            // table instead of the frame table; pinning follows the
            // engine's policy.
            DmaEngine *engine = kernel_.dmaEngine();
            const bool pin = engine->iommu()->params().pinPolicy ==
                             PinPolicy::OnMap;
            kernel_.iommuMapRange(process_, vaddr, bytes, pin);
        } else {
            // Classic ring: descriptors name physical addresses
            // directly, so the engine's authorization is a frame
            // table, not the MMU: register the buffer's frames.
            kernel_.authorizeRingDma(process_, vaddr, bytes);
        }
    }
}

void
DmaSession::pairMappedOut(Addr vsrc, Addr vdst, unsigned pages)
{
    if (method_ != DmaMethod::Shrimp1)
        return;
    for (unsigned s = 0; s < pages; ++s) {
        const Addr dst_paddr =
            kernel_.translateFor(process_, vdst + Addr(s) * pageSize,
                                 Rights::Write).paddr;
        kernel_.setupMapOut(process_, vsrc + Addr(s) * pageSize,
                            dst_paddr);
    }
}

} // namespace uldma
