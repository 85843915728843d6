#include "os/kernel.hh"

#include <algorithm>

#include "prof/profiler.hh"
#include "sim/span.hh"
#include "sim/trace.hh"
#include "util/logging.hh"

namespace uldma {

namespace {

/**
 * Walk [vaddr, vaddr+bytes) of @p process page by page, in order, and
 * call @p run(base, limit, rights) once per physically contiguous
 * frame run with its [base, limit) and the rights all of its pages
 * allow.  Stops at the first unmapped page (its pending run is not
 * passed on) or at the first run @p run refuses.  @return false when
 * it stopped early.
 */
template <typename Run>
bool
forEachFrameRun(Process &process, Addr vaddr, Addr bytes, Run &&run)
{
    const Addr first = pageAlignDown(vaddr);
    const Addr last = pageAlignDown(vaddr + bytes - 1);
    Addr base = 0;
    Addr limit = 0;
    Rights rights = Rights::None;
    for (Addr page = first; page <= last; page += pageSize) {
        const auto pte = process.pageTable().lookup(page);
        if (!pte.has_value())
            return false;
        const Addr paddr = pte->pfn << pageShift;
        if (page != first && paddr == limit) {
            limit += pageSize;   // extend the contiguous run
            rights = rights & pte->rights;
            continue;
        }
        if (page != first && !run(base, limit, rights))
            return false;
        base = paddr;
        limit = paddr + pageSize;
        rights = pte->rights;
    }
    return run(base, limit, rights);
}

/** True when [vaddr, vaddr+bytes) is non-empty and lies inside
 *  @p process's [userRegionBase, allocCursor()).  Written so that
 *  nothing can wrap. */
bool
userRange(const Process &process, Addr vaddr, Addr bytes)
{
    return bytes != 0 && vaddr >= userRegionBase &&
           vaddr <= process.allocCursor() &&
           bytes <= process.allocCursor() - vaddr;
}

/** Pages touched by the non-wrapping range [vaddr, vaddr+bytes). */
Addr
pagesSpanned(Addr vaddr, Addr bytes)
{
    return pageNumber(vaddr + bytes - 1) - pageNumber(vaddr) + 1;
}

} // namespace

Kernel::Kernel(std::string name, Cpu &cpu, Scheduler &scheduler,
               const KernelParams &params)
    : name_(std::move(name)), cpu_(cpu), scheduler_(scheduler),
      params_(params),
      keyRng_(0xF0A7'0000'0000'0001ULL ^ (cpu.node() + 1)),
      statsGroup_(name_)
{
    cpu_.setOs(this);
    statsGroup_.addScalar("context_switches", &switches_,
                          "context switches performed");
    statsGroup_.addScalar("syscalls", &syscalls_, "system calls handled");
    statsGroup_.addScalar("faulted_processes", &faults_,
                          "processes killed by memory faults");
    statsGroup_.addScalar("hook_invocations", &hookRuns_,
                          "context-switch hook executions (kernel mods)");
    statsGroup_.addScalar("dma_waits", &dmaWaits_,
                          "processes blocked in sys::dmaWait");
    statsGroup_.addScalar("dma_interrupts", &dmaInterrupts_,
                          "kernel-channel completion interrupts");
}

void
Kernel::setDmaEngine(DmaEngine *engine)
{
    engine_ = engine;
    if (engine_ == nullptr)
        return;
    // Wire the completion interrupt: wake any process blocked in
    // sys::dmaWait when the kernel channel's transfer finishes.
    engine_->setKernelCompletionHandler(
        [this]() { onKernelDmaInterrupt(); });
    if (engine_->iommu() != nullptr) {
        // Translation-fault fix-up under IommuFaultPolicy::Trap.  The
        // kernel-side counters join the stats group only when the
        // engine has an IOMMU, keeping non-IOMMU stats documents
        // byte-identical.
        engine_->setIommuFaultHandler(
            [this](unsigned ctx, Addr iova, bool is_write) {
                return onIommuFault(ctx, iova, is_write);
            });
        statsGroup_.addScalar("iommu_maps", &iommuMaps_,
                              "pages mapped into I/O page tables");
        statsGroup_.addScalar("iommu_fixups", &iommuFixups_,
                              "IOMMU faults repaired and resumed");
    }
    if (engine_->cap() != nullptr) {
        // Same byte-identity rule for the capability family's
        // kernel-side counters.
        statsGroup_.addScalar("cap_grants", &capGrants_,
                              "capability slots granted");
        statsGroup_.addScalar("cap_delegations", &capDelegations_,
                              "capability slots delegated");
        statsGroup_.addScalar("cap_revocations", &capRevocations_,
                              "capability slots revoked and re-armed");
    }
    // Tell the engine how long after a trap its SIZE write physically
    // lands (kernel entry + two software translations), so
    // kernel-channel transfers start at the honest wall-clock time.
    kregWrite(kregs::startDelay,
              cyclesToTicks(params_.syscallOverheadCycles * 3 / 4 +
                            2 * params_.translateCycles));
}

// ---------------------------------------------------------------------
// Privileged register access.
// ---------------------------------------------------------------------

Tick
Kernel::kregWrite(Addr reg, std::uint64_t value)
{
    Packet pkt = Packet::makeWrite(dmaKernelRegsBase + reg, value);
    return cpu_.kernelBusAccess(pkt);
}

std::uint64_t
Kernel::kregRead(Addr reg, Tick *cost)
{
    Packet pkt = Packet::makeRead(dmaKernelRegsBase + reg);
    const Tick t = cpu_.kernelBusAccess(pkt);
    if (cost != nullptr)
        *cost += t;
    return pkt.data;
}

Tick
Kernel::akregWrite(Addr reg, std::uint64_t value)
{
    Packet pkt = Packet::makeWrite(atomicKernelRegsBase + reg, value);
    return cpu_.kernelBusAccess(pkt);
}

std::uint64_t
Kernel::akregRead(Addr reg, Tick *cost)
{
    Packet pkt = Packet::makeRead(atomicKernelRegsBase + reg);
    const Tick t = cpu_.kernelBusAccess(pkt);
    if (cost != nullptr)
        *cost += t;
    return pkt.data;
}

// ---------------------------------------------------------------------
// Process lifecycle.
// ---------------------------------------------------------------------

Process &
Kernel::createProcess(std::string process_name)
{
    processes_.push_back(
        std::make_unique<Process>(nextPid_++, std::move(process_name)));
    return *processes_.back();
}

Process &
Kernel::process(Pid pid)
{
    for (auto &p : processes_) {
        if (p->pid() == pid)
            return *p;
    }
    ULDMA_PANIC(name_, ": no process with pid ", pid);
}

void
Kernel::launch(Process &process, Program program)
{
    ULDMA_ASSERT(&process.context() != cpu_.currentContext(), name_,
                 ": relaunching running process ", process.pid());
    process.context().setProgram(std::move(program));
    scheduler_.enqueue(process);
}

Process &
Kernel::spawn(const std::string &process_name,
              const std::function<Program(Process &)> &setup)
{
    Process &process = createProcess(process_name);
    launch(process, setup(process));
    return process;
}

void
Kernel::scheduleFirst()
{
    doContextSwitch();
    cpu_.start();
}

bool
Kernel::allFinished() const
{
    for (const auto &p : processes_) {
        if (!p->finished())
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Memory services.
// ---------------------------------------------------------------------

Addr
Kernel::allocFrames(Addr npages)
{
    const Addr base = nextFreeFrame_ << pageShift;
    ULDMA_ASSERT(base + npages * pageSize <= cpu_.memory().size(),
                 name_, ": out of physical memory");
    nextFreeFrame_ += npages;
    return base;
}

Addr
Kernel::allocate(Process &process, Addr bytes, Rights rights)
{
    ULDMA_ASSERT(bytes > 0, "zero-byte allocation");
    const Addr npages = divCeil(bytes, pageSize);
    const Addr paddr = allocFrames(npages);
    const Addr vaddr = process.allocCursor();
    process.pageTable().mapRange(vaddr, paddr, npages, rights);
    // Leave a guard page between allocations.
    process.setAllocCursor(vaddr + (npages + 1) * pageSize);
    grants_.push_back({Grant::Kind::Frames, process.pid(), 0, paddr,
                       npages * pageSize, rights});
    return vaddr;
}

Addr
Kernel::mapShared(Process &owner, Addr owner_vaddr, Addr bytes,
                  Process &other, Rights rights)
{
    const Translation xlate =
        translateFor(owner, owner_vaddr, Rights::None);
    ULDMA_ASSERT(xlate.ok(), "mapShared: owner address not mapped");
    const Addr npages = divCeil(bytes + pageOffset(owner_vaddr), pageSize);
    const Addr vaddr = other.allocCursor() + pageOffset(owner_vaddr);
    other.pageTable().mapRange(pageAlignDown(vaddr),
                               pageAlignDown(xlate.paddr), npages, rights);
    other.setAllocCursor(pageAlignDown(vaddr) + (npages + 1) * pageSize);
    grants_.push_back({Grant::Kind::Frames, other.pid(), 0,
                       pageAlignDown(xlate.paddr), npages * pageSize,
                       rights});
    return vaddr;
}

Addr
Kernel::mapRemoteWindow(Process &process, NodeId node, Addr remote_paddr,
                        Addr bytes, Rights rights)
{
    ULDMA_ASSERT(nic_ != nullptr, "no NIC attached");
    ULDMA_ASSERT(pageOffset(remote_paddr) == 0,
                 "remote window mapping must be page aligned");
    const Addr npages = divCeil(bytes, pageSize);
    const Addr window = nic_->remoteWindowAddr(node, remote_paddr);
    const Addr vaddr = process.allocCursor();
    process.pageTable().mapRange(vaddr, window, npages, rights,
                                 /*uncacheable=*/true);
    process.setAllocCursor(vaddr + (npages + 1) * pageSize);
    // The window's bus address is what a transfer to it names.
    grants_.push_back({Grant::Kind::Frames, process.pid(), 0, window,
                       npages * pageSize, rights});
    return vaddr;
}

Translation
Kernel::translateFor(Process &process, Addr vaddr, Rights need) const
{
    return process.pageTable().translate(vaddr, need);
}

// ---------------------------------------------------------------------
// User-level DMA setup services.
// ---------------------------------------------------------------------

void
Kernel::createShadowMappings(Process &process, Addr vaddr, Addr bytes)
{
    ULDMA_ASSERT(engine_ != nullptr, "no DMA engine attached");
    const unsigned ctx = process.dmaGrant().shadowContext.value_or(0);
    const Addr first = pageAlignDown(vaddr);
    const Addr last = pageAlignDown(vaddr + bytes - 1);
    for (Addr page = first; page <= last; page += pageSize) {
        const auto pte = process.pageTable().lookup(page);
        ULDMA_ASSERT(pte.has_value(),
                     "createShadowMappings: page not mapped");
        const Addr paddr = pte->pfn << pageShift;
        const Addr shadow_paddr = engine_->params().shadowAddr(paddr, ctx);
        const Addr shadow_vaddr = shadowVirtualBase + paddr;
        // Shadow pages mirror the rights of the real mapping, so the
        // protection argument of §2.3 holds: you can only name a
        // physical page you could already touch, in the same way.
        process.pageTable().mapPage(shadow_vaddr, shadow_paddr,
                                    pte->rights, /*uncacheable=*/true);
    }
}

Addr
Kernel::shadowVaddrFor(Process &process, Addr vaddr) const
{
    const Translation xlate = translateFor(process, vaddr, Rights::None);
    ULDMA_ASSERT(xlate.ok(), "shadowVaddrFor: address not mapped");
    return shadowVirtualBase + xlate.paddr;
}

bool
Kernel::grantKeyContext(Process &process)
{
    ULDMA_ASSERT(engine_ != nullptr, "no DMA engine attached");
    if (process.dmaGrant().keyContext)
        return true;   // one register context per process
    if (keyContextOwner_.empty())
        keyContextOwner_.assign(engine_->params().numContexts, invalidPid);

    for (unsigned ctx = 0; ctx < keyContextOwner_.size(); ++ctx) {
        if (keyContextOwner_[ctx] != invalidPid)
            continue;
        keyContextOwner_[ctx] = process.pid();

        // Draw a fresh ~56-bit key and program it into the engine
        // through the privileged register block.
        const std::uint64_t key = keyRng_.next64() & mask(keyfield::keyBits);
        kregWrite(kregs::keyCtxSelect, ctx);
        kregWrite(kregs::keyValue, key);

        process.dmaGrant().keyContext = ctx;
        process.dmaGrant().key = key;
        mapContextPage(process);

        // The same grant covers the atomic unit (keyed §3.5
        // adaptation): program the key and map its context page too.
        if (atomicUnit_ != nullptr &&
            ctx < atomicUnit_->params().numContexts) {
            akregWrite(akregs::keyCtxSelect, ctx);
            akregWrite(akregs::keyValue, key);

            const Addr avaddr = contextVirtualBase + 0x100000;
            process.pageTable().mapPage(
                avaddr, atomicUnit_->contextPageAddr(ctx),
                Rights::ReadWrite, /*uncacheable=*/true);
            process.dmaGrant().atomicContextPageVaddr = avaddr;
        }
        grants_.push_back({Grant::Kind::Context, process.pid(), ctx});
        return true;
    }
    return false;   // all contexts taken: fall back to kernel DMA
}

void
Kernel::revokeKeyContext(Process &process)
{
    auto &grant = process.dmaGrant();
    if (!grant.keyContext)
        return;
    const unsigned ctx = *grant.keyContext;
    keyContextOwner_[ctx] = invalidPid;
    kregWrite(kregs::ctxReset, ctx);
    if (atomicUnit_ != nullptr &&
        ctx < atomicUnit_->params().numContexts) {
        akregWrite(akregs::ctxReset, ctx);
    }
    grant.keyContext.reset();
    grant.key = 0;
    grant.atomicContextPageVaddr = 0;
}

bool
Kernel::grantShadowContext(Process &process)
{
    ULDMA_ASSERT(engine_ != nullptr, "no DMA engine attached");
    if (process.dmaGrant().shadowContext)
        return true;   // one CONTEXT_ID per process
    const unsigned slots = 1u << engine_->params().ctxIdBits;
    if (shadowContextOwner_.empty())
        shadowContextOwner_.assign(slots, invalidPid);

    for (unsigned ctx = 0; ctx < slots; ++ctx) {
        if (shadowContextOwner_[ctx] != invalidPid)
            continue;
        shadowContextOwner_[ctx] = process.pid();
        process.dmaGrant().shadowContext = ctx;
        grants_.push_back({Grant::Kind::Context, process.pid(), ctx});
        return true;
    }
    return false;   // §3.2: "the rest will have to go through the kernel"
}

void
Kernel::setupMapOut(Process &process, Addr vaddr, Addr target_paddr)
{
    ULDMA_ASSERT(engine_ != nullptr, "no DMA engine attached");
    const Translation xlate = translateFor(process, vaddr, Rights::Read);
    ULDMA_ASSERT(xlate.ok(), "setupMapOut: source page not mapped");
    ULDMA_ASSERT(pageOffset(target_paddr) == 0,
                 "mapped-out target must be page aligned");

    kregWrite(kregs::mapOutPfn, pageNumber(xlate.paddr));
    kregWrite(kregs::mapOutTarget, target_paddr);
}

void
Kernel::createAtomicShadowMappings(Process &process, Addr vaddr,
                                   Addr bytes, AtomicOp op)
{
    ULDMA_ASSERT(atomicUnit_ != nullptr, "no atomic unit attached");
    const unsigned ctx = process.dmaGrant().shadowContext.value_or(0);
    const Addr first = pageAlignDown(vaddr);
    const Addr last = pageAlignDown(vaddr + bytes - 1);
    for (Addr page = first; page <= last; page += pageSize) {
        const auto pte = process.pageTable().lookup(page);
        ULDMA_ASSERT(pte.has_value(),
                     "createAtomicShadowMappings: page not mapped");
        const Addr paddr = pte->pfn << pageShift;
        const Addr shadow_paddr =
            atomicUnit_->params().shadowAddr(op, paddr, ctx);
        const Addr shadow_vaddr = atomicShadowVirtualFor(op, paddr);
        // Atomics both read and modify the target, so require RW.
        if (!allows(pte->rights, Rights::ReadWrite))
            continue;
        process.pageTable().mapPage(shadow_vaddr, shadow_paddr,
                                    Rights::ReadWrite,
                                    /*uncacheable=*/true);
    }
}

Addr
Kernel::atomicShadowVaddrFor(Process &process, Addr vaddr,
                             AtomicOp op) const
{
    const Translation xlate = translateFor(process, vaddr, Rights::None);
    ULDMA_ASSERT(xlate.ok(), "atomicShadowVaddrFor: address not mapped");
    return atomicShadowVirtualFor(op, xlate.paddr);
}

Addr
Kernel::mapContextPage(Process &process)
{
    ULDMA_ASSERT(engine_ != nullptr, "no DMA engine attached");
    auto &grant = process.dmaGrant();
    ULDMA_ASSERT(grant.keyContext.has_value(),
                 "mapContextPage: no register context granted");
    const Addr paddr = engine_->contextPageAddr(*grant.keyContext);
    const Addr vaddr = contextVirtualBase;
    process.pageTable().mapPage(vaddr, paddr, Rights::ReadWrite,
                                /*uncacheable=*/true);
    grant.contextPageVaddr = vaddr;
    return vaddr;
}

bool
Kernel::setupRing(Process &process, unsigned slots)
{
    ULDMA_ASSERT(engine_ != nullptr, "no DMA engine attached");
    ULDMA_ASSERT(slots > 0, "setupRing: need at least one slot");

    auto &grant = process.dmaGrant();
    // The ring doorbell rides on the key-gated register-context page,
    // so a ring grant implies a key grant.
    if (!grantKeyContext(process))
        return false;
    const unsigned ctx = *grant.keyContext;

    // User-mapped descriptor ring and completion records.  allocate()
    // hands out physically contiguous frames, which is what the
    // engine's slot arithmetic assumes.
    const Addr desc_vaddr = allocate(
        process, Addr(slots) * ringdesc::descBytes, Rights::ReadWrite);
    const Addr cpl_vaddr = allocate(
        process, Addr(slots) * ringdesc::cplBytes, Rights::ReadWrite);
    const Translation desc_x =
        translateFor(process, desc_vaddr, Rights::ReadWrite);
    const Translation cpl_x =
        translateFor(process, cpl_vaddr, Rights::ReadWrite);
    ULDMA_ASSERT(desc_x.ok() && cpl_x.ok(),
                 "setupRing: ring regions not mapped");

    // Program the privileged ring registers: select, bases, then the
    // config word last (the commit point on the engine side).
    kregWrite(kregs::ringCtxSelect, ctx);
    kregWrite(kregs::ringBase, desc_x.paddr);
    kregWrite(kregs::ringCplBase, cpl_x.paddr);
    kregWrite(kregs::ringConfig, slots);

    grant.ringConfigured = true;
    grant.ringDescVaddr = desc_vaddr;
    grant.ringCplVaddr = cpl_vaddr;
    grant.ringSlots = slots;
    grant.ringEnqueueSeq = 0;
    grant.ringIommu = engine_->iommu() != nullptr;

    // The ring's own pages are legal DMA endpoints (a chained
    // descriptor may stage data through them in tests).
    authorizeRingDma(process, desc_vaddr,
                     Addr(slots) * ringdesc::descBytes);
    authorizeRingDma(process, cpl_vaddr, Addr(slots) * ringdesc::cplBytes);
    if (grant.ringIommu) {
        // Same courtesy through the IOMMU: the ring's own pages are
        // translatable endpoints for chained descriptors.
        const bool pin = engine_->iommu()->params().pinPolicy ==
                         PinPolicy::OnMap;
        iommuMapRange(process, desc_vaddr,
                      Addr(slots) * ringdesc::descBytes, pin);
        iommuMapRange(process, cpl_vaddr,
                      Addr(slots) * ringdesc::cplBytes, pin);
    }
    return true;
}

void
Kernel::authorizeRingDma(Process &process, Addr vaddr, Addr bytes)
{
    ULDMA_ASSERT(engine_ != nullptr, "no DMA engine attached");
    auto &grant = process.dmaGrant();
    ULDMA_ASSERT(grant.keyContext.has_value(),
                 "authorizeRingDma: no register context granted");
    ULDMA_ASSERT(bytes > 0, "authorizeRingDma: empty range");
    const unsigned ctx = *grant.keyContext;

    // One frame span per physically contiguous run (the common case is
    // a single span, because allocate() is contiguous).
    const bool mapped = forEachFrameRun(
        process, vaddr, bytes, [&](Addr base, Addr limit, Rights) {
            kregWrite(kregs::ringCtxSelect, ctx);
            kregWrite(kregs::ringFrameBase, base);
            kregWrite(kregs::ringFrameLimit, limit);
            grants_.push_back({Grant::Kind::RingFrames, process.pid(), ctx,
                               base, limit - base, Rights::ReadWrite});
            return true;
        });
    ULDMA_ASSERT(mapped, "authorizeRingDma: page not mapped");
}

// ---------------------------------------------------------------------
// IOMMU services (docs/IOMMU.md).
// ---------------------------------------------------------------------

void
Kernel::iommuSelect(Process &process, Addr bytes, const char *caller)
{
    ULDMA_ASSERT(engine_ != nullptr, "no DMA engine attached");
    ULDMA_ASSERT(engine_->iommu() != nullptr,
                 caller, ": engine has no IOMMU");
    const auto &grant = process.dmaGrant();
    ULDMA_ASSERT(grant.keyContext.has_value(),
                 caller, ": no register context granted");
    ULDMA_ASSERT(bytes > 0, caller, ": empty range");
    kregWrite(kregs::iommuCtxSelect, *grant.keyContext);
}

bool
Kernel::iommuMapRange(Process &process, Addr vaddr, Addr bytes, bool pin)
{
    iommuSelect(process, bytes, "iommuMapRange");

    // IOVA space is the process's own virtual address space: the same
    // pointer a process passes to the engine in a descriptor is the
    // one the kernel maps here, so user code needs no address
    // arithmetic at all.
    const unsigned ctx = *process.dmaGrant().keyContext;
    bool ok = true;
    const Addr last = pageAlignDown(vaddr + bytes - 1);
    for (Addr page = pageAlignDown(vaddr); page <= last; page += pageSize) {
        const auto pte = process.pageTable().lookup(page);
        if (!pte.has_value()) {
            ok = false;
            continue;
        }
        const Addr paddr = pte->pfn << pageShift;
        std::uint64_t entry = paddr;
        if (allows(pte->rights, Rights::Read))
            entry |= iommumap::read;
        if (allows(pte->rights, Rights::Write))
            entry |= iommumap::write;
        if (pin)
            entry |= iommumap::pin;
        kregWrite(kregs::iommuIova, page);
        kregWrite(kregs::iommuMapEntry, entry);
        // The page is mapped even when its pin fails.
        grants_.push_back({Grant::Kind::IommuPage, process.pid(), ctx, paddr,
                           pageSize, pte->rights});
        // Read the status back: a failed map-time pin (budget
        // exhaustion) must reach the caller.
        if (kregRead(kregs::iommuStatus) != dmastatus::ok)
            ok = false;
        ++iommuMaps_;
    }
    return ok;
}

void
Kernel::iommuUnmapRange(Process &process, Addr vaddr, Addr bytes)
{
    iommuSelect(process, bytes, "iommuUnmapRange");
    const Addr last = pageAlignDown(vaddr + bytes - 1);
    for (Addr page = pageAlignDown(vaddr); page <= last; page += pageSize)
        kregWrite(kregs::iommuUnmap, page);
}

bool
Kernel::iommuPinRange(Process &process, Addr vaddr, Addr bytes)
{
    iommuSelect(process, bytes, "iommuPinRange");
    bool ok = true;
    const Addr last = pageAlignDown(vaddr + bytes - 1);
    for (Addr page = pageAlignDown(vaddr); page <= last; page += pageSize) {
        kregWrite(kregs::iommuPin, page);
        if (kregRead(kregs::iommuStatus) != dmastatus::ok)
            ok = false;
    }
    return ok;
}

// ---------------------------------------------------------------------
// Capability services (docs/CAPABILITIES.md).
// ---------------------------------------------------------------------

bool
Kernel::capAddSpan(Addr base, Addr limit)
{
    kregWrite(kregs::capSpanBase, base);
    kregWrite(kregs::capSpanLimit, limit);
    return kregRead(kregs::capStatus) == dmastatus::ok;
}

int
Kernel::capGrant(Process &process, Addr vaddr, Addr bytes,
                 unsigned rate_class)
{
    ULDMA_ASSERT(engine_ != nullptr, "no DMA engine attached");
    if (engine_->cap() == nullptr || bytes == 0)
        return -1;
    const CapParams &cp = engine_->params().cap;
    if (rate_class >= cp.rateClasses)
        return -1;
    if (capSlotOwner_.empty())
        capSlotOwner_.assign(cp.numSlots, invalidPid);

    int slot = -1;
    for (unsigned s = 0; s < capSlotOwner_.size(); ++s) {
        if (capSlotOwner_[s] == invalidPid) {
            slot = static_cast<int>(s);
            break;
        }
    }
    if (slot < 0)
        return -1;   // every slot taken: fall back to kernel DMA

    kregWrite(kregs::capSlotSelect, static_cast<std::uint64_t>(slot));

    // Program one frame span per physically contiguous run, and take
    // the rights every page allows: the slot gets the intersection.
    Rights allowed = Rights::ReadWrite;
    const bool spans_ok = forEachFrameRun(
        process, vaddr, bytes, [&](Addr base, Addr limit, Rights r) {
            allowed = allowed & r;
            return capAddSpan(base, limit);   // false past maxSpansPerSlot
        });
    std::uint64_t rights = 0;
    if (allows(allowed, Rights::Read))
        rights |= caprights::read;
    if (allows(allowed, Rights::Write))
        rights |= caprights::write;
    if (!spans_ok || rights == 0) {
        // Roll back the partial programming so the slot stays free.
        kregWrite(kregs::capOp, capop::invalidate);
        return -1;
    }

    kregWrite(kregs::capConfig, capconfig::pack(rights, rate_class));
    const std::uint64_t secret =
        keyRng_.next64() & mask(capfield::secretBits);
    kregWrite(kregs::capSecret, secret);
    if (kregRead(kregs::capStatus) != dmastatus::ok) {
        kregWrite(kregs::capOp, capop::invalidate);
        return -1;
    }

    capSlotOwner_[static_cast<unsigned>(slot)] = process.pid();
    // The grant held: the ledger takes the slot, then the same runs.
    grants_.push_back({Grant::Kind::CapSlot, process.pid(),
                       static_cast<unsigned>(slot), 0, 0, allowed});
    forEachFrameRun(
        process, vaddr, bytes, [&](Addr base, Addr limit, Rights) {
            grants_.push_back({Grant::Kind::CapSpan, process.pid(),
                               static_cast<unsigned>(slot), base,
                               limit - base});
            return true;
        });
    const std::uint64_t word = capfield::pack(
        static_cast<unsigned>(slot),
        engine_->cap()->generation(static_cast<unsigned>(slot)), secret);

    // Map the slot's presentation page (uncacheable device memory).
    const Addr pvaddr = capVirtualBase + Addr(slot) * pageSize;
    process.pageTable().mapPage(
        pvaddr, engine_->capPageAddr(static_cast<unsigned>(slot)),
        Rights::ReadWrite, /*uncacheable=*/true);

    auto &grant = process.dmaGrant();
    grant.capSlots.push_back(static_cast<unsigned>(slot));
    grant.capPageVaddrs.push_back(pvaddr);
    grant.capWords.push_back(word);
    grant.capRateClasses.push_back(rate_class);
    ++capGrants_;
    ULDMA_TRACE("Kernel", cpu_.clockEdge(), name_, ": cap grant slot ",
                slot, " to pid ", process.pid(), " rate ", rate_class);
    return slot;
}

bool
Kernel::capExtend(Process &owner, unsigned slot, Addr vaddr, Addr bytes)
{
    ULDMA_ASSERT(engine_ != nullptr, "no DMA engine attached");
    if (engine_->cap() == nullptr || bytes == 0 ||
        slot >= capSlotOwner_.size() ||
        capSlotOwner_[slot] != owner.pid()) {
        return false;
    }
    kregWrite(kregs::capSlotSelect, slot);
    return forEachFrameRun(
        owner, vaddr, bytes, [&](Addr base, Addr limit, Rights) {
            if (!capAddSpan(base, limit))
                return false;
            grants_.push_back({Grant::Kind::CapSpan, owner.pid(), slot, base,
                               limit - base});
            return true;
        });
}

bool
Kernel::capDelegate(Process &owner, unsigned slot, Process &target)
{
    ULDMA_ASSERT(engine_ != nullptr, "no DMA engine attached");
    if (engine_->cap() == nullptr)
        return false;
    const auto &og = owner.dmaGrant();
    std::size_t idx = og.capSlots.size();
    for (std::size_t i = 0; i < og.capSlots.size(); ++i) {
        if (og.capSlots[i] == slot) {
            idx = i;
            break;
        }
    }
    if (idx == og.capSlots.size() ||
        slot >= capSlotOwner_.size() ||
        capSlotOwner_[slot] != owner.pid()) {
        return false;   // only the owner may delegate
    }

    const Addr pvaddr = capVirtualBase + Addr(slot) * pageSize;
    target.pageTable().mapPage(pvaddr, engine_->capPageAddr(slot),
                               Rights::ReadWrite, /*uncacheable=*/true);
    auto &tg = target.dmaGrant();
    tg.capSlots.push_back(slot);
    tg.capPageVaddrs.push_back(pvaddr);
    tg.capWords.push_back(og.capWords[idx]);
    tg.capRateClasses.push_back(og.capRateClasses[idx]);
    grants_.push_back({Grant::Kind::CapDelegate, target.pid(), slot});
    ++capDelegations_;
    ULDMA_TRACE("Kernel", cpu_.clockEdge(), name_, ": cap delegate slot ",
                slot, " pid ", owner.pid(), " -> ", target.pid());
    return true;
}

bool
Kernel::capRevoke(Process &owner, unsigned slot)
{
    ULDMA_ASSERT(engine_ != nullptr, "no DMA engine attached");
    if (engine_->cap() == nullptr || slot >= capSlotOwner_.size() ||
        capSlotOwner_[slot] != owner.pid()) {
        return false;
    }

    kregWrite(kregs::capSlotSelect, slot);
    // The generation bump: the engine also fails closed anything the
    // slot has queued or in flight.
    kregWrite(kregs::capOp, capop::revoke);

    // Re-arm the owner with a fresh secret; delegates keep their stale
    // capwords and fail closed on the next presentation.
    const std::uint64_t secret =
        keyRng_.next64() & mask(capfield::secretBits);
    kregWrite(kregs::capSecret, secret);

    auto &grant = owner.dmaGrant();
    for (std::size_t i = 0; i < grant.capSlots.size(); ++i) {
        if (grant.capSlots[i] == slot) {
            grant.capWords[i] = capfield::pack(
                slot, engine_->cap()->generation(slot), secret);
            break;
        }
    }
    grants_.push_back({Grant::Kind::CapRevoke, owner.pid(), slot});
    ++capRevocations_;
    ULDMA_TRACE("Kernel", cpu_.clockEdge(), name_, ": cap revoke slot ",
                slot, " by pid ", owner.pid());
    return true;
}

// ---------------------------------------------------------------------
// OsCallbacks: traps and scheduling.
// ---------------------------------------------------------------------

SyscallResult
Kernel::syscall(ExecContext &ctx, std::uint64_t number)
{
    ULDMA_PROF_SCOPE("kernel.syscall");
    ++syscalls_;
    ULDMA_TRACE_EVENT(name_, cpu_.clockEdge(), "syscall",
                      "number ", number, " pid ", ctx.pid());
    SyscallResult r;
    switch (number) {
      case sys::noop:
        break;
      case sys::dma:
        r = sysDma(ctx);
        break;
      case sys::dmaPoll:
        r.retval = kregRead(kregs::status, &r.cost);
        break;
      case sys::atomic:
        r = sysAtomic(ctx);
        break;
      case sys::yield:
        r.cost = yielded();
        break;
      case sys::dmaWait:
        r = sysDmaWait(ctx);
        break;
      case sys::iommuMap:
      case sys::iommuUnmap:
      case sys::iommuPin:
        r = sysIommu(ctx, number);
        break;
      case sys::capGrant:
        r = sysCapGrant(ctx);
        break;
      case sys::capDelegate:
        r = sysCapDelegate(ctx);
        break;
      case sys::capRevoke:
        r = sysCapRevoke(ctx);
        break;
      default:
        ULDMA_WARN(name_, ": unknown syscall ", number);
        r.retval = ~std::uint64_t(0);
    }
    // Every trap pays entry and exit once, whatever the handler did.
    r.cost += cyclesToTicks(params_.syscallOverheadCycles);
    return r;
}

SyscallResult
Kernel::sysDma(ExecContext &ctx)
{
    // Figure 1: translate both addresses, check the whole range, then
    // program the engine's registers — all with interrupts off.
    SyscallResult r;
    ULDMA_ASSERT(engine_ != nullptr, "no DMA engine attached");

    Process &proc = process(ctx.pid());
    const Addr vsrc = ctx.reg(reg::a0);
    const Addr vdst = ctx.reg(reg::a1);
    const Addr size = ctx.reg(reg::a2);

    // Span bookkeeping: the kernel method's initiation begins at trap
    // entry, so open here and hand the span to the engine just before
    // programming its registers (kernelStart() adopts it).
    span::SpanId sid = span::invalidSpan;
    if (span::captureOn()) {
        sid = span::tracker().open(engine_->deviceName(), "kernel",
                                   cpu_.now());
    }
    const auto spanReject = [&]() {
        if (span::captureOn())
            span::tracker().reject(sid, cpu_.now());
    };

    r.cost += cyclesToTicks(2 * params_.translateCycles);
    r.retval = ~std::uint64_t(0);

    if (size == 0) {
        spanReject();
        return r;
    }

    // check_size(): verify rights and physical contiguity over the
    // whole transfer range, page by page.
    const Addr npages_src = pageNumber(vsrc + size - 1) - pageNumber(vsrc);
    const Addr npages_dst = pageNumber(vdst + size - 1) - pageNumber(vdst);
    r.cost += cyclesToTicks(params_.perPageCheckCycles *
                            (npages_src + npages_dst + 2));

    const Translation src0 = translateFor(proc, vsrc, Rights::Read);
    const Translation dst0 = translateFor(proc, vdst, Rights::Write);
    if (!src0.ok() || !dst0.ok()) {
        spanReject();
        return r;
    }

    for (Addr off = pageSize - pageOffset(vsrc); off < size;
         off += pageSize) {
        const Translation t = translateFor(proc, vsrc + off, Rights::Read);
        if (!t.ok() || t.paddr != src0.paddr + off) {
            spanReject();
            return r;
        }
    }
    for (Addr off = pageSize - pageOffset(vdst); off < size;
         off += pageSize) {
        const Translation t = translateFor(proc, vdst + off, Rights::Write);
        if (!t.ok() || t.paddr != dst0.paddr + off) {
            spanReject();
            return r;
        }
    }

    // Program the engine: three stores and a status load, uncached.
    if (span::captureOn())
        span::tracker().stageKernel(sid);
    r.cost += kregWrite(kregs::source, src0.paddr);
    r.cost += kregWrite(kregs::destination, dst0.paddr);
    r.cost += kregWrite(kregs::size, size);
    const std::uint64_t status = kregRead(kregs::status, &r.cost);

    r.retval = status == dmastatus::failure ? ~std::uint64_t(0) : 0;
    return r;
}

SyscallResult
Kernel::sysAtomic(ExecContext &ctx)
{
    SyscallResult r;
    ULDMA_ASSERT(atomicUnit_ != nullptr, "no atomic unit attached");

    Process &proc = process(ctx.pid());
    const Addr vaddr = ctx.reg(reg::a0);
    const std::uint64_t opcode = ctx.reg(reg::a1);
    const std::uint64_t op1 = ctx.reg(reg::a2);
    const std::uint64_t op2 = ctx.reg(reg::a3);

    r.cost += cyclesToTicks(params_.translateCycles);
    const Translation xlate = translateFor(proc, vaddr, Rights::ReadWrite);
    if (!xlate.ok()) {
        r.retval = ~std::uint64_t(0);
        return r;
    }

    r.cost += akregWrite(akregs::address, xlate.paddr);
    r.cost += akregWrite(akregs::operand1, op1);
    r.cost += akregWrite(akregs::operand2, op2);
    r.cost += akregWrite(akregs::opcodeExec, opcode);
    r.retval = akregRead(akregs::result, &r.cost);
    return r;
}

SyscallResult
Kernel::sysDmaWait(ExecContext &ctx)
{
    SyscallResult r;
    ULDMA_ASSERT(engine_ != nullptr, "no DMA engine attached");

    if (!engine_->kernelChannelBusy())
        return r;   // nothing in flight: return immediately

    // Sleep: the process leaves the run queue until the completion
    // interrupt; meanwhile another process (or the idle loop) runs.
    Process &proc = process(ctx.pid());
    proc.context().setState(RunState::Blocked);
    dmaWaiters_.push_back(&proc);
    ++dmaWaits_;
    r.cost += doContextSwitch();
    return r;
}

SyscallResult
Kernel::sysIommu(ExecContext &ctx, std::uint64_t number)
{
    SyscallResult r;
    r.retval = ~std::uint64_t(0);
    if (engine_ == nullptr || engine_->iommu() == nullptr)
        return r;
    Process &proc = process(ctx.pid());
    const Addr vaddr = ctx.reg(reg::a0);
    const Addr bytes = ctx.reg(reg::a1);
    if (!proc.dmaGrant().keyContext || !userRange(proc, vaddr, bytes))
        return r;
    bool ok = true;
    if (number == sys::iommuMap) {
        // One software translation per page, like check_size().
        r.cost += cyclesToTicks(params_.translateCycles *
                                pagesSpanned(vaddr, bytes));
        ok = iommuMapRange(proc, vaddr, bytes,
                           engine_->iommu()->params().pinPolicy ==
                               PinPolicy::OnMap);
    } else if (number == sys::iommuUnmap) {
        iommuUnmapRange(proc, vaddr, bytes);
    } else {
        ok = iommuPinRange(proc, vaddr, bytes);
    }
    if (ok)
        r.retval = 0;
    return r;
}

SyscallResult
Kernel::sysCapGrant(ExecContext &ctx)
{
    SyscallResult r;
    r.retval = ~std::uint64_t(0);
    if (engine_ == nullptr || engine_->cap() == nullptr)
        return r;
    Process &proc = process(ctx.pid());
    const Addr vaddr = ctx.reg(reg::a0);
    const Addr bytes = ctx.reg(reg::a1);
    const std::uint64_t rate = ctx.reg(reg::a2);
    if (rate >= engine_->params().cap.rateClasses ||
        !userRange(proc, vaddr, bytes))
        return r;
    // One software translation per page, like check_size().
    r.cost += cyclesToTicks(params_.translateCycles *
                            pagesSpanned(vaddr, bytes));
    const int slot =
        capGrant(proc, vaddr, bytes, static_cast<unsigned>(rate));
    if (slot >= 0)
        r.retval = static_cast<std::uint64_t>(slot);
    return r;
}

SyscallResult
Kernel::sysCapDelegate(ExecContext &ctx)
{
    SyscallResult r;
    r.retval = ~std::uint64_t(0);
    if (engine_ == nullptr || engine_->cap() == nullptr)
        return r;
    const std::uint64_t slot = ctx.reg(reg::a0);
    const std::uint64_t target_pid = ctx.reg(reg::a1);
    if (slot >= engine_->params().cap.numSlots)
        return r;
    Process *target = nullptr;
    for (auto &p : processes_) {
        if (static_cast<std::uint64_t>(p->pid()) == target_pid) {
            target = p.get();
            break;
        }
    }
    if (target == nullptr || target->finished())
        return r;
    if (capDelegate(process(ctx.pid()), static_cast<unsigned>(slot),
                    *target))
        r.retval = 0;
    return r;
}

SyscallResult
Kernel::sysCapRevoke(ExecContext &ctx)
{
    SyscallResult r;
    r.retval = ~std::uint64_t(0);
    if (engine_ == nullptr || engine_->cap() == nullptr)
        return r;
    const std::uint64_t slot = ctx.reg(reg::a0);
    if (slot < engine_->params().cap.numSlots &&
        capRevoke(process(ctx.pid()), static_cast<unsigned>(slot)))
        r.retval = 0;
    return r;
}

std::uint64_t
Kernel::onIommuFault(unsigned ctx, Addr iova, bool is_write)
{
    (void)is_write;
    if (engine_ == nullptr || engine_->iommu() == nullptr)
        return ~std::uint64_t(0);
    // Find the process owning the faulting register context.
    Process *owner = nullptr;
    for (auto &p : processes_) {
        const auto &grant = p->dmaGrant();
        if (grant.keyContext && *grant.keyContext == ctx) {
            owner = p.get();
            break;
        }
    }
    if (owner == nullptr || owner->finished())
        return ~std::uint64_t(0);
    // Repairable only if the page really is mapped in the process —
    // an IOVA outside the address space stays a hard fault.
    const Addr page = pageAlignDown(iova);
    if (!owner->pageTable().lookup(page).has_value())
        return ~std::uint64_t(0);
    // Map and pin the one faulting page; the engine resumes the
    // parked descriptor after the fault-handling cost.
    if (!iommuMapRange(*owner, page, pageSize, /*pin=*/true))
        return ~std::uint64_t(0);
    ++iommuFixups_;
    ULDMA_TRACE("Kernel", cpu_.clockEdge(), name_, ": iommu fix-up ctx ",
                ctx, " iova 0x", std::hex, iova);
    return cyclesToTicks(params_.faultHandlingCycles +
                         params_.translateCycles);
}

void
Kernel::onKernelDmaInterrupt()
{
    ++dmaInterrupts_;
    if (dmaWaiters_.empty())
        return;
    for (Process *waiter : dmaWaiters_) {
        if (waiter->state() == RunState::Blocked) {
            waiter->context().setState(RunState::Ready);
            scheduler_.enqueue(*waiter);
        }
    }
    dmaWaiters_.clear();

    // If the CPU idled waiting for this interrupt, dispatch now.  (A
    // busy CPU keeps running; the woken process competes at the next
    // scheduling point — we do not model preemptive interrupts.)
    if (cpu_.idle()) {
        doContextSwitch();
        cpu_.start();
    }
}

Tick
Kernel::handleFault(ExecContext &ctx, Fault fault, Addr vaddr)
{
    ++faults_;
    ULDMA_TRACE("Kernel", cpu_.clockEdge(), name_, ": pid ", ctx.pid(),
                " faulted (", static_cast<int>(fault), ") at vaddr 0x",
                std::hex, vaddr);
    (void)fault;
    (void)vaddr;
    // The process was already marked Faulted by the CPU; kill it and
    // move on.
    return cyclesToTicks(params_.faultHandlingCycles) + doContextSwitch();
}

Tick
Kernel::quantumExpired()
{
    if (current_ != nullptr &&
        current_->state() == RunState::Running) {
        current_->context().setState(RunState::Ready);
    }
    return doContextSwitch();
}

Tick
Kernel::yielded()
{
    // A voluntary yield reschedules exactly like an expired quantum.
    return quantumExpired();
}

Tick
Kernel::exited()
{
    Tick cost = 0;
    if (current_ != nullptr) {
        current_->context().setState(RunState::Exited);
        cost += reapGrants(*current_);
    }
    return cost + doContextSwitch();
}

Tick
Kernel::reapGrants(Process &process)
{
    // Exit-time cleanup: return the register context / CONTEXT_ID to
    // the free pool so later processes can use user-level DMA.
    Tick cost = 0;
    if (process.dmaGrant().ringConfigured) {
        // The engine side is torn down by the ctxReset that
        // revokeKeyContext writes below; just drop the grant view.
        auto &grant = process.dmaGrant();
        grant.ringConfigured = false;
        grant.ringDescVaddr = 0;
        grant.ringCplVaddr = 0;
        grant.ringSlots = 0;
        grant.ringEnqueueSeq = 0;
        grant.ringIommu = false;
    }
    if (process.dmaGrant().keyContext) {
        revokeKeyContext(process);
        // Two or three privileged register writes; charge a nominal
        // driver cost.
        cost += cyclesToTicks(60);
    }
    if (process.dmaGrant().shadowContext) {
        const unsigned ctx = *process.dmaGrant().shadowContext;
        if (ctx < shadowContextOwner_.size() &&
            shadowContextOwner_[ctx] == process.pid()) {
            shadowContextOwner_[ctx] = invalidPid;
        }
        process.dmaGrant().shadowContext.reset();
    }
    if (!process.dmaGrant().capSlots.empty()) {
        // Tear down every slot this process *owns* (delegated views of
        // other tenants' slots just drop the grant entry — the owner
        // keeps its capability).
        auto &grant = process.dmaGrant();
        for (unsigned slot : grant.capSlots) {
            if (slot >= capSlotOwner_.size() ||
                capSlotOwner_[slot] != process.pid()) {
                continue;
            }
            capSlotOwner_[slot] = invalidPid;
            if (engine_ != nullptr && engine_->cap() != nullptr) {
                kregWrite(kregs::capSlotSelect, slot);
                kregWrite(kregs::capOp, capop::invalidate);
                cost += cyclesToTicks(60);
            }
        }
        grant.capSlots.clear();
        grant.capPageVaddrs.clear();
        grant.capWords.clear();
        grant.capRateClasses.clear();
    }
    return cost;
}

Tick
Kernel::doContextSwitch()
{
    ULDMA_PROF_SCOPE("kernel.context_switch");
    ++switches_;
    ULDMA_TRACE_EVENT(name_, cpu_.clockEdge(), "context_switch", "n=",
                      switches_.value());
    Tick cost = cyclesToTicks(params_.contextSwitchCycles);

    // Hardware effects of leaving a process: pending writes drain,
    // the TLB is flushed (the Alpha's PALcode flushes; a
    // process-tagged TLB would not).
    cost += cpu_.mergeBuffer().flushForContextSwitch();
    cpu_.tlb().flush();

    Process *previous = current_;
    const SchedulingDecision decision = scheduler_.pickNext(previous);
    current_ = decision.next;

    // Kernel-modification hooks (the baselines' requirement).  These
    // run on *every* switch and their device writes are real cost —
    // the paper's argument against them.
    if (shrimp2Hook_ && engine_ != nullptr) {
        ++hookRuns_;
        cost += kregWrite(kregs::invalidate, 1);
    }
    if (flashHook_ && engine_ != nullptr) {
        ++hookRuns_;
        cost += kregWrite(kregs::osProcessTag,
                          current_ != nullptr
                              ? static_cast<std::uint64_t>(current_->pid())
                              : 0);
    }

    if (current_ != nullptr) {
        cpu_.setCurrentContext(&current_->context());
        cpu_.setInstructionQuantum(decision.instructionQuantum);
        cpu_.setTimeQuantum(decision.timeQuantum != 0
                                ? cpu_.clockEdge() + decision.timeQuantum
                                : maxTick);
    } else {
        cpu_.setCurrentContext(nullptr);
    }

    ULDMA_TRACE("Sched", cpu_.clockEdge(), name_, ": switch ",
                previous != nullptr ? previous->name() : "<none>", " -> ",
                current_ != nullptr ? current_->name() : "<idle>");

    if (switchObserver_)
        switchObserver_(cpu_.clockEdge(), previous, current_);
    return cost;
}

} // namespace uldma
