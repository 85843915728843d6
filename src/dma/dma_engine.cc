#include "dma/dma_engine.hh"

#include <algorithm>
#include <span>

#include "mem/physical_memory.hh"
#include "prof/profiler.hh"
#include "sim/event.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"
#include "util/fnv.hh"
#include "util/logging.hh"

namespace uldma {

const char *
toString(EngineMode mode)
{
    switch (mode) {
      case EngineMode::ShadowPair: return "shadow-pair";
      case EngineMode::KeyBased: return "key-based";
      case EngineMode::Repeated3: return "repeated-3";
      case EngineMode::Repeated4: return "repeated-4";
      case EngineMode::Repeated5: return "repeated-5";
      case EngineMode::MappedOut: return "mapped-out";
    }
    return "?";
}

DmaEngine::DmaEngine(EventQueue &eq, std::string name,
                     const ClockDomain &bus_clock,
                     const DmaEngineParams &params, TransferBackend &backend)
    : name_(std::move(name)), params_(params), backend_(backend),
      eq_(eq),
      xfer_(eq, name_ + ".xfer", bus_clock, backend),
      statsGroup_(name_),
      ringOccupancy_(0.0, 64.0, 16)
{
    ULDMA_ASSERT(params_.numContexts >= 1 &&
                     params_.numContexts <= maxContexts,
                 "numContexts must be in [1, 8]");
    ULDMA_ASSERT(params_.ctxIdBits <= maxCtxIdBits,
                 "the paper envisions at most 2 CONTEXT_ID bits");

    pairLatch_.resize(std::size_t(1) << params_.ctxIdBits);
    contexts_.resize(params_.numContexts);
    rings_.resize(params_.numContexts);

    if (params_.iommu.enabled) {
        iommu_ = std::make_unique<Iommu>(name_ + ".iommu", params_.iommu,
                                         params_.numContexts);
    }

    if (params_.cap.enabled) {
        cap_ = std::make_unique<CapTable>(name_ + ".cap", params_.cap);
        capArbiter_ = std::make_unique<CapArbiter>(
            name_ + ".cap_arbiter", params_.cap.rateClasses);
        capPres_.resize(params_.cap.numSlots);
    }

    statsGroup_.addScalar("shadow_stores", &shadowStores_,
                          "stores decoded in the shadow window");
    statsGroup_.addScalar("shadow_loads", &shadowLoads_,
                          "loads decoded in the shadow window");
    statsGroup_.addScalar("initiations", &started_,
                          "DMA transfers started");
    statsGroup_.addScalar("rejections", &rejected_,
                          "initiation attempts rejected");
    statsGroup_.addScalar("key_mismatches", &keyMismatch_,
                          "key-based stores with a wrong key");
    statsGroup_.addScalar("fsm_resets", &fsmResets_,
                          "repeated-passing sequence resets");
    statsGroup_.addScalar("cross_page_rejects", &crossPageRejects_,
                          "user transfers rejected for page crossing");
    statsGroup_.addScalar("kernel_starts", &kernelStarts_,
                          "kernel-channel DMA starts");
    statsGroup_.addScalar("ring_doorbells", &ringDoorbells_,
                          "accepted descriptor-ring doorbells");
    statsGroup_.addScalar("ring_descriptors", &ringDescriptors_,
                          "ring descriptors drained");
    statsGroup_.addScalar("ring_rejects", &ringRejects_,
                          "ring descriptors rejected");
    statsGroup_.addScalar("ring_fences", &ringFences_,
                          "ring fence descriptors retired");
    statsGroup_.addScalar("ring_interrupts", &ringInterrupts_,
                          "coalesced ring completion interrupts");
    statsGroup_.addHistogram("ring_occupancy", &ringOccupancy_,
                             "in-flight ring transfers after each drain");
    statsGroup_.addAverage("doorbell_to_retire_us", &doorbellToRetireUs_,
                           "doorbell to descriptor retirement (us)");
    // IOMMU-path scalars join the group only when the unit exists, so
    // the stats document of a non-IOMMU engine is byte-identical to
    // the pre-IOMMU model.
    if (iommu_) {
        statsGroup_.addScalar("iommu_segments", &iommuSegments_,
                              "per-page scatter-gather segments issued");
        statsGroup_.addScalar("iommu_faults", &iommuTransFaults_,
                              "descriptor translation faults seen");
        statsGroup_.addScalar("iommu_traps", &iommuTraps_,
                              "faults parked for kernel fix-up");
        statsGroup_.addScalar("iommu_resumes", &iommuResumes_,
                              "parked descriptors resumed mid-transfer");
        statsGroup_.addScalar("iommu_aborts", &iommuAborts_,
                              "descriptors aborted on a fault");
        statsGroup_.addScalar("iommu_bypasses", &iommuBypasses_,
                              "weak-model translation bypasses");
    }
    // Capability-path scalars likewise join only when the family is
    // enabled, keeping non-cap stats documents byte-identical.
    if (cap_) {
        statsGroup_.addScalar("cap_presentations", &capPresentations_,
                              "capability presentations committed");
        statsGroup_.addScalar("cap_rejects", &capRejects_,
                              "presentations refused by validation");
        statsGroup_.addScalar("cap_starts", &capStarts_,
                              "transfers started from presentations");
        statsGroup_.addScalar("cap_cancels", &capCancels_,
                              "queued/in-flight work failed closed by "
                              "revocation");
    }
}

std::vector<AddrRange>
DmaEngine::deviceRanges() const
{
    std::vector<AddrRange> ranges = {
        AddrRange(dmaKernelRegsBase, dmaKernelRegsBase + kregs::blockSize),
        AddrRange(dmaContextPagesBase,
                  dmaContextPagesBase + params_.numContexts * pageSize),
        AddrRange(dmaShadowBase, dmaShadowBase + params_.shadowWindowSize()),
    };
    if (cap_) {
        ranges.push_back(AddrRange(
            capPagesBase, capPagesBase + Addr(params_.cap.numSlots) * pageSize));
    }
    return ranges;
}

Addr
DmaEngine::contextPageAddr(unsigned ctx) const
{
    ULDMA_ASSERT(ctx < params_.numContexts, "context id out of range");
    return dmaContextPagesBase + Addr(ctx) * pageSize;
}

std::uint64_t
DmaEngine::contextKey(unsigned ctx) const
{
    ULDMA_ASSERT(ctx < params_.numContexts, "context id out of range");
    return contexts_[ctx].key;
}

bool
DmaEngine::pairLatchValid(unsigned ctx) const
{
    return ctx < pairLatch_.size() && pairLatch_[ctx].valid;
}

Tick
DmaEngine::access(Packet &pkt)
{
    ULDMA_PROF_SCOPE("dma.access");
    const Addr a = pkt.paddr;
    if (a >= dmaKernelRegsBase && a < dmaKernelRegsBase + kregs::blockSize) {
        accessKernelRegs(pkt, a - dmaKernelRegsBase);
    } else if (a >= dmaContextPagesBase &&
               a < dmaContextPagesBase + params_.numContexts * pageSize) {
        const Addr offset = a - dmaContextPagesBase;
        accessContextPage(pkt, static_cast<unsigned>(offset / pageSize),
                          offset % pageSize);
    } else if (cap_ && a >= capPagesBase &&
               a < capPagesBase + Addr(params_.cap.numSlots) * pageSize) {
        accessCapPage(pkt, a - capPagesBase);
    } else if (a >= dmaShadowBase &&
               a < dmaShadowBase + params_.shadowWindowSize()) {
        accessShadow(pkt);
    } else {
        ULDMA_PANIC(name_, ": access to unmapped engine address 0x",
                    std::hex, a);
    }
    // A doorbell drain charges its descriptor walk to the access that
    // triggered it (pendingExtraCycles_, see ringDrain).
    const Cycles cycles = niAccessCycles + pendingExtraCycles_;
    pendingExtraCycles_ = 0;
    return xfer_.clockDomain().cyclesToTicks(cycles);
}

bool
DmaEngine::sideEffectFreeRead(Addr paddr) const
{
    return cap_ && paddr >= capPagesBase &&
           paddr < capPagesBase + Addr(params_.cap.numSlots) * pageSize;
}

span::SpanId
DmaEngine::spanOpen(const char *protocol) const
{
    return span::captureOn()
               ? span::tracker().open(name_, protocol, xfer_.now())
               : span::invalidSpan;
}

void
DmaEngine::spanReject(span::SpanId sid, span::Outcome why) const
{
    if (span::captureOn())
        span::tracker().reject(sid, xfer_.now(), why);
}

void
DmaEngine::spanAbort(span::SpanId sid) const
{
    if (span::captureOn())
        span::tracker().abort(sid, xfer_.now());
}

// ---------------------------------------------------------------------
// Kernel register block.
// ---------------------------------------------------------------------

void
DmaEngine::accessKernelRegs(Packet &pkt, Addr offset)
{
    if (pkt.isWrite()) {
        switch (offset) {
          case kregs::source:
            kSrc_ = pkt.data;
            break;
          case kregs::destination:
            kDst_ = pkt.data;
            break;
          case kregs::size:
            kSize_ = pkt.data;
            kernelStart();
            break;
          case kregs::osProcessTag:
            // FLASH hook: the modified context-switch handler tells the
            // engine who runs now (paper §2.6).
            osTag_ = pkt.data;
            break;
          case kregs::invalidate:
            // SHRIMP-2 hook: abort half-initiated user DMAs on context
            // switch (paper §2.5).
            for (PairLatch &latch : pairLatch_) {
                if (latch.valid)
                    spanAbort(latch.span);
                latch.valid = false;
                latch.span = span::invalidSpan;
            }
            fsmReset();
            break;
          case kregs::keyCtxSelect:
            keyCtxSelect_ = pkt.data;
            break;
          case kregs::keyValue:
            if (keyCtxSelect_ < contexts_.size()) {
                contexts_[keyCtxSelect_].key = pkt.data;
                contexts_[keyCtxSelect_].keyValid = true;
            }
            break;
          case kregs::ctxReset:
            if (pkt.data < contexts_.size()) {
                RegisterContext &rc = contexts_[pkt.data];
                spanAbort(rc.span);
                rc.resetArgs();
                rc.transfer = invalidTransfer;
                rc.keyValid = false;
                rc.span = span::invalidSpan;
                // The ring dies with its context: a re-granted context
                // must not inherit the old owner's ring or rights.
                rings_[pkt.data].reset();
                // So do its device-visible mappings and pins.
                if (iommu_)
                    iommu_->resetContext(static_cast<unsigned>(pkt.data));
            }
            break;
          case kregs::startDelay:
            kStartDelay_ = pkt.data;
            break;
          case kregs::mapOutPfn:
            mapOutPfn_ = pkt.data;
            break;
          case kregs::mapOutTarget:
            mapOutTable_[mapOutPfn_] = pkt.data;
            break;
          case kregs::ringCtxSelect:
            ringCtxSelect_ = pkt.data;
            break;
          case kregs::ringBase:
            ringBaseStage_ = pkt.data;
            break;
          case kregs::ringCplBase:
            ringCplStage_ = pkt.data;
            break;
          case kregs::ringConfig:
            // Commits the staged bases for the selected context.  The
            // OS programs this from setup code; user processes can
            // never reach the kernel block, which is the whole
            // protection argument for ring configuration.
            if (ringCtxSelect_ < rings_.size()) {
                RingContext &ring = rings_[ringCtxSelect_];
                ring.reset();
                ring.base = ringBaseStage_;
                ring.cplBase = ringCplStage_;
                ring.slots = static_cast<unsigned>(
                    ringdesc::slotsOf(pkt.data));
                ring.configured = ring.slots > 0;
            }
            break;
          case kregs::ringFrameBase:
            if (ringCtxSelect_ < rings_.size())
                rings_[ringCtxSelect_].stagedFrameBase = pkt.data;
            break;
          case kregs::ringFrameLimit:
            // Commit one authorized [base, limit) frame span.
            if (ringCtxSelect_ < rings_.size()) {
                RingContext &ring = rings_[ringCtxSelect_];
                if (pkt.data > ring.stagedFrameBase) {
                    ring.frames.push_back(
                        {ring.stagedFrameBase, pkt.data});
                }
            }
            break;
          case kregs::iommuCtxSelect:
            iommuCtxSelect_ = pkt.data;
            break;
          case kregs::iommuIova:
            iommuIovaStage_ = pkt.data;
            break;
          case kregs::iommuMapEntry:
            // Commit iommuIova -> frame for the selected context.  The
            // kernel reads iommuStatus back to learn about pin-budget
            // exhaustion (docs/IOMMU.md).
            if (iommu_ && iommuCtxSelect_ < contexts_.size()) {
                Rights rights = Rights::None;
                if (pkt.data & iommumap::read)
                    rights = rights | Rights::Read;
                if (pkt.data & iommumap::write)
                    rights = rights | Rights::Write;
                const bool ok = iommu_->mapPage(
                    static_cast<unsigned>(iommuCtxSelect_),
                    iommuIovaStage_, pkt.data & ~iommumap::flagMask,
                    rights, pkt.data & iommumap::pin);
                iommuLastStatus_ = ok ? dmastatus::ok : dmastatus::failure;
            } else {
                iommuLastStatus_ = dmastatus::failure;
            }
            break;
          case kregs::iommuUnmap:
            if (iommu_ && iommuCtxSelect_ < contexts_.size()) {
                iommu_->unmapPage(static_cast<unsigned>(iommuCtxSelect_),
                                  pkt.data);
                iommuLastStatus_ = dmastatus::ok;
            } else {
                iommuLastStatus_ = dmastatus::failure;
            }
            break;
          case kregs::iommuPin:
            if (iommu_ && iommuCtxSelect_ < contexts_.size()) {
                const bool ok = iommu_->pinPage(
                    static_cast<unsigned>(iommuCtxSelect_), pkt.data);
                iommuLastStatus_ = ok ? dmastatus::ok : dmastatus::failure;
            } else {
                iommuLastStatus_ = dmastatus::failure;
            }
            break;
          case kregs::capSlotSelect:
          case kregs::capSpanBase:
          case kregs::capSpanLimit:
          case kregs::capConfig:
          case kregs::capSecret:
          case kregs::capOp:
            capManage(offset, pkt.data);
            break;
          default:
            ULDMA_WARN(name_, ": write to unknown kernel register 0x",
                       std::hex, offset);
        }
        return;
    }

    switch (offset) {
      case kregs::status:
        if (kFailed_)
            pkt.data = dmastatus::failure;
        else if (kTransfer_ != invalidTransfer)
            pkt.data = xfer_.remaining(kTransfer_);
        else
            pkt.data = 0;
        break;
      case kregs::source:
        pkt.data = kSrc_;
        break;
      case kregs::destination:
        pkt.data = kDst_;
        break;
      case kregs::size:
        pkt.data = kSize_;
        break;
      case kregs::osProcessTag:
        pkt.data = osTag_;
        break;
      case kregs::iommuStatus:
        pkt.data = iommuLastStatus_;
        break;
      case kregs::capStatus:
        pkt.data = capLastStatus_;
        break;
      default:
        pkt.data = 0;
    }
}

void
DmaEngine::kernelStart()
{
    ++kernelStarts_;
    kFailed_ = false;

    // Adopt the span sysDma staged at trap entry (so the recorded
    // end-to-end time includes syscall overhead); open one here if the
    // registers were programmed directly (tests, bare-metal use).
    span::SpanId sid = span::invalidSpan;
    if (span::captureOn()) {
        sid = span::tracker().takeStagedKernel();
        if (sid == span::invalidSpan)
            sid = span::tracker().open(name_, "kernel", xfer_.now());
    }

    if (kSize_ == 0 || kSize_ > kernelMaxTransfer ||
        !backend_.validEndpoint(kSrc_, kSize_) ||
        !backend_.validEndpoint(kDst_, kSize_)) {
        kFailed_ = true;
        ++rejected_;
        spanReject(sid);
        ULDMA_TRACE_EVENT(name_, xfer_.now(), "dma_reject",
                          "kernel args invalid, size ", kSize_);
        return;
    }

    if (span::captureOn())
        span::tracker().recognize(sid, xfer_.now(), 0, /*via_kernel=*/true,
                                  kSize_);

    // Kernel transfers may span pages: the kernel checked the whole
    // range in software (figure 1's check_size()).  The transfer's
    // wall-clock start honours the syscall entry time (startDelay).
    kTransfer_ = xfer_.start(
        kSrc_, kDst_, kSize_,
        [this]() {
            if (kernelCompletionHandler_)
                kernelCompletionHandler_();
        },
        xfer_.now() + kStartDelay_, sid);
    ++started_;
    ULDMA_TRACE_EVENT(name_, xfer_.now(), "dma_kernel_start",
                      "size ", kSize_);
    initiations_.push_back(InitiationRecord{
        xfer_.now(), params_.mode, kSrc_, kDst_, kSize_, 0,
        /*viaKernel=*/true, /*viaRing=*/false, {}});
}

// ---------------------------------------------------------------------
// Register-context pages (paper §3.1).
// ---------------------------------------------------------------------

void
DmaEngine::accessContextPage(Packet &pkt, unsigned ctx, Addr offset)
{
    // The ring doorbell is the one decoded offset besides the size
    // register (paper §3.1 stores land on SIZE wherever they hit).
    if (offset == ctxpage::ringDoorbell) {
        ringDoorbell(pkt, ctx);
        return;
    }
    RegisterContext &rc = contexts_[ctx];

    if (pkt.isWrite()) {
        if (rc.span == span::invalidSpan)
            rc.span = spanOpen(toString(params_.mode));
        rc.size = pkt.data;
        rc.sizeValid = true;
        rc.contributors.push_back(pkt.srcPid);
        return;
    }

    // Load: initiation attempt or completion poll.
    if (rc.srcValid && rc.dstValid && rc.sizeValid) {
        rc.contributors.push_back(pkt.srcPid);
        const TransferId id = tryStartUser(rc.src, rc.dst, rc.size, ctx,
                                           rc.contributors, rc.span);
        rc.span = span::invalidSpan;
        rc.resetArgs();
        if (id == invalidTransfer) {
            pkt.data = dmastatus::failure;
        } else {
            rc.transfer = id;
            pkt.data = xfer_.remaining(id);
        }
        return;
    }

    if (rc.transfer != invalidTransfer) {
        pkt.data = xfer_.remaining(rc.transfer);
        return;
    }

    // Incomplete argument set: report failure and discard the stale
    // arguments so the process restarts its sequence cleanly.
    spanReject(rc.span != span::invalidSpan
                   ? rc.span
                   : spanOpen(toString(params_.mode)));
    rc.span = span::invalidSpan;
    rc.resetArgs();
    pkt.data = dmastatus::failure;
}

// ---------------------------------------------------------------------
// Shadow window dispatch (paper §2.3).
// ---------------------------------------------------------------------

void
DmaEngine::accessShadow(Packet &pkt)
{
    if (pkt.isWrite())
        ++shadowStores_;
    else
        ++shadowLoads_;

    Addr target = 0;
    unsigned ctx = 0;
    params_.decodeShadow(pkt.paddr, target, ctx);

    switch (params_.mode) {
      case EngineMode::ShadowPair:
        shadowPair(pkt, target, ctx);
        break;
      case EngineMode::KeyBased:
        shadowKeyBased(pkt, target);
        break;
      case EngineMode::Repeated3:
      case EngineMode::Repeated4:
      case EngineMode::Repeated5:
        shadowRepeated(pkt, target, ctx);
        break;
      case EngineMode::MappedOut:
        shadowMappedOut(pkt, target);
        break;
    }
}

void
DmaEngine::shadowPair(Packet &pkt, Addr target, unsigned ctx)
{
    PairLatch &latch = pairLatch_.at(ctx);

    if (pkt.isWrite()) {
        // STORE size TO shadow(vdestination): latch the destination.
        if (latch.valid)
            spanAbort(latch.span);
        latch.span = spanOpen(toString(params_.mode));
        latch.valid = true;
        latch.dst = target;
        latch.size = pkt.data;
        latch.osTag = osTag_;
        latch.contributor = pkt.srcPid;
        return;
    }

    // LOAD status FROM shadow(vsource): complete the pair.
    const span::SpanId sid =
        latch.valid ? latch.span : spanOpen(toString(params_.mode));

    bool ok = latch.valid;
    if (ok && params_.flashTagCheck && latch.osTag != osTag_) {
        // FLASH: the latch came from a process that has since been
        // switched out; refuse to mix arguments (paper §2.6).
        ok = false;
    }

    if (!ok) {
        latch.valid = false;
        latch.span = span::invalidSpan;
        ++rejected_;
        spanReject(sid);
        pkt.data = dmastatus::failure;
        return;
    }

    const TransferId id = tryStartUser(target, latch.dst, latch.size, ctx,
                                       {latch.contributor, pkt.srcPid}, sid);
    latch.valid = false;
    latch.span = span::invalidSpan;
    pkt.data = id == invalidTransfer ? dmastatus::failure : dmastatus::ok;
}

void
DmaEngine::shadowKeyBased(Packet &pkt, Addr target)
{
    if (!pkt.isWrite()) {
        // The key-based protocol passes both addresses with stores
        // (paper §3.1); a shadow load is undefined and rejected.
        ++rejected_;
        spanReject(spanOpen(toString(params_.mode)));
        pkt.data = dmastatus::failure;
        return;
    }

    const unsigned ctx = keyfield::ctxOf(pkt.data);
    if (ctx >= contexts_.size()) {
        ++rejected_;
        spanReject(spanOpen(toString(params_.mode)));
        return;
    }

    RegisterContext &rc = contexts_[ctx];
    if (!rc.keyValid || keyfield::keyOf(pkt.data) != rc.key) {
        ULDMA_TRACE_EVENT(name_, xfer_.now(), "dma_key_mismatch",
                          "ctx ", ctx);
        // "only if the provided key matches the key stored by the
        // operating system in the DMA engine" (paper §3.1).
        ++keyMismatch_;
        spanReject(spanOpen(toString(params_.mode)),
                   span::Outcome::KeyMismatch);
        return;
    }

    // The paper's order: destination first, then source.  A store when
    // both are already valid begins a fresh argument pair.
    if (rc.srcValid && rc.dstValid) {
        spanAbort(rc.span);
        rc.span = span::invalidSpan;
        rc.resetArgs();
    }
    if (rc.span == span::invalidSpan)
        rc.span = spanOpen(toString(params_.mode));
    if (!rc.dstValid) {
        rc.dst = target;
        rc.dstValid = true;
    } else {
        rc.src = target;
        rc.srcValid = true;
    }
    rc.contributors.push_back(pkt.srcPid);
}

// ---------------------------------------------------------------------
// Repeated passing of arguments (paper §3.3).
// ---------------------------------------------------------------------

namespace {

/** Which earlier address of the sequence an access must repeat. */
enum class Repeat : std::uint8_t { None, Dst, Src };

/** One access of a repeated-passing sequence: its kind, and the
 *  address (the first store's dst or the first load's src) it must
 *  name again. */
struct RecognizerStep
{
    bool store;
    Repeat repeat;
};

// Figure 7: accesses 1, 3 and 5 repeat one address, 2 and 4 another.
// The 3- and 4-access variants (figures 5 and 6) are the same rule over
// shorter sequences.
constexpr RecognizerStep repeated3Steps[] = {
    {false, Repeat::None}, {true, Repeat::None}, {false, Repeat::Src}};
constexpr RecognizerStep repeated4Steps[] = {
    {true, Repeat::None}, {false, Repeat::None}, {true, Repeat::Dst},
    {false, Repeat::Src}};
constexpr RecognizerStep repeated5Steps[] = {
    {true, Repeat::None}, {false, Repeat::None}, {true, Repeat::Dst},
    {false, Repeat::Src}, {false, Repeat::Dst}};

std::span<const RecognizerStep>
recognizerSteps(EngineMode mode)
{
    switch (mode) {
      case EngineMode::Repeated3: return repeated3Steps;
      case EngineMode::Repeated4: return repeated4Steps;
      case EngineMode::Repeated5: return repeated5Steps;
      default: ULDMA_PANIC("repeated-passing access in mode ",
                           toString(mode));
    }
}

} // namespace

void
DmaEngine::fsmReset()
{
    if (fsmStep_ != 0) {
        ++fsmResets_;
        spanAbort(fsmSpan_);
    }
    fsmStep_ = 0;
    fsmContributors_.clear();
    fsmSpan_ = span::invalidSpan;
}

void
DmaEngine::shadowRepeated(Packet &pkt, Addr target, unsigned ctx)
{
    const std::span<const RecognizerStep> steps =
        recognizerSteps(params_.mode);
    const bool is_store = pkt.isWrite();

    // Two attempts: if the access mismatches mid-sequence, the engine
    // resets and the same access may begin a new sequence (this is what
    // makes the figure-5 interleaving possible against Repeated3).
    for (int attempt = 0; attempt < 2; ++attempt) {
        const RecognizerStep &step = steps[fsmStep_];
        const Addr named = step.repeat == Repeat::Dst ? fsmStoreAddr_
                                                      : fsmLoadAddr_;
        // A sequence belongs to one shadow CONTEXT_ID: an access that
        // arrives through a different context window never continues
        // it, even when its stripped target address lines up.  Test-only
        // fault injection (DmaEngineParams::weakRecognizer) skips the
        // same-address checks of figure 7, so a mismatching address is
        // adopted instead of resetting.
        if (step.store == is_store && (fsmStep_ == 0 || ctx == fsmCtx_) &&
            (step.repeat == Repeat::None || params_.weakRecognizer ||
             target == named)) {
            if (fsmStep_ == 0) {
                fsmCtx_ = ctx;
                fsmContributors_.clear();
                fsmSpan_ = spanOpen(toString(params_.mode));
            }
            fsmContributors_.push_back(pkt.srcPid);
            // A non-final store latches dst and size, a non-final load
            // latches src; the final access only starts the transfer.
            if (fsmStep_ + 1 == steps.size()) {
                const TransferId id =
                    tryStartUser(fsmLoadAddr_, fsmStoreAddr_, fsmSize_, 0,
                                 fsmContributors_, fsmSpan_);
                pkt.data = id == invalidTransfer ? dmastatus::failure
                                                 : dmastatus::ok;
                fsmStep_ = 0;
                fsmContributors_.clear();
                fsmSpan_ = span::invalidSpan;
            } else if (is_store) {
                fsmStoreAddr_ = target;
                fsmSize_ = pkt.data;
                ++fsmStep_;
            } else {
                fsmLoadAddr_ = target;
                pkt.data = dmastatus::pending;
                ++fsmStep_;
            }
            return;
        }

        // Mismatch: reset, and on the second pass let this access seed
        // a fresh sequence; if it cannot, report failure to loads.
        fsmReset();
        if (!is_store) {
            pkt.data = dmastatus::failure;
            if (attempt == 1)
                spanReject(spanOpen(toString(params_.mode)));
        }
    }
}

// ---------------------------------------------------------------------
// Mapped-out pages (SHRIMP-1, paper §2.4).
// ---------------------------------------------------------------------

void
DmaEngine::shadowMappedOut(Packet &pkt, Addr target)
{
    if (!pkt.isWrite()) {
        pkt.data = dmastatus::failure;
        ++rejected_;
        spanReject(spanOpen(toString(params_.mode)));
        return;
    }

    auto it = mapOutTable_.find(pageNumber(target));
    if (it == mapOutTable_.end()) {
        // No mapped-out counterpart: the single-access initiation has
        // nowhere to send the data (paper §2.4's restriction).
        ++rejected_;
        spanReject(spanOpen(toString(params_.mode)));
        if (pkt.rmw)
            pkt.data = dmastatus::failure;
        return;
    }

    const Addr dst = it->second + pageOffset(target);
    const TransferId id =
        tryStartUser(target, dst, pkt.data, 0, {pkt.srcPid},
                     spanOpen(toString(params_.mode)));
    if (pkt.rmw) {
        pkt.data = id == invalidTransfer ? dmastatus::failure
                                         : dmastatus::ok;
    }
}

// ---------------------------------------------------------------------
// Descriptor ring (docs/RING.md).
// ---------------------------------------------------------------------

unsigned
DmaEngine::ringOutstanding(unsigned ctx) const
{
    ULDMA_ASSERT(ctx < rings_.size(), "context id out of range");
    return rings_[ctx].outstanding;
}

std::uint64_t
DmaEngine::ringRetired(unsigned ctx) const
{
    ULDMA_ASSERT(ctx < rings_.size(), "context id out of range");
    return rings_[ctx].retired;
}

void
DmaEngine::ringDoorbell(Packet &pkt, unsigned ctx)
{
    RingContext &ring = rings_[ctx];

    if (!pkt.isWrite()) {
        // Drain-progress poll: total descriptors retired so far.
        pkt.data = ring.configured ? ring.retired : dmastatus::failure;
        return;
    }

    // The doorbell payload is key#context_id, exactly like a key-based
    // shadow store: the MMU mapping proves the page, the key proves
    // the ring.  A forged doorbell from a process that guessed the
    // page address but not the key dies here.
    const unsigned payload_ctx = keyfield::ctxOf(pkt.data);
    RegisterContext &rc = contexts_[ctx];
    if (payload_ctx != ctx || !rc.keyValid ||
        keyfield::keyOf(pkt.data) != rc.key) {
        ULDMA_TRACE_EVENT(name_, xfer_.now(), "ring_key_mismatch",
                          "ctx ", ctx);
        ++keyMismatch_;
        spanReject(spanOpen("ring"), span::Outcome::KeyMismatch);
        return;
    }
    if (!ring.configured || localMemory_ == nullptr) {
        ++rejected_;
        spanReject(spanOpen("ring"));
        return;
    }

    ++ringDoorbells_;
    ring.lastDoorbell = xfer_.now();
    ULDMA_TRACE_EVENT(name_, xfer_.now(), "ring_doorbell", "ctx ", ctx);
    ringDrain(ctx, pkt.srcPid);
    // Queueing depth the doorbell left behind: how many drained
    // descriptors are now waiting on the serialized pipeline.
    ringOccupancy_.sample(static_cast<double>(ring.outstanding));
}

void
DmaEngine::ringDrain(unsigned ctx, Pid doorbell_pid)
{
    ULDMA_PROF_SCOPE("dma.ring_drain");
    RingContext &ring = rings_[ctx];
    unsigned drained = 0;
    // One doorbell drains every armed descriptor: walk from head until
    // the first control word without the valid bit (the chain
    // terminator — a torn enqueue that wrote ctrl before the
    // arguments parks the drain there too, see ringConsume).
    while (drained < ring.slots && ringConsume(ctx, doorbell_pid))
        ++drained;
    // Two engine-side accesses per consumed descriptor: the descriptor
    // fetch and the control-word writeback.
    pendingExtraCycles_ += Cycles(2 * drained) * niAccessCycles;
}

bool
DmaEngine::ringConsume(unsigned ctx, Pid doorbell_pid)
{
    RingContext &ring = rings_[ctx];
    // A descriptor parked on an IOMMU fault stalls the whole ring:
    // descriptors retire in FIFO order, and the parked one isn't done.
    if (ring.park.active)
        return false;
    const unsigned slot = ring.head;
    const Addr desc = ring.base + Addr(slot) * ringdesc::descBytes;
    if (desc + ringdesc::descBytes > localMemory_->size())
        return false;

    const std::uint64_t ctrl =
        localMemory_->readInt(desc + ringdesc::ctrlOff, 8);
    if (!(ctrl & ringdesc::ctrl::valid) ||
        (ctrl & (ringdesc::ctrl::done | ringdesc::ctrl::error)))
        return false;

    ++ringDescriptors_;
    ring.head = (ring.head + 1) % ring.slots;

    const Addr src = localMemory_->readInt(desc + ringdesc::srcOff, 8);
    const Addr dst = localMemory_->readInt(desc + ringdesc::dstOff, 8);
    const Addr size = localMemory_->readInt(desc + ringdesc::sizeOff, 8);

    if (ctrl & ringdesc::ctrl::fence) {
        // Fence/flush: completes once every transfer queued before it
        // has drained from the serialized pipeline.  No data moves.
        ++ringFences_;
        span::SpanId sid = span::invalidSpan;
        if (span::captureOn()) {
            sid = span::tracker().open(name_, "ring", xfer_.now());
            span::tracker().recognize(sid, xfer_.now(), ctx,
                                      /*via_kernel=*/false, 0);
            span::tracker().queue(sid, xfer_.now());
        }
        const Tick done_at = std::max(xfer_.busyUntil(), xfer_.now());
        eq_.scheduleLambda(
            name_ + ".ringFence", done_at,
            [this, ctx, slot, sid]() {
                ringRetire(ctx, slot, dmastatus::ok,
                           ringdesc::ctrl::done);
                if (span::captureOn())
                    span::tracker().complete(sid, xfer_.now());
            },
            Event::DevicePrio);
        return true;
    }

    // IOMMU mode: descriptors carry user virtual addresses and may
    // span pages; translation (not the frame table) is the protection.
    if (iommu_)
        return ringConsumeIommu(ctx, slot, src, dst, size, doorbell_pid);

    const span::SpanId sid = spanOpen("ring");

    // The kernel-programmed frame table is the ring's protection: a
    // descriptor is only as trusted as the rights the OS granted the
    // context at setup time.  weakRing (model-checker fault injection)
    // turns this into the vulnerable "trust the descriptor" design.
    if (!params_.weakRing &&
        (!ringFrameAllowed(ring, src, size) ||
         !ringFrameAllowed(ring, dst, size))) {
        ++ringRejects_;
        ++rejected_;
        spanReject(sid);
        ULDMA_TRACE_EVENT(name_, xfer_.now(), "ring_reject",
                          "ctx ", ctx, " unauthorized frame");
        ringRetire(ctx, slot, dmastatus::failure, ringdesc::ctrl::error);
        return true;
    }

    const TransferId id = tryStartUser(
        src, dst, size, ctx, {doorbell_pid}, sid, /*via_ring=*/true,
        [this, ctx, slot]() {
            ringRetire(ctx, slot, dmastatus::ok, ringdesc::ctrl::done);
            ringTransferDone(ctx);
        });
    if (id == invalidTransfer) {
        ++ringRejects_;
        ringRetire(ctx, slot, dmastatus::failure, ringdesc::ctrl::error);
        return true;
    }
    ++ring.outstanding;
    return true;
}

bool
DmaEngine::ringFrameAllowed(const RingContext &ring, Addr addr,
                            Addr size) const
{
    if (size == 0)
        return false;
    for (const RingContext::Frame &frame : ring.frames) {
        if (addr >= frame.base && addr + size <= frame.limit)
            return true;
    }
    return false;
}

void
DmaEngine::ringRetire(unsigned ctx, unsigned slot, std::uint64_t status,
                      std::uint64_t ctrl_bits)
{
    RingContext &ring = rings_[ctx];
    ++ring.retired;
    if (status == dmastatus::ok)
        doorbellToRetireUs_.sample(
            ticksToUs(xfer_.now() - ring.lastDoorbell));
    const Addr desc = ring.base + Addr(slot) * ringdesc::descBytes;
    const Addr cpl = ring.cplBase + Addr(slot) * ringdesc::cplBytes;
    const std::uint64_t ctrl =
        localMemory_->readInt(desc + ringdesc::ctrlOff, 8);
    // writeInt fires the memory's write observers, so a polling CPU
    // sees the completion record coherently.
    localMemory_->writeInt(desc + ringdesc::ctrlOff, ctrl | ctrl_bits, 8);
    localMemory_->writeInt(cpl, status == dmastatus::ok
                                    ? std::uint64_t(1)
                                    : dmastatus::failure, 8);
}

void
DmaEngine::ringTransferDone(unsigned ctx)
{
    RingContext &ring = rings_[ctx];
    if (ring.outstanding > 0)
        --ring.outstanding;
}

// ---------------------------------------------------------------------
// IOMMU scatter-gather path (docs/IOMMU.md).
// ---------------------------------------------------------------------

bool
DmaEngine::ringConsumeIommu(unsigned ctx, unsigned slot, Addr src,
                            Addr dst, Addr size, Pid doorbell_pid)
{
    RingContext &ring = rings_[ctx];
    if (size == 0 || size > Iommu::maxSgBytes) {
        ++ringRejects_;
        ++rejected_;
        spanReject(spanOpen("ring"));
        ULDMA_TRACE_EVENT(name_, xfer_.now(), "ring_reject",
                          "ctx ", ctx, " bad sg size ", size);
        ringRetire(ctx, slot, dmastatus::failure, ringdesc::ctrl::error);
        return true;
    }
    // Descriptor-level occupancy: one descriptor in flight no matter
    // how many per-page segments it scatters into.
    ring.sg[slot] = RingContext::SlotSg{};
    ++ring.outstanding;
    return ringIssueSegments(ctx, slot, src, dst, size, /*done=*/0,
                             doorbell_pid);
}

bool
DmaEngine::ringIssueSegments(unsigned ctx, unsigned slot, Addr src,
                             Addr dst, Addr size, Addr done, Pid pid)
{
    ULDMA_PROF_SCOPE("dma.iommu_sg");
    RingContext &ring = rings_[ctx];
    RingContext::SlotSg &sg = ring.sg[slot];
    sg.issuing = true;
    while (done < size) {
        // Segments never cross a page at either endpoint: each one is
        // a plain single-page user transfer once translated.
        const Addr seg = std::min(
            {size - done, pageSize - pageOffset(src + done),
             pageSize - pageOffset(dst + done), userMaxTransfer});
        const Addr sv = src + done;
        const Addr dv = dst + done;
        Iommu::Result rs = iommu_->translate(ctx, sv, Rights::Read);
        Iommu::Result rd = iommu_->translate(ctx, dv, Rights::Write);
        // Translation latency is charged to the access that triggered
        // the drain (or accumulates onto the next engine access after
        // a trap resume) — deterministic either way.
        pendingExtraCycles_ += rs.cycles + rd.cycles;
        if (!rs.ok() || !rd.ok()) {
            const Addr fault_iova = !rs.ok() ? sv : dv;
            const bool fault_write = rs.ok();
            ++iommuTransFaults_;
            ULDMA_TRACE_EVENT(name_, xfer_.now(), "iommu_fault",
                              "ctx ", ctx, " iova 0x", std::hex,
                              fault_iova);
            if (params_.weakIommu) {
                // Fault injection (model checker): trust the
                // descriptor's raw address as physical — the bypass an
                // IOMMU exists to rule out.
                ++iommuBypasses_;
                if (!rs.ok())
                    rs.paddr = sv;
                if (!rd.ok())
                    rd.paddr = dv;
            } else if (params_.iommu.faultPolicy ==
                           IommuFaultPolicy::Trap &&
                       iommuFaultHandler_) {
                // Park the descriptor mid-transfer and ask the kernel
                // to repair the mapping; iommuResume continues from
                // byte `done` once the fix-up cost has elapsed.
                sg.issuing = false;
                ring.park = RingContext::IommuPark{
                    true, slot, src, dst, size, done, pid, fault_iova,
                    fault_write};
                ++iommuTraps_;
                scheduleIommuFaultFixup(ctx);
                return false;
            } else {
                sg.error = true;
                ++iommuAborts_;
                ++ringRejects_;
                break;
            }
        }
        const span::SpanId sid = spanOpen("ring");
        if (span::captureOn()) {
            // Stamp the modeled end of translation (the cycles above
            // are charged to the triggering access, not simulated
            // inline), so the span's translation phase carries the
            // IOTLB hit-vs-walk cost.
            span::tracker().translated(
                sid, xfer_.now() + xfer_.clockDomain().cyclesToTicks(
                                       rs.cycles + rd.cycles));
        }
        const TransferId id = tryStartUser(
            rs.paddr, rd.paddr, seg, ctx, {pid}, sid, /*via_ring=*/true,
            [this, ctx, slot]() { ringSegmentDone(ctx, slot); });
        if (id == invalidTransfer) {
            sg.error = true;
            break;
        }
        ++iommuSegments_;
        ++sg.remaining;
        done += seg;
    }
    sg.issuing = false;
    maybeFinishSgSlot(ctx, slot);
    return true;
}

void
DmaEngine::ringSegmentDone(unsigned ctx, unsigned slot)
{
    RingContext &ring = rings_[ctx];
    auto it = ring.sg.find(slot);
    if (it == ring.sg.end())
        return;
    if (it->second.remaining > 0)
        --it->second.remaining;
    maybeFinishSgSlot(ctx, slot);
}

void
DmaEngine::maybeFinishSgSlot(unsigned ctx, unsigned slot)
{
    RingContext &ring = rings_[ctx];
    auto it = ring.sg.find(slot);
    if (it == ring.sg.end())
        return;
    const RingContext::SlotSg &sg = it->second;
    if (sg.remaining > 0 || sg.issuing)
        return;
    // Parked mid-descriptor: earlier segments may drain while the
    // kernel repairs the mapping, but the slot retires only after the
    // resumed tail finishes.
    if (ring.park.active && ring.park.slot == slot)
        return;
    const bool err = sg.error;
    ring.sg.erase(it);
    ringRetire(ctx, slot, err ? dmastatus::failure : dmastatus::ok,
               err ? ringdesc::ctrl::error : ringdesc::ctrl::done);
    ringTransferDone(ctx);
}

void
DmaEngine::scheduleIommuFaultFixup(unsigned ctx)
{
    // Deferred past the current bus access: the kernel's fix-up
    // programs the engine over the bus and must not reenter the
    // access being processed.
    const Tick when = std::max(xfer_.busyUntil(), xfer_.now());
    eq_.scheduleLambda(
        name_ + ".iommuFixup", when,
        [this, ctx]() {
            RingContext &ring = rings_[ctx];
            if (!ring.park.active)
                return;
            std::uint64_t cost = ~std::uint64_t(0);
            if (iommuFaultHandler_)
                cost = iommuFaultHandler_(ctx, ring.park.faultIova,
                                          ring.park.faultWrite);
            if (cost == ~std::uint64_t(0)) {
                abortParked(ctx);
                return;
            }
            eq_.scheduleLambda(
                name_ + ".iommuResume", xfer_.now() + cost,
                [this, ctx]() { iommuResume(ctx); }, Event::DevicePrio);
        },
        Event::DevicePrio);
}

void
DmaEngine::abortParked(unsigned ctx)
{
    RingContext &ring = rings_[ctx];
    if (!ring.park.active)
        return;
    const unsigned slot = ring.park.slot;
    const Pid pid = ring.park.pid;
    ring.park = RingContext::IommuPark{};
    ring.sg[slot].error = true;
    ++iommuAborts_;
    ++ringRejects_;
    ULDMA_TRACE_EVENT(name_, xfer_.now(), "iommu_abort", "ctx ", ctx,
                      " slot ", slot);
    maybeFinishSgSlot(ctx, slot);
    // Descriptors enqueued behind the aborted one drain now.
    ringDrain(ctx, pid);
}

void
DmaEngine::iommuResume(unsigned ctx)
{
    RingContext &ring = rings_[ctx];
    if (!ring.park.active)
        return;
    const RingContext::IommuPark park = ring.park;
    ring.park = RingContext::IommuPark{};
    ++iommuResumes_;
    ULDMA_TRACE_EVENT(name_, xfer_.now(), "iommu_resume", "ctx ", ctx,
                      " slot ", park.slot, " done ", park.done);
    if (ringIssueSegments(ctx, park.slot, park.src, park.dst, park.size,
                          park.done, park.pid)) {
        // Drain descriptors that queued up behind the parked one.
        ringDrain(ctx, park.pid);
    }
}

// ---------------------------------------------------------------------
// Capability-gated initiation (docs/CAPABILITIES.md).
// ---------------------------------------------------------------------

Addr
DmaEngine::capPageAddr(unsigned slot) const
{
    ULDMA_ASSERT(cap_ && slot < params_.cap.numSlots,
                 name_, ": capPageAddr on invalid slot ", slot);
    return capPagesBase + Addr(slot) * pageSize;
}

void
DmaEngine::capManage(Addr offset, std::uint64_t value)
{
    if (!cap_) {
        capLastStatus_ = dmastatus::failure;
        return;
    }
    const unsigned slot = static_cast<unsigned>(capSlotSelect_);
    switch (offset) {
      case kregs::capSlotSelect:
        capSlotSelect_ = value;
        capLastStatus_ = value < params_.cap.numSlots ? dmastatus::ok
                                                      : dmastatus::failure;
        break;
      case kregs::capSpanBase:
        capSpanBaseStage_ = value;
        capLastStatus_ = dmastatus::ok;
        break;
      case kregs::capSpanLimit:
        capLastStatus_ = cap_->addSpan(slot, capSpanBaseStage_, value)
                             ? dmastatus::ok
                             : dmastatus::failure;
        break;
      case kregs::capConfig:
        capLastStatus_ = cap_->configure(slot, capconfig::rightsOf(value),
                                         capconfig::rateClassOf(value))
                             ? dmastatus::ok
                             : dmastatus::failure;
        break;
      case kregs::capSecret:
        capLastStatus_ = cap_->install(slot, value) ? dmastatus::ok
                                                    : dmastatus::failure;
        break;
      case kregs::capOp:
        if (value == capop::revoke) {
            // Bump the generation first so any presentation racing the
            // revocation already fails the generation check, then fail
            // closed everything queued or in flight for the slot.
            capLastStatus_ = cap_->revoke(slot) ? dmastatus::ok
                                                : dmastatus::failure;
            capCancelSlot(slot);
        } else if (value == capop::invalidate) {
            capCancelSlot(slot);
            capLastStatus_ = cap_->invalidate(slot) ? dmastatus::ok
                                                    : dmastatus::failure;
        } else {
            capLastStatus_ = dmastatus::failure;
        }
        break;
      default:
        capLastStatus_ = dmastatus::failure;
    }
}

void
DmaEngine::accessCapPage(Packet &pkt, Addr window_offset)
{
    const unsigned slot = static_cast<unsigned>(pageNumber(window_offset));
    const Addr reg = pageOffset(window_offset);
    ULDMA_ASSERT(slot < capPres_.size(),
                 name_, ": cap window decode out of range");
    CapPresentation &p = capPres_[slot];

    if (pkt.isWrite()) {
        switch (reg) {
          case cappage::src:
            p.src = pkt.data;
            p.contributors.push_back(pkt.srcPid);
            break;
          case cappage::dst:
            p.dst = pkt.data;
            p.contributors.push_back(pkt.srcPid);
            break;
          case cappage::size:
            p.size = pkt.data;
            p.contributors.push_back(pkt.srcPid);
            break;
          case cappage::word:
            p.contributors.push_back(pkt.srcPid);
            capCommit(slot, pkt.data);
            break;
          default:
            ULDMA_WARN(name_, ": write to unknown cap page offset 0x",
                       std::hex, reg);
        }
        return;
    }

    // Loads: the capword offset reads back the presentation status
    // (ok / pending / failure); everything else reads as zero so user
    // code cannot use the page to spy on another tenant's arguments.
    pkt.data = reg == cappage::word ? p.status : 0;
}

void
DmaEngine::capCommit(unsigned slot, std::uint64_t capword)
{
    ++capPresentations_;
    // The table walk (secret compare + span scan) costs a fixed number
    // of engine cycles, charged to the presenting store like the FSM
    // decode cost.
    pendingExtraCycles_ += params_.cap.checkCycles;

    CapPresentation &p = capPres_[slot];
    const span::SpanId sid = spanOpen("cap");

    CapFault fault = CapFault::None;
    if (!params_.weakCap)
        fault = cap_->check(slot, capword, p.src, p.dst, p.size);

    // Even the weakened engine cannot move bytes through endpoints the
    // machine does not have (the transfer engine asserts on them), and
    // the single-pipeline data mover keeps the paper's one-page bound.
    const bool args_ok =
        p.size != 0 && p.size <= userMaxTransfer &&
        pageNumber(p.src) == pageNumber(p.src + p.size - 1) &&
        pageNumber(p.dst) == pageNumber(p.dst + p.size - 1) &&
        backend_.validEndpoint(p.src, p.size) &&
        backend_.validEndpoint(p.dst, p.size);

    if (fault != CapFault::None || !args_ok) {
        ++capRejects_;
        ++rejected_;
        p.status = dmastatus::failure;
        p.contributors.clear();
        spanReject(sid);
        ULDMA_TRACE_EVENT(name_, xfer_.now(), "cap_reject",
                          "slot ", slot, " fault ",
                          static_cast<int>(fault));
        return;
    }

    if (span::captureOn())
        span::tracker().recognize(sid, xfer_.now(), 0,
                                  /*via_kernel=*/false, p.size);

    const unsigned rate = cap_->valid(slot) ? cap_->rateClass(slot) : 0;
    CapRequest req;
    req.slot = slot;
    req.src = p.src;
    req.dst = p.dst;
    req.size = p.size;
    req.enqueued = xfer_.now();
    req.spanId = sid;
    req.contributors = p.contributors;
    capArbiter_->enqueue(rate, std::move(req));

    p.status = dmastatus::pending;
    p.contributors.clear();
    ULDMA_TRACE_EVENT(name_, xfer_.now(), "cap_accept",
                      "slot ", slot, " rate ", rate);
    capDispatch();
}

void
DmaEngine::capDispatch()
{
    if (capActiveXfer_ != invalidTransfer)
        return;
    CapRequest req;
    if (!capArbiter_->dispatch(xfer_.now(), req))
        return;

    capActiveSlot_ = req.slot;
    capActiveSize_ = req.size;
    capActiveCancelled_ = false;

    ++capStarts_;
    ++started_;
    initiations_.push_back(InitiationRecord{
        xfer_.now(), params_.mode, req.src, req.dst, req.size, 0,
        /*viaKernel=*/false, /*viaRing=*/false, req.contributors,
        /*viaCap=*/true, req.slot});
    ULDMA_TRACE_EVENT(name_, xfer_.now(), "cap_start",
                      "slot ", req.slot, " size ", req.size);

    capActiveXfer_ = xfer_.start(req.src, req.dst, req.size,
                                 [this]() { capTransferDone(); }, 0,
                                 req.spanId);
}

void
DmaEngine::capTransferDone()
{
    CapPresentation &p = capPres_[capActiveSlot_];
    if (capActiveCancelled_) {
        p.status = dmastatus::failure;
    } else {
        p.status = dmastatus::ok;
        cap_->recordBytes(capActiveSlot_, capActiveSize_);
    }
    capActiveXfer_ = invalidTransfer;
    capActiveCancelled_ = false;
    capDispatch();
}

void
DmaEngine::capCancelSlot(unsigned slot)
{
    if (!capArbiter_)
        return;
    // Queued presentations for the slot fail closed.
    for (const CapRequest &r : capArbiter_->purgeSlot(slot)) {
        ++capCancels_;
        capPres_[r.slot].status = dmastatus::failure;
        spanAbort(r.spanId);
    }
    // A transfer already on the bus keeps the pipeline busy but never
    // delivers its payload (docs/CAPABILITIES.md fail-closed rule).
    if (capActiveXfer_ != invalidTransfer && capActiveSlot_ == slot &&
        xfer_.cancel(capActiveXfer_)) {
        capActiveCancelled_ = true;
        ++capCancels_;
        ULDMA_TRACE_EVENT(name_, xfer_.now(), "cap_cancel_inflight",
                          "slot ", slot);
    }
}

// ---------------------------------------------------------------------
// Common start path.
// ---------------------------------------------------------------------

TransferId
DmaEngine::tryStartUser(Addr src, Addr dst, Addr size, unsigned ctx,
                        const std::vector<Pid> &contributors,
                        span::SpanId span, bool via_ring,
                        std::function<void()> on_complete)
{
    ULDMA_PROF_SCOPE("dma.initiate");
    if (size == 0 || size > userMaxTransfer) {
        ++rejected_;
        spanReject(span);
        ULDMA_TRACE_EVENT(name_, xfer_.now(), "dma_reject",
                          "bad size ", size);
        return invalidTransfer;
    }
    // The shadow mapping only proves access rights to a single page;
    // a user transfer must therefore stay within one page at both
    // endpoints (the kernel channel has no such restriction).
    if (pageNumber(src) != pageNumber(src + size - 1) ||
        pageNumber(dst) != pageNumber(dst + size - 1)) {
        ++crossPageRejects_;
        ++rejected_;
        spanReject(span);
        ULDMA_TRACE_EVENT(name_, xfer_.now(), "dma_reject",
                          "cross-page, size ", size);
        return invalidTransfer;
    }
    if (!backend_.validEndpoint(src, size) ||
        !backend_.validEndpoint(dst, size)) {
        ++rejected_;
        spanReject(span);
        return invalidTransfer;
    }

    if (span::captureOn())
        span::tracker().recognize(span, xfer_.now(), ctx,
                                  /*via_kernel=*/false, size);

    const TransferId id =
        xfer_.start(src, dst, size, std::move(on_complete), 0, span);
    ++started_;
    ULDMA_TRACE_EVENT(name_, xfer_.now(), "dma_start",
                      "ctx ", ctx, " size ", size);
    initiations_.push_back(InitiationRecord{
        xfer_.now(), params_.mode, src, dst, size, ctx,
        /*viaKernel=*/false, via_ring, contributors});

    ULDMA_TRACE("Dma", xfer_.now(), name_, ": user DMA started 0x",
                std::hex, src, " -> 0x", dst, std::dec, " size ", size,
                " mode ", toString(params_.mode));
    return id;
}

// ---------------------------------------------------------------------
// State hashing for the model checker.
// ---------------------------------------------------------------------

std::uint64_t
DmaEngine::stateHash() const
{
    Fnv1a f;
    f.mix(static_cast<std::uint64_t>(params_.mode));
    f.mix(osTag_);

    // Repeated-passing FSM.
    f.mix(fsmStep_);
    f.mix(fsmCtx_);
    f.mix(fsmStoreAddr_);
    f.mix(fsmLoadAddr_);
    f.mix(fsmSize_);
    f.mix(fsmContributors_.size());
    for (Pid p : fsmContributors_)
        f.mix(p);

    // ShadowPair latches.
    for (const PairLatch &l : pairLatch_) {
        f.mix(l.valid);
        f.mix(l.dst);
        f.mix(l.size);
        f.mix(l.osTag);
        f.mix(l.contributor);
    }

    // Key-based register contexts.  The secret keys are deliberately
    // excluded: they differ across machines but never across two
    // re-executions of the same schedule prefix, and hashing them
    // would leak them into repro files.
    for (const RegisterContext &c : contexts_) {
        f.mix(c.keyValid);
        f.mix(c.src);
        f.mix(c.dst);
        f.mix(c.size);
        f.mix(c.srcValid);
        f.mix(c.dstValid);
        f.mix(c.sizeValid);
        f.mix(c.transfer != invalidTransfer);
        f.mix(c.contributors.size());
        for (Pid p : c.contributors)
            f.mix(p);
    }

    // Descriptor rings (ring bases and frame tables are OS-programmed
    // and protocol-visible; nothing here is secret like the keys).
    for (const RingContext &r : rings_) {
        f.mix(r.configured);
        f.mix(r.base);
        f.mix(r.cplBase);
        f.mix(r.slots);
        // Constant words where the digest mixed the completion policy,
        // coalescing factor and coalescing count, which always held
        // 0, 1 and 0: the digest feeds fuzz coverage and its goldens.
        f.mix(0);
        f.mix(1);
        f.mix(r.head);
        f.mix(r.retired);
        f.mix(r.outstanding);
        f.mix(0);
        f.mix(r.frames.size());
        for (const RingContext::Frame &frame : r.frames) {
            f.mix(frame.base);
            f.mix(frame.limit);
        }
    }

    // IOMMU: translation tables, pins, IOTLB and scatter-gather
    // progress.  Mixed only when the unit exists, so non-IOMMU hashes
    // are unchanged from the pre-IOMMU model.
    if (iommu_) {
        f.mix(iommu_->stateHash());
        for (const RingContext &r : rings_) {
            f.mix(r.sg.size());
            f.mix(r.park.active);
            f.mix(r.park.slot);
            f.mix(r.park.done);
        }
        f.mix(iommuSegments_.value());
        f.mix(iommuTransFaults_.value());
        f.mix(iommuTraps_.value());
        f.mix(iommuResumes_.value());
        f.mix(iommuAborts_.value());
        f.mix(iommuBypasses_.value());
    }

    // Capability path: table generations/spans, arbiter queue shape,
    // per-slot presentation latches and the active-transfer latch.
    // Mixed only when the family exists, so non-cap hashes are
    // unchanged from the pre-capability model.
    if (cap_) {
        f.mix(cap_->stateHash());
        f.mix(capArbiter_->stateHash());
        // An idle latch mixes five zero words; a run of idle latches
        // is mixed in one multiply (Fnv1a::mixZeros).
        std::uint64_t idle = 0;
        for (const CapPresentation &p : capPres_) {
            if (p.src == 0 && p.dst == 0 && p.size == 0 && p.status == 0 &&
                p.contributors.empty()) {
                ++idle;
                continue;
            }
            f.mixZeros(5 * idle);
            idle = 0;
            f.mix(p.src);
            f.mix(p.dst);
            f.mix(p.size);
            f.mix(p.status);
            f.mix(p.contributors.size());
            for (Pid q : p.contributors)
                f.mix(q);
        }
        f.mixZeros(5 * idle);
        f.mix(capActiveXfer_ != invalidTransfer);
        f.mix(capActiveSlot_);
        f.mix(capActiveSize_);
        f.mix(capActiveCancelled_);
        f.mix(capPresentations_.value());
        f.mix(capRejects_.value());
        f.mix(capStarts_.value());
        f.mix(capCancels_.value());
    }

    // Kernel channel.
    f.mix(kSrc_);
    f.mix(kDst_);
    f.mix(kSize_);
    f.mix(kFailed_);

    // Event counters: two states that took different numbers of
    // starts/rejects to reach are not interchangeable for exploration.
    f.mix(started_.value());
    f.mix(rejected_.value());
    f.mix(keyMismatch_.value());
    f.mix(fsmResets_.value());
    f.mix(ringDoorbells_.value());
    f.mix(ringDescriptors_.value());
    f.mix(ringRejects_.value());
    f.mix(ringFences_.value());
    return f.h;
}

} // namespace uldma
