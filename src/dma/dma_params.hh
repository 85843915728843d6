/**
 * @file
 * Configuration of the DMA engine and the layout of its registers.
 *
 * The engine decodes these windows on the I/O bus (their physical
 * bases are in vm/layout.hh):
 *
 *  - kernel registers: the traditional privileged register block of
 *    figure 1 (never mapped into user page tables);
 *  - register-context pages: one page per context for the key-based
 *    protocol (paper §3.1), each mappable into exactly one process;
 *  - the DMA shadow window: shadow(paddr) accesses (paper §2.3), with
 *    optional CONTEXT_ID bits above the address (paper §3.2);
 *  - (the atomic-op shadow window lives on the NIC's atomic unit, see
 *    nic/atomic_unit.hh).
 */

#ifndef ULDMA_DMA_DMA_PARAMS_HH
#define ULDMA_DMA_DMA_PARAMS_HH

#include "cap/cap_params.hh"
#include "iommu/iommu_params.hh"
#include "mem/addr_range.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"
#include "util/types.hh"
#include "vm/layout.hh"

namespace uldma {

/** Which user-level initiation protocol the engine implements. */
enum class EngineMode : std::uint8_t
{
    /**
     * Two-access STORE size TO shadow(dst); LOAD status FROM
     * shadow(src) protocol.  Used by: SHRIMP-2 (paper §2.5, with the
     * kernel invalidation hook), FLASH (§2.6, with the kernel
     * current-process notification hook), PAL code (§2.7, atomicity by
     * uninterruptible execution), and extended shadow addressing
     * (§3.2, with ctxIdBits > 0 and checkCtxId).
     */
    ShadowPair,
    /** Key-based register contexts (paper §3.1, figure 3). */
    KeyBased,
    /** 3-instruction repeated-passing (paper §3.3; exploitable, fig 5). */
    Repeated3,
    /** 4-instruction repeated-passing (paper §3.3; exploitable, fig 6). */
    Repeated4,
    /** 5-instruction repeated-passing (paper §3.3, figure 7; safe). */
    Repeated5,
    /** SHRIMP-1 mapped-out pages (paper §2.4). */
    MappedOut,
};

const char *toString(EngineMode mode);

/** Return codes delivered through shadow/context reads. */
namespace dmastatus {
/** Initiation succeeded / transfer complete. */
inline constexpr std::uint64_t ok = 0;
/** Sequence accepted so far (intermediate read of repeated-passing). */
inline constexpr std::uint64_t pending = 1;
/** Failure: bad sequence, bad key, mismatched context, bad argument. */
inline constexpr std::uint64_t failure = ~std::uint64_t(0);
} // namespace dmastatus

/** Key payload layout for the key-based protocol (paper §3.1):
 *  STORE key#context_id TO shadow(vaddr).  The low bits carry the
 *  context id, the high bits the secret key ("close to 60 bits"). */
namespace keyfield {
inline constexpr unsigned ctxBits = 3;       ///< up to 8 contexts
inline constexpr unsigned keyShift = 8;
inline constexpr unsigned keyBits = 56;

constexpr std::uint64_t
pack(std::uint64_t key, unsigned ctx)
{
    return (key << keyShift) | (ctx & mask(ctxBits));
}

constexpr unsigned ctxOf(std::uint64_t payload)
{
    return static_cast<unsigned>(payload & mask(ctxBits));
}

constexpr std::uint64_t keyOf(std::uint64_t payload)
{
    return payload >> keyShift;
}
} // namespace keyfield

/** Offsets within a register-context page. */
namespace ctxpage {
/** Stores land on the size register; loads read remaining/status. */
inline constexpr Addr sizeReg = 0x0;
/** Ring doorbell: a store of key#context_id arms the context's
 *  descriptor ring (docs/RING.md).  Loads read the drain progress. */
inline constexpr Addr ringDoorbell = 0x8;
} // namespace ctxpage

/**
 * In-memory layout of one ring descriptor (docs/RING.md).  Descriptors
 * live in plain user memory; the engine reads them with uncosted
 * functional accesses during a doorbell drain and retires each one by
 * rewriting its control word.  The control word is written *last* by
 * the user (SNIPPETS.md Snippet 2's "control word written last"
 * idiom): a descriptor without ctrl::valid terminates the drain.
 */
namespace ringdesc {
inline constexpr Addr srcOff = 0x00;   ///< source physical address
inline constexpr Addr dstOff = 0x08;   ///< destination physical address
inline constexpr Addr sizeOff = 0x10;  ///< transfer size in bytes
inline constexpr Addr ctrlOff = 0x18;  ///< control/valid word
inline constexpr Addr descBytes = 0x20;
/** Bytes of one completion record (0 = pending, dmastatus on retire). */
inline constexpr Addr cplBytes = 0x8;

namespace ctrl {
inline constexpr std::uint64_t valid = 0x1;  ///< descriptor armed
inline constexpr std::uint64_t fence = 0x2;  ///< flush: complete after
                                             ///< all prior transfers
inline constexpr std::uint64_t done = 0x4;   ///< engine: retired ok
inline constexpr std::uint64_t error = 0x8;  ///< engine: rejected
} // namespace ctrl

/** Completion policy encoded in the ringConfig register. */
inline constexpr std::uint64_t policyPolling = 0;
inline constexpr std::uint64_t policyCoalesce = 1;

/** ringConfig register layout: slots | policy << 8 | coalesce << 16. */
constexpr std::uint64_t
packConfig(std::uint64_t slots, std::uint64_t policy,
           std::uint64_t coalesce)
{
    return slots | (policy << 8) | (coalesce << 16);
}

constexpr std::uint64_t slotsOf(std::uint64_t cfg) { return cfg & 0xff; }
constexpr std::uint64_t policyOf(std::uint64_t cfg)
{
    return (cfg >> 8) & 0xff;
}
constexpr std::uint64_t coalesceOf(std::uint64_t cfg)
{
    return (cfg >> 16) & 0xff;
}
} // namespace ringdesc

/** Offsets within the kernel register block (figure 1's registers). */
namespace kregs {
/**
 * Kernel-channel start delay in ticks, written once at boot: the
 * simulator charges syscall time as a lump when the trap returns, but
 * the engine's SIZE write physically happens after the kernel's
 * entry + translation work, so transfers on the kernel channel begin
 * this long after the trap instant.  Keeps the data's wall-clock
 * position honest without splitting the syscall into timed phases.
 */
inline constexpr Addr startDelay = 0x58;
inline constexpr Addr source = 0x00;
inline constexpr Addr destination = 0x08;
inline constexpr Addr size = 0x10;       ///< writing starts the DMA
inline constexpr Addr status = 0x18;     ///< remaining bytes of kernel DMA
/** FLASH hook: the OS writes the running process's tag here. */
inline constexpr Addr osProcessTag = 0x20;
/** SHRIMP-2 hook: any write aborts a half-initiated user DMA. */
inline constexpr Addr invalidate = 0x28;
/** Key management: the OS writes keys via keyCtxSelect/keyValue. */
inline constexpr Addr keyCtxSelect = 0x30;
inline constexpr Addr keyValue = 0x38;
/** Context ownership: clears one register context. */
inline constexpr Addr ctxReset = 0x40;
/** Mapped-out table management (SHRIMP-1): pfn / node+pfn pair. */
inline constexpr Addr mapOutPfn = 0x48;
inline constexpr Addr mapOutTarget = 0x50;
/** Descriptor-ring management (docs/RING.md): the OS selects a
 *  context, programs the ring/completion base addresses, then commits
 *  slot count + completion policy via ringConfig.  The frame pair
 *  appends one authorized physical frame span to the context's
 *  ring-DMA rights table (base write latches, limit write commits). */
inline constexpr Addr ringCtxSelect = 0x60;
inline constexpr Addr ringBase = 0x68;
inline constexpr Addr ringCplBase = 0x70;
inline constexpr Addr ringConfig = 0x78;
inline constexpr Addr ringFrameBase = 0x80;
inline constexpr Addr ringFrameLimit = 0x88;
/** IOMMU management (docs/IOMMU.md): the OS selects a context and an
 *  IOVA, then commits a mapping / unmap / pin.  iommuMapEntry carries
 *  the physical frame address with permission bits in the low bits
 *  (see iommumap below); iommuStatus reads back whether the last
 *  operation succeeded (dmastatus::ok / dmastatus::failure), which is
 *  how the kernel learns about pin-budget exhaustion. */
inline constexpr Addr iommuCtxSelect = 0x90;
inline constexpr Addr iommuIova = 0x98;
inline constexpr Addr iommuMapEntry = 0xA0;
inline constexpr Addr iommuUnmap = 0xA8;
inline constexpr Addr iommuPin = 0xB0;
inline constexpr Addr iommuStatus = 0xB8;
/** Capability-table management (docs/CAPABILITIES.md): the OS selects
 *  a slot, appends authorized frame spans (base write latches, limit
 *  write commits one span), sets rights + rate class via capConfig,
 *  and arms the slot by writing its secret to capSecret.  capOp
 *  carries lifecycle operations (capop below); capStatus reads back
 *  whether the last capability operation succeeded. */
inline constexpr Addr capSlotSelect = 0xC0;
inline constexpr Addr capSpanBase = 0xC8;
inline constexpr Addr capSpanLimit = 0xD0;
inline constexpr Addr capConfig = 0xD8;
inline constexpr Addr capSecret = 0xE0;
inline constexpr Addr capOp = 0xE8;
inline constexpr Addr capStatus = 0xF0;
inline constexpr Addr blockSize = 0x100;
static_assert(blockSize <= pageSize);
} // namespace kregs

/** Bit layout of the kregs::iommuMapEntry payload.  Pages are 8 KiB,
 *  so the low 13 bits of the frame address are free for flags. */
namespace iommumap {
inline constexpr std::uint64_t read = 1 << 0;
inline constexpr std::uint64_t write = 1 << 1;
inline constexpr std::uint64_t pin = 1 << 2;
inline constexpr std::uint64_t flagMask = read | write | pin;
} // namespace iommumap

/** kregs::capOp operations. */
namespace capop {
/** Bump the slot's generation: every outstanding capword fails closed
 *  (including queued and in-flight transfers, which are cancelled). */
inline constexpr std::uint64_t revoke = 1;
/** Tear the slot down entirely (process exit). */
inline constexpr std::uint64_t invalidate = 2;
} // namespace capop

/** kregs::capConfig layout: span rights in the low nibble
 *  (caprights::*), the arbiter rate class above them. */
namespace capconfig {
constexpr std::uint64_t
pack(std::uint64_t rights, unsigned rate_class)
{
    return (rights & 0xf) | (std::uint64_t(rate_class) << 4);
}
constexpr std::uint64_t rightsOf(std::uint64_t cfg) { return cfg & 0xf; }
constexpr unsigned rateClassOf(std::uint64_t cfg)
{
    return static_cast<unsigned>((cfg >> 4) & 0xf);
}
} // namespace capconfig

/** User-level transfers may not cross a page boundary (the shadow
 *  mapping only proves rights to one page); kernel transfers may. */
inline constexpr Addr userMaxTransfer = pageSize;
/** Upper bound for kernel-initiated transfers. */
inline constexpr Addr kernelMaxTransfer = 1 << 20;

/** Full engine configuration. */
struct DmaEngineParams
{
    EngineMode mode = EngineMode::ShadowPair;

    /** CONTEXT_ID bits carved out of the shadow physical address
     *  (paper §3.2 envisions 1-2 bits).  In ShadowPair mode the engine
     *  keeps one argument latch per CONTEXT_ID value, which is the
     *  §3.2 matching rule in hardware form. */
    unsigned ctxIdBits = 0;

    /** FLASH baseline (paper §2.6): the latch records the OS-announced
     *  process tag and the completing LOAD must observe the same tag.
     *  Requires the kernel context-switch hook that writes
     *  kregs::osProcessTag — i.e. a kernel modification. */
    bool flashTagCheck = false;

    /** Number of register contexts (paper §3.1 suggests 4 to 8). */
    unsigned numContexts = 4;

    /**
     * Fault injection for the model checker (src/check): weaken the
     * repeated-passing sequence recognizer so mid-sequence accesses are
     * accepted without the §3.3 same-address checks (the new address is
     * adopted instead of resetting).  This reproduces the vulnerable
     * recognizer the paper argues against; never set outside tests.
     */
    bool weakRecognizer = false;

    /**
     * Fault injection for the model checker (src/check): disable the
     * per-context authorized-frame check on ring descriptors, so a
     * process that can arm its own ring can name *any* physical frame
     * in a descriptor.  This is the vulnerability the ring-isolation
     * invariant exists to catch; never set outside tests.
     */
    bool weakRing = false;

    /**
     * Fault injection for the model checker (src/check): on an IOMMU
     * translation fault, fall back to interpreting the descriptor's
     * address as a raw physical address instead of faulting.  This is
     * the translation bypass an IOMMU exists to rule out; never set
     * outside tests.
     */
    bool weakIommu = false;

    /**
     * Fault injection for the model checker (src/check): accept every
     * capability presentation without the secret/generation/span
     * validation — any capword starts the transfer it names.  This is
     * exactly what an unforgeable capability exists to rule out; never
     * set outside tests.
     */
    bool weakCap = false;

    /** Address-translation unit between the engine and the bus.  When
     *  iommu.enabled, ring descriptors carry user virtual addresses
     *  (IOVAs) and the engine scatter-gathers them into per-page
     *  physical segments (docs/IOMMU.md).  Disabled by default: the
     *  engine is then byte-identical to the pre-IOMMU model. */
    IommuParams iommu;

    /** Capability-gated initiation family (docs/CAPABILITIES.md).
     *  When cap.enabled the engine decodes one presentation page per
     *  capability slot at capPagesBase and arbitrates validated
     *  presentations per rate class.  Disabled by default: the engine
     *  is then byte-identical to the pre-capability model. */
    CapParams cap;

    /** Size of the whole shadow window including CONTEXT_ID bits. */
    Addr shadowWindowSize() const { return shadowCoverage << ctxIdBits; }

    /**
     * shadow(paddr) for context @p ctx: the physical address a shadow
     * page-table mapping points at (paper §2.3/§3.2).
     */
    Addr
    shadowAddr(Addr paddr, unsigned ctx = 0) const
    {
        ULDMA_ASSERT(paddr < shadowCoverage,
                     "paddr 0x", std::hex, paddr,
                     " not representable in shadow window");
        ULDMA_ASSERT(ctx < (1u << ctxIdBits) || ctx == 0,
                     "context id out of range");
        return dmaShadowBase + (Addr(ctx) << shadowCoverageShift) + paddr;
    }

    /** Inverse of shadowAddr: recover (paddr, ctx). */
    void
    decodeShadow(Addr shadow_paddr, Addr &paddr, unsigned &ctx) const
    {
        const Addr offset = shadow_paddr - dmaShadowBase;
        paddr = offset & (shadowCoverage - 1);
        ctx = static_cast<unsigned>(offset >> shadowCoverageShift);
    }
};

} // namespace uldma

#endif // ULDMA_DMA_DMA_PARAMS_HH
