/**
 * @file
 * Address-space layout constants for the simulated machine, modeled on
 * a DEC Alpha 3000-class workstation: 8 KiB pages, DRAM at physical 0,
 * the NI board's windows above it.
 */

#ifndef ULDMA_VM_LAYOUT_HH
#define ULDMA_VM_LAYOUT_HH

#include "util/bitfield.hh"
#include "util/types.hh"

namespace uldma {

/** Page size: 8 KiB, as on the Alpha. */
inline constexpr Addr pageSize = 8 * 1024;
inline constexpr unsigned pageShift = 13;

static_assert(Addr(1) << pageShift == pageSize);

/** Page-align helpers. */
constexpr Addr pageAlignDown(Addr a) { return roundDown(a, pageSize); }
constexpr Addr pageAlignUp(Addr a) { return roundUp(a, pageSize); }
constexpr Addr pageOffset(Addr a) { return a & (pageSize - 1); }
constexpr Addr pageNumber(Addr a) { return a >> pageShift; }

/** Default start of a process's private data region (virtual). */
inline constexpr Addr userRegionBase = 0x0001'0000;

/** Virtual base where the kernel maps DMA shadow pages for a process. */
inline constexpr Addr shadowVirtualBase = 0x4000'0000'0000;

/** Virtual base where the kernel maps atomic-op shadow pages. */
inline constexpr Addr atomicVirtualBase = 0x6000'0000'0000;

/** Virtual base where register-context pages are mapped. */
inline constexpr Addr contextVirtualBase = 0x7000'0000'0000;

/** Virtual base where capability presentation pages are mapped
 *  (docs/CAPABILITIES.md): slot N's page lands at
 *  capVirtualBase + N * pageSize, for owner and delegates alike. */
inline constexpr Addr capVirtualBase = 0x7100'0000'0000;

/// @name Physical address map of the NI board.
/// The board's address decoders fix these windows (paper §2.3, §3.2,
/// §3.4).  Bus::attach checks the windows whose size a caller sets
/// (DRAM, the remote windows, the capability pages) when a machine is
/// built; the asserts below check the rest at their largest sizes.
/// @{

/** Remote-memory windows (nic/network_interface.hh): node n's DRAM at
 *  remoteWindowBase + n * NicParams::windowSize, inside the shadow
 *  coverage so shadow addressing reaches remote memory too. */
inline constexpr Addr remoteWindowBase = 0x0800'0000;
/** Nodes the remote-window region addresses. */
inline constexpr unsigned maxNodes = 4;

/** DMA engine: the kernel register block of figure 1, one
 *  register-context page per context (§3.1), one capability
 *  presentation page per slot (docs/CAPABILITIES.md) and the shadow
 *  window (§2.3). */
inline constexpr Addr dmaKernelRegsBase = 0x4000'0000;
inline constexpr Addr dmaContextPagesBase = 0x4001'0000;
inline constexpr Addr capPagesBase = 0x4200'0000;
inline constexpr Addr dmaShadowBase = 0x8000'0000;

/** Atomic unit (§3.5): kernel register block, register-context pages
 *  and the atomic-op shadow window. */
inline constexpr Addr atomicKernelRegsBase = 0x4002'0000;
inline constexpr Addr atomicContextPagesBase = 0x4003'0000;
inline constexpr Addr atomicShadowBase = 0x4'0000'0000;

/** Physical addresses a shadow window represents, in the DMA engine
 *  and the atomic unit alike (DRAM and the remote windows must fit
 *  below it).  CONTEXT_ID bits, and the atomic op, sit above it. */
inline constexpr Addr shadowCoverage = 0x2000'0000;
inline constexpr unsigned shadowCoverageShift = floorLog2(shadowCoverage);

/** Register contexts a device decodes, at most (§3.1: 4 to 8). */
inline constexpr unsigned maxContexts = 8;
/** CONTEXT_ID bits above a shadow address, at most (§3.2: 1 or 2). */
inline constexpr unsigned maxCtxIdBits = 2;
/// @}

static_assert(isPowerOf2(shadowCoverage));
// Each kernel register block decodes at most one page (kregs,
// akregs), each context-page window at most maxContexts pages.
static_assert(dmaKernelRegsBase + pageSize <= dmaContextPagesBase);
static_assert(dmaContextPagesBase + maxContexts * pageSize <=
              atomicKernelRegsBase);
static_assert(atomicKernelRegsBase + pageSize <= atomicContextPagesBase);
static_assert(atomicContextPagesBase + maxContexts * pageSize <=
              capPagesBase);
static_assert(capPagesBase < dmaShadowBase);
static_assert(dmaShadowBase + (shadowCoverage << maxCtxIdBits) <=
              atomicShadowBase);

} // namespace uldma

#endif // ULDMA_VM_LAYOUT_HH
