#include "check/invariants.hh"

#include <algorithm>
#include <sstream>

#include "dma/dma_params.hh"
#include "util/logging.hh"

namespace uldma::check {
namespace {

std::string
describeTransfer(const DmaEngine::InitiationRecord &rec)
{
    std::ostringstream os;
    os << std::hex << "0x" << rec.src << " -> 0x" << rec.dst << std::dec
       << " size " << rec.size << " ctx " << rec.ctx;
    return os.str();
}

bool
withinRights(const std::vector<FrameSpan> &spans, Addr base, Addr bytes,
             bool need_write)
{
    for (const FrameSpan &s : spans) {
        if (base >= s.base && base + bytes <= s.base + s.bytes)
            return need_write ? s.write : s.read;
    }
    return false;
}

/** The spans @p frames holds under @p key; none when it holds none. */
template <typename Key>
const std::vector<FrameSpan> &
spansOf(const std::map<Key, std::vector<FrameSpan>> &frames, Key key)
{
    static const std::vector<FrameSpan> none;
    auto it = frames.find(key);
    return it != frames.end() ? it->second : none;
}

/** True when @p rec reads only readable and writes only writable
 *  bytes of @p spans. */
bool
staysWithin(const std::vector<FrameSpan> &spans,
            const DmaEngine::InitiationRecord &rec)
{
    return withinRights(spans, rec.src, rec.size, /*need_write=*/false) &&
           withinRights(spans, rec.dst, rec.size, /*need_write=*/true);
}

/** True when @p a declares that @p pid asked for exactly @p rec. */
bool
declared(const RunArtifacts &a, Pid pid,
         const DmaEngine::InitiationRecord &rec)
{
    return std::any_of(a.allowed.begin(), a.allowed.end(),
                       [&](const AllowedTransfer &t) {
                           return t.pid == pid && t.src == rec.src &&
                                  t.dst == rec.dst && t.size == rec.size;
                       });
}

} // namespace

std::vector<Violation>
checkInvariants(const RunArtifacts &a)
{
    std::vector<Violation> out;

    for (std::size_t i = 0; i < a.initiations.size(); ++i) {
        const DmaEngine::InitiationRecord &rec = a.initiations[i];
        if (rec.viaKernel)
            continue;   // kernel-channel transfers are the OS's business

        // initiation-atomicity: both arguments from the same process.
        const bool uniform =
            !rec.contributors.empty() &&
            std::all_of(rec.contributors.begin(), rec.contributors.end(),
                        [&](Pid p) { return p == rec.contributors.front(); });
        if (!uniform) {
            std::ostringstream d;
            d << "transfer #" << i << " (" << describeTransfer(rec)
              << ") mixed contributors:";
            for (Pid p : rec.contributors)
                d << " pid" << p;
            out.push_back({"initiation-atomicity", d.str()});
        }
        if (rec.contributors.empty())
            continue;   // nothing below is attributable
        const Pid initiator = rec.contributors.front();

        // protection: both endpoints inside the initiator's frames.
        const std::vector<FrameSpan> &spans = spansOf(a.frames, initiator);
        if (!withinRights(spans, rec.src, rec.size, /*need_write=*/false)) {
            std::ostringstream d;
            d << "transfer #" << i << " reads 0x" << std::hex << rec.src
              << std::dec << "+" << rec.size
              << " outside pid" << initiator << "'s readable frames";
            out.push_back({"protection", d.str()});
        }
        if (!withinRights(spans, rec.dst, rec.size, /*need_write=*/true)) {
            std::ostringstream d;
            d << "transfer #" << i << " writes 0x" << std::hex << rec.dst
              << std::dec << "+" << rec.size
              << " outside pid" << initiator << "'s writable frames";
            out.push_back({"protection", d.str()});
        }

        // intent-match: some process asked for exactly this transfer.
        if (!declared(a, initiator, rec)) {
            out.push_back({"intent-match",
                           "transfer #" + std::to_string(i) + " (" +
                               describeTransfer(rec) +
                               ") matches no declared intent of pid" +
                               std::to_string(initiator)});
        }

        // ring-isolation: a descriptor-ring transfer stays inside the
        // frames the kernel authorized for its context, and the ring's
        // context belongs to the process that rang the doorbell.
        // iommu-isolation replaces the first half when the engine
        // translated the descriptor's virtual addresses: the recorded
        // physical endpoints must lie inside the frames mapped (with
        // matching rights) into this context's I/O page table.  A weak
        // engine that bypasses a translation fault records the raw
        // untranslated address, which no table entry covers.
        if (rec.viaRing) {
            const bool io = a.iommuEnabled;
            const auto &granted = io ? a.iommuFrames : a.ringFrames;
            if (!staysWithin(spansOf(granted, rec.ctx), rec)) {
                std::ostringstream d;
                d << "ring transfer #" << i << " (" << describeTransfer(rec)
                  << ") escapes ctx " << rec.ctx
                  << (io ? "'s I/O page table" : "'s authorized ring frames");
                out.push_back(
                    {io ? "iommu-isolation" : "ring-isolation", d.str()});
            }
            auto ring_owner = a.ctxOwner.find(rec.ctx);
            if (ring_owner != a.ctxOwner.end() &&
                initiator != ring_owner->second) {
                std::ostringstream d;
                d << "ring transfer #" << i << " enqueued by pid"
                  << initiator << " into ctx " << rec.ctx
                  << "'s ring (owner pid" << ring_owner->second << ")";
                out.push_back({"ring-isolation", d.str()});
            }
        }

        // Capability invariants (docs/CAPABILITIES.md), keyed on the
        // engine's viaCap record: only the slot's owner or a
        // currently-valid delegate may initiate through it, a revoked
        // slot works for nobody but the re-armed owner, and both
        // endpoints stay inside the slot's granted frame spans.
        if (rec.viaCap && a.capEnabled) {
            auto cap_owner = a.capSlotOwner.find(rec.capSlot);
            const bool is_owner = cap_owner != a.capSlotOwner.end() &&
                                  initiator == cap_owner->second;
            auto dl_it = a.capDelegates.find(rec.capSlot);
            const bool is_delegate =
                dl_it != a.capDelegates.end() &&
                std::find(dl_it->second.begin(), dl_it->second.end(),
                          initiator) != dl_it->second.end();
            if (!is_owner && !is_delegate) {
                std::ostringstream d;
                d << "cap transfer #" << i << " (" << describeTransfer(rec)
                  << ") through slot " << rec.capSlot
                  << " initiated by pid" << initiator
                  << ", which was never issued that capability";
                if (cap_owner != a.capSlotOwner.end())
                    d << " (owner pid" << cap_owner->second << ")";
                out.push_back({"cap-forgery", d.str()});
            }
            const bool revoked =
                std::find(a.capRevoked.begin(), a.capRevoked.end(),
                          rec.capSlot) != a.capRevoked.end();
            if (revoked && !is_owner) {
                std::ostringstream d;
                d << "cap transfer #" << i << " went through revoked slot "
                  << rec.capSlot << " on behalf of ex-delegate pid"
                  << initiator;
                out.push_back({"cap-revocation", d.str()});
            }
            if (!staysWithin(spansOf(a.capSpans, rec.capSlot), rec)) {
                std::ostringstream d;
                d << "cap transfer #" << i << " (" << describeTransfer(rec)
                  << ") escapes slot " << rec.capSlot
                  << "'s granted frame spans";
                out.push_back({"cap-isolation", d.str()});
            }
        }

        // key-secrecy: a granted context only ever works for its owner.
        auto owner_it = a.ctxOwner.find(rec.ctx);
        if (owner_it != a.ctxOwner.end()) {
            for (Pid p : rec.contributors) {
                if (p != owner_it->second) {
                    std::ostringstream d;
                    d << "transfer #" << i << " went through ctx "
                      << rec.ctx << " (owner pid" << owner_it->second
                      << ") with a contribution from pid" << p;
                    out.push_back({"key-secrecy", d.str()});
                    break;
                }
            }
        }
    }

    // status-honesty: success means the victim's transfer really
    // happened and the payload arrived.
    if (a.victimFinished && a.victimStatus != dmastatus::failure) {
        const bool victim_started = std::any_of(
            a.initiations.begin(), a.initiations.end(),
            [&](const DmaEngine::InitiationRecord &rec) {
                return !rec.contributors.empty() &&
                       rec.contributors.front() == a.victimPid &&
                       declared(a, a.victimPid, rec);
            });
        if (!victim_started) {
            out.push_back({"status-honesty",
                           "victim saw success but its transfer never "
                           "started"});
        } else if (!a.payloadDelivered) {
            out.push_back({"status-honesty",
                           "victim saw success but the destination buffer "
                           "does not hold the source pattern"});
        }
    }

    if (!a.machineFinished)
        out.push_back({"no-progress", "a process failed to finish"});

    return out;
}

RunArtifacts
grantArtifacts(const Kernel &kernel, const DmaEngine &engine)
{
    RunArtifacts a;
    a.initiations = engine.initiations();
    a.iommuEnabled = engine.iommu() != nullptr;
    a.capEnabled = engine.cap() != nullptr;

    auto own = [&](std::map<unsigned, Pid> &owners, const char *what,
                   const Grant &g) {
        const auto [it, fresh] = owners.emplace(g.id, g.pid);
        ULDMA_ASSERT(fresh || it->second == g.pid, kernel.name(), ": ",
                     what, " ", g.id, " was granted to pid", it->second,
                     " and to pid", g.pid);
    };
    std::map<unsigned, Rights> cap_rights;   // spans take their slot's
    for (const Grant &g : kernel.grants()) {
        const Rights r =
            g.kind == Grant::Kind::CapSpan ? cap_rights.at(g.id) : g.rights;
        const FrameSpan span{g.base, g.bytes, allows(r, Rights::Read),
                             allows(r, Rights::Write)};
        switch (g.kind) {
          case Grant::Kind::Frames: a.frames[g.pid].push_back(span); break;
          case Grant::Kind::Context: own(a.ctxOwner, "context id", g); break;
          case Grant::Kind::RingFrames:
            a.ringFrames[g.id].push_back(span);
            break;
          case Grant::Kind::IommuPage:
            a.iommuFrames[g.id].push_back(span);
            break;
          case Grant::Kind::CapSlot:
            own(a.capSlotOwner, "capability slot", g);
            cap_rights[g.id] = g.rights;
            break;
          case Grant::Kind::CapSpan: a.capSpans[g.id].push_back(span); break;
          case Grant::Kind::CapDelegate:
            a.capDelegates[g.id].push_back(g.pid);
            break;
          case Grant::Kind::CapRevoke:
            a.capDelegates.erase(g.id);
            a.capRevoked.push_back(g.id);
            break;
        }
    }
    return a;
}

} // namespace uldma::check
