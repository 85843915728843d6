#include "cap/cap_table.hh"

#include "util/fnv.hh"
#include "util/logging.hh"

namespace uldma {

const char *
toString(CapFault fault)
{
    switch (fault) {
      case CapFault::None: return "none";
      case CapFault::BadSlot: return "bad-slot";
      case CapFault::NotValid: return "not-valid";
      case CapFault::BadSecret: return "bad-secret";
      case CapFault::StaleGeneration: return "stale-generation";
      case CapFault::SpanDenied: return "span-denied";
    }
    return "?";
}

CapTable::CapTable(std::string name, const CapParams &params)
    : name_(std::move(name)), params_(params), statsGroup_(name_)
{
    ULDMA_ASSERT(params_.numSlots >= 1 &&
                     params_.numSlots <= (1u << capfield::slotBits),
                 "capability table size must fit the capword slot field");
    slots_.resize(params_.numSlots);
    statsGroup_.addScalar("installs", &installs_,
                          "capability slots armed by the kernel");
    statsGroup_.addScalar("revocations", &revocations_,
                          "generation bumps (capRevoke)");
    statsGroup_.addScalar("invalidations", &invalidations_,
                          "slots torn down (process exit)");
    statsGroup_.addScalar("checks", &checks_,
                          "presentations validated");
    statsGroup_.addScalar("forged_rejects", &forgedRejects_,
                          "presentations refused on slot/secret mismatch");
    statsGroup_.addScalar("stale_rejects", &staleRejects_,
                          "presentations refused on a stale generation");
    statsGroup_.addScalar("span_rejects", &spanRejects_,
                          "presentations refused on a span escape");
}

bool
CapTable::configure(unsigned slot, std::uint64_t rights,
                    unsigned rate_class)
{
    if (slot >= slots_.size() || rate_class >= params_.rateClasses)
        return false;
    slots_[slot].rights = rights;
    slots_[slot].rateClass = rate_class;
    return true;
}

bool
CapTable::addSpan(unsigned slot, Addr base, Addr limit)
{
    if (slot >= slots_.size() || limit <= base)
        return false;
    Entry &e = slots_[slot];
    if (e.spans.size() >= params_.maxSpansPerSlot)
        return false;
    e.spans.push_back({base, limit});
    return true;
}

bool
CapTable::install(unsigned slot, std::uint64_t secret)
{
    if (slot >= slots_.size())
        return false;
    Entry &e = slots_[slot];
    e.secret = secret & mask(capfield::secretBits);
    e.valid = true;
    ++installs_;
    return true;
}

bool
CapTable::revoke(unsigned slot)
{
    if (slot >= slots_.size() || !slots_[slot].valid)
        return false;
    ++slots_[slot].generation;
    ++revocations_;
    return true;
}

bool
CapTable::invalidate(unsigned slot)
{
    if (slot >= slots_.size())
        return false;
    Entry &e = slots_[slot];
    e.valid = false;
    e.spans.clear();
    e.rights = 0;
    e.rateClass = 0;
    e.secret = 0;
    ++e.generation;
    ++invalidations_;
    return true;
}

bool
CapTable::covered(const Entry &e, std::uint64_t need, Addr base,
                  Addr size) const
{
    if ((e.rights & need) != need)
        return false;
    const Addr end = base + size;
    if (end < base)  // wrap
        return false;
    for (const CapSpan &s : e.spans)
        if (base >= s.base && end <= s.limit)
            return true;
    return false;
}

CapFault
CapTable::check(unsigned slot, std::uint64_t capword, Addr src,
                Addr dst, Addr size)
{
    ++checks_;
    if (slot >= slots_.size())
        return CapFault::BadSlot;
    const Entry &e = slots_[slot];
    if (!e.valid) {
        ++forgedRejects_;
        return CapFault::NotValid;
    }
    if (capfield::slotOf(capword) != slot) {
        ++forgedRejects_;
        return CapFault::BadSecret;
    }
    // Generation before secret: a revocation re-arms the owner with a
    // fresh secret too, so a once-legitimate word that outlived a
    // revoke differs in both fields — classifying on the generation
    // keeps stale_rejects counting revocation races instead of
    // folding them into forgeries.
    if (capfield::genOf(capword) !=
        (e.generation & mask(capfield::genBits))) {
        ++staleRejects_;
        return CapFault::StaleGeneration;
    }
    if (capfield::secretOf(capword) != e.secret) {
        ++forgedRejects_;
        return CapFault::BadSecret;
    }
    if (size == 0 || !covered(e, caprights::read, src, size) ||
        !covered(e, caprights::write, dst, size)) {
        ++spanRejects_;
        return CapFault::SpanDenied;
    }
    return CapFault::None;
}

void
CapTable::recordBytes(unsigned slot, Addr bytes)
{
    ULDMA_ASSERT(slot < slots_.size(), "cap slot out of range");
    slots_[slot].bytes += bytes;
}

double
CapTable::jainIndex() const
{
    double sum = 0.0, sum_sq = 0.0;
    std::uint64_t n = 0;
    for (const Entry &e : slots_) {
        if (e.bytes == 0)
            continue;
        const double x = static_cast<double>(e.bytes);
        sum += x;
        sum_sq += x * x;
        ++n;
    }
    if (n == 0)
        return 0.0;
    return (sum * sum) / (static_cast<double>(n) * sum_sq);
}

std::uint64_t
CapTable::stateHash() const
{
    Fnv1a f;
    for (const Entry &e : slots_) {
        if (!e.valid && e.generation == 0 && e.bytes == 0)
            continue;  // untouched slots contribute nothing
        f.mix(e.valid ? 1 : 0);
        f.mix(e.rights | (std::uint64_t(e.rateClass) << 8));
        f.mix(e.generation);
        f.mix(e.secret);
        f.mix(e.bytes);
        for (const CapSpan &s : e.spans) {
            f.mix(s.base);
            f.mix(s.limit);
        }
    }
    return f.h;
}

} // namespace uldma
