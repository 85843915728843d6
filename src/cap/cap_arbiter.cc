#include "cap/cap_arbiter.hh"

#include "util/fnv.hh"
#include "util/logging.hh"

namespace uldma {

CapArbiter::CapArbiter(std::string name, unsigned num_classes)
    : name_(std::move(name)), statsGroup_(name_)
{
    ULDMA_ASSERT(num_classes >= 1 && num_classes <= 8,
                 "arbiter rate classes must be in [1, 8]");
    queues_.resize(num_classes);
    credits_.resize(num_classes);
    refill();
    statsGroup_.addScalar("enqueues", &enqueues_,
                          "presentations queued for bandwidth");
    statsGroup_.addScalar("dispatches", &dispatches_,
                          "presentations granted the pipeline");
    statsGroup_.addScalar("purged", &purged_,
                          "queued presentations dropped by revocation");
    statsGroup_.addScalar("credit_refills", &refills_,
                          "weighted-round-robin credit refills");
    statsGroup_.addAverage("queue_wait_ticks", &queueWait_,
                           "enqueue-to-dispatch wait per presentation");
}

void
CapArbiter::refill()
{
    for (unsigned c = 0; c < credits_.size(); ++c)
        credits_[c] = weightOf(c);
    ++refills_;
}

void
CapArbiter::enqueue(unsigned rate_class, CapRequest req)
{
    ULDMA_ASSERT(rate_class < queues_.size(),
                 "rate class out of range");
    queues_[rate_class].push_back(std::move(req));
    ++enqueues_;
}

bool
CapArbiter::empty() const
{
    for (const auto &q : queues_)
        if (!q.empty())
            return false;
    return true;
}

std::size_t
CapArbiter::depth() const
{
    std::size_t n = 0;
    for (const auto &q : queues_)
        n += q.size();
    return n;
}

bool
CapArbiter::dispatch(Tick now, CapRequest &out)
{
    if (empty())
        return false;
    const unsigned n = queues_.size();
    for (unsigned pass = 0; pass < 2; ++pass) {
        for (unsigned i = 0; i < n; ++i) {
            const unsigned c = (cursor_ + i) % n;
            if (queues_[c].empty() || credits_[c] == 0)
                continue;
            out = std::move(queues_[c].front());
            queues_[c].pop_front();
            --credits_[c];
            // Keep the grant on this class while it has credit left;
            // move on once the weight is spent.
            cursor_ = credits_[c] == 0 ? (c + 1) % n : c;
            ++dispatches_;
            queueWait_.sample(static_cast<double>(now - out.enqueued));
            return true;
        }
        // Backlogged classes exist but every one is out of credit:
        // start the next round.
        refill();
    }
    ULDMA_PANIC("weighted round-robin failed to pick from a "
                "non-empty arbiter");
}

std::vector<CapRequest>
CapArbiter::purgeSlot(unsigned slot)
{
    std::vector<CapRequest> dropped;
    for (auto &q : queues_) {
        for (std::size_t i = 0; i < q.size();) {
            if (q[i].slot == slot) {
                dropped.push_back(std::move(q[i]));
                q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
                ++purged_;
            } else {
                ++i;
            }
        }
    }
    return dropped;
}

std::uint64_t
CapArbiter::stateHash() const
{
    Fnv1a f;
    f.mix(cursor_);
    for (unsigned c = 0; c < queues_.size(); ++c) {
        f.mix(credits_[c]);
        for (const CapRequest &r : queues_[c]) {
            f.mix(r.slot);
            f.mix(r.src);
            f.mix(r.dst);
            f.mix(r.size);
            f.mix(r.enqueued);
        }
    }
    return f.h;
}

} // namespace uldma
