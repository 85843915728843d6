#include "sim/trace.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "sim/json.hh"
#include "sim/ticks.hh"

namespace uldma::trace {

namespace {

std::set<std::string> &
flags()
{
    static std::set<std::string> instance;
    return instance;
}

bool allEnabled = false;

} // namespace

void
enable(const std::string &flag)
{
    flags().insert(flag);
}

void
disable(const std::string &flag)
{
    flags().erase(flag);
}

void
enableAll()
{
    allEnabled = true;
}

void
disableAll()
{
    allEnabled = false;
    flags().clear();
}

bool
enabled(const std::string &flag)
{
    if (allEnabled)
        return true;
    const auto &f = flags();
    return !f.empty() && f.count(flag) != 0;
}

void
emit(const std::string &flag, Tick when, const std::string &msg)
{
    std::fprintf(stderr, "%12llu: [%s] %s\n",
                 static_cast<unsigned long long>(when), flag.c_str(),
                 msg.c_str());
}

// ---------------------------------------------------------------------
// Structured event capture
// ---------------------------------------------------------------------

namespace detail { thread_local bool eventCaptureEnabled = false; }

namespace {

/** One exported event and the process lane ("pid") it is drawn in. */
struct ChromeRow
{
    const TraceEvent *event;
    std::uint64_t pid;
};

/**
 * Write @p rows, in order, as one chrome://tracing / Perfetto JSON
 * document: one tracing "thread" per component, numbered by first
 * appearance (deterministic: depends only on the rows), then one
 * instant event per row.
 */
void
writeChromeTracing(std::ostream &os, const std::vector<ChromeRow> &rows,
                   std::uint64_t recorded, std::uint64_t dropped,
                   std::uint64_t filtered)
{
    std::map<std::string, std::uint64_t> tids;
    for (const ChromeRow &row : rows)
        tids.emplace(row.event->component, tids.size());

    json::Writer w(os, /*pretty=*/false);
    w.beginObject();
    w.member("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.beginArray();
    for (const auto &[component, tid] : tids) {
        w.beginObject();
        w.member("name", "thread_name");
        w.member("ph", "M");
        w.member("pid", std::uint64_t{0});
        w.member("tid", tid);
        w.key("args");
        w.beginObject();
        w.member("name", component);
        w.endObject();
        w.endObject();
    }
    for (const ChromeRow &row : rows) {
        const TraceEvent &e = *row.event;
        w.beginObject();
        w.member("name", e.kind);
        w.member("cat", e.component);
        w.member("ph", "i");
        w.member("s", "t");
        w.member("ts", ticksToUs(e.tick));
        w.member("pid", row.pid);
        w.member("tid", tids.at(e.component));
        if (!e.payload.empty()) {
            w.key("args");
            w.beginObject();
            w.member("detail", e.payload);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.member("meta_recorded", recorded);
    w.member("meta_dropped", dropped);
    w.member("meta_filtered", filtered);
    w.endObject();
    os << '\n';
}

} // namespace

void
EventRing::enable(std::size_t capacity)
{
    ULDMA_ASSERT(capacity > 0, "event ring needs at least one slot");
    ring_.assign(capacity, TraceEvent{});
    next_ = 0;
    count_ = 0;
    recorded_ = 0;
    enabled_ = true;
    detail::eventCaptureEnabled = true;
}

void
EventRing::disable()
{
    enabled_ = false;
    detail::eventCaptureEnabled = false;
    ring_.clear();
    ring_.shrink_to_fit();
    next_ = 0;
    count_ = 0;
    recorded_ = 0;
    filterActive_ = false;
    filterComponentPrefix_.clear();
    filterKind_.clear();
    filteredOut_ = 0;
}

void
EventRing::setFilter(std::string component_prefix, std::string kind)
{
    filterComponentPrefix_ = std::move(component_prefix);
    filterKind_ = std::move(kind);
    filterActive_ = true;
    filteredOut_ = 0;
}

void
EventRing::clearFilter()
{
    filterActive_ = false;
    filterComponentPrefix_.clear();
    filterKind_.clear();
}

void
EventRing::record(const std::string &component, Tick tick,
                  const std::string &kind, std::string payload)
{
    if (!enabled_)
        return;
    if (filterActive_) {
        const bool componentOk =
            component.compare(0, filterComponentPrefix_.size(),
                              filterComponentPrefix_) == 0;
        if (!componentOk || (!filterKind_.empty() && kind != filterKind_)) {
            ++filteredOut_;
            return;
        }
    }
    TraceEvent &slot = ring_[next_];
    slot.tick = tick;
    slot.component = component;
    slot.kind = kind;
    slot.payload = std::move(payload);
    next_ = (next_ + 1) % ring_.size();
    if (count_ < ring_.size())
        ++count_;
    ++recorded_;
}

const TraceEvent &
EventRing::at(std::size_t i) const
{
    ULDMA_ASSERT(i < count_, "event ring index out of range");
    const std::size_t oldest = (next_ + ring_.size() - count_) %
                               ring_.size();
    return ring_[(oldest + i) % ring_.size()];
}

void
EventRing::exportChromeTracing(std::ostream &os) const
{
    std::vector<ChromeRow> rows;
    rows.reserve(count_);
    for (std::size_t i = 0; i < count_; ++i)
        rows.push_back({&at(i), 0});
    writeChromeTracing(os, rows, recorded(), dropped(), filteredOut());
}

std::vector<TraceEvent>
EventRing::snapshot() const
{
    std::vector<TraceEvent> events;
    events.reserve(count_);
    for (std::size_t i = 0; i < count_; ++i)
        events.push_back(at(i));
    return events;
}

void
exportMergedChromeTracing(std::ostream &os,
                          const std::vector<ShardTrace> &shards)
{
    std::vector<ChromeRow> rows;
    std::uint64_t recorded = 0, dropped = 0, filtered = 0;
    for (const ShardTrace &shard : shards) {
        recorded += shard.recorded;
        dropped += shard.dropped;
        filtered += shard.filteredOut;
        for (const TraceEvent &event : shard.events)
            rows.push_back({&event, shard.shard});
    }
    // Stable merge by (tick, shard, capture order): deterministic for
    // a fixed set of shard captures, independent of thread scheduling.
    std::stable_sort(rows.begin(), rows.end(),
                     [](const ChromeRow &a, const ChromeRow &b) {
                         if (a.event->tick != b.event->tick)
                             return a.event->tick < b.event->tick;
                         return a.pid < b.pid;
                     });
    writeChromeTracing(os, rows, recorded, dropped, filtered);
}

EventRing &
eventRing()
{
    static thread_local EventRing instance;
    return instance;
}

} // namespace uldma::trace
