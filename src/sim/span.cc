#include "sim/span.hh"

#include <algorithm>
#include <map>

#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "util/logging.hh"

namespace uldma::span {

namespace detail { thread_local bool spanCaptureEnabled = false; }

const char *
toString(Outcome outcome)
{
    switch (outcome) {
      case Outcome::InFlight: return "in-flight";
      case Outcome::Completed: return "completed";
      case Outcome::Rejected: return "rejected";
      case Outcome::KeyMismatch: return "key-mismatch";
      case Outcome::Aborted: return "aborted";
    }
    return "?";
}

void
Tracker::enable()
{
    spans_.clear();
    nextId_ = 1;
    stagedKernel_ = invalidSpan;
    opened_ = 0;
    enabled_ = true;
    detail::spanCaptureEnabled = true;
}

void
Tracker::disable()
{
    enabled_ = false;
    detail::spanCaptureEnabled = false;
    spans_.clear();
    spans_.shrink_to_fit();
    nextId_ = 1;
    stagedKernel_ = invalidSpan;
    opened_ = 0;
}

SpanId
Tracker::open(const std::string &engine, const std::string &protocol,
              Tick first_access)
{
    if (!enabled_)
        return invalidSpan;
    Span s;
    s.id = nextId_++;
    s.engine = engine;
    s.protocol = protocol;
    s.firstAccess = first_access;
    spans_.push_back(std::move(s));
    ++opened_;
    return spans_.back().id;
}

Span *
Tracker::find(SpanId id)
{
    // Ids are dense and monotonic since the last enable(), so
    // lookup is an index computation off the newest span's id.
    if (!enabled_ || id == invalidSpan || spans_.empty())
        return nullptr;
    const SpanId newest = spans_.back().id;
    if (id > newest || newest - id >= spans_.size())
        return nullptr;
    return &spans_[spans_.size() - 1 - (newest - id)];
}

void
Tracker::recognize(SpanId id, Tick when, unsigned ctx, bool via_kernel,
                   Addr size)
{
    if (Span *s = find(id)) {
        s->recognized = when;
        s->ctx = ctx;
        s->viaKernel = via_kernel;
        s->size = size;
    }
}

void
Tracker::translated(SpanId id, Tick when)
{
    if (Span *s = find(id))
        s->translated = when;
}

void
Tracker::reject(SpanId id, Tick when, Outcome why)
{
    if (Span *s = find(id)) {
        s->outcome = why;
        s->completed = when;
    }
}

void
Tracker::abort(SpanId id, Tick when)
{
    if (Span *s = find(id)) {
        s->outcome = Outcome::Aborted;
        s->completed = when;
    }
}

void
Tracker::queue(SpanId id, Tick when)
{
    if (Span *s = find(id))
        s->queued = when;
}

void
Tracker::busWindow(SpanId id, Tick start, Tick end)
{
    if (Span *s = find(id)) {
        s->busStart = start;
        s->busEnd = end;
    }
}

void
Tracker::setRemote(SpanId id, bool remote)
{
    if (Span *s = find(id))
        s->remote = remote;
}

void
Tracker::complete(SpanId id, Tick when)
{
    if (Span *s = find(id)) {
        s->outcome = Outcome::Completed;
        s->completed = when;
    }
}

SpanId
Tracker::takeStagedKernel()
{
    const SpanId id = stagedKernel_;
    stagedKernel_ = invalidSpan;
    return id;
}

// ---------------------------------------------------------------------
// uldma-spans-v1 export
// ---------------------------------------------------------------------

namespace {

/** Phase durations of one completed span, in microseconds. */
struct Phases
{
    double initiation;
    double translation;  ///< 0 unless the span went through an IOMMU
    double queue;
    double bus;
    double delivery;
    double total;
};

Phases
phasesOf(const Span &s)
{
    // Clamped differences: phase timestamps come from different
    // components, and a sub-cycle clock-rounding skew must not wrap
    // the unsigned subtraction into an absurd duration.
    const auto us = [](Tick later, Tick earlier) {
        return later > earlier ? ticksToUs(later - earlier) : 0.0;
    };
    Phases p;
    p.initiation = us(s.recognized, s.firstAccess);
    p.translation = s.translated ? us(s.translated, s.firstAccess) : 0.0;
    p.queue = us(s.busStart, s.queued);
    p.bus = us(s.busEnd, s.busStart);
    p.delivery = us(s.completed, s.busEnd);
    p.total = us(s.completed, s.firstAccess);
    return p;
}

/** Per-protocol aggregation for the summary block. */
struct ProtocolSummary
{
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t keyMismatch = 0;
    std::uint64_t aborted = 0;
    std::uint64_t inFlight = 0;
    std::vector<double> initiation, queue, bus, delivery, total;
    /** IOMMU translation samples; empty unless spans carry the
     *  translated tick, so non-IOMMU documents are unchanged. */
    std::vector<double> translation;
};

/** Sorts @p samples in place. */
void
writeQuantiles(json::Writer &w, std::vector<double> &samples)
{
    std::sort(samples.begin(), samples.end());
    double sum = 0.0;
    for (double v : samples)
        sum += v;
    w.beginObject();
    w.member("count", static_cast<std::uint64_t>(samples.size()));
    w.member("mean", samples.empty() ? 0.0 : sum / samples.size());
    w.member("min", samples.empty() ? 0.0 : samples.front());
    w.member("max", samples.empty() ? 0.0 : samples.back());
    w.member("p50", stats::percentileOfSorted(samples, 50.0));
    w.member("p90", stats::percentileOfSorted(samples, 90.0));
    w.member("p99", stats::percentileOfSorted(samples, 99.0));
    w.endObject();
}

/** One exported span: its capture, its emitted id and its shard
 *  (-1 = omit the "shard" member, i.e. a single-tracker export). */
struct Row
{
    const Span *span;
    SpanId id;
    int shard;
};

/**
 * Serialisation core shared by the single-tracker and merged exports;
 * @p opened is the total open count across all sources.
 */
void
writeSpansDocument(std::ostream &os, bool pretty,
                   const std::vector<Row> &rows, std::uint64_t opened)
{
    // Protocols keyed by first appearance — deterministic, depends
    // only on the captured spans and their order.  The summary follows
    // the span array, so one pass writes the spans and aggregates it.
    std::vector<std::string> order;
    std::map<std::string, ProtocolSummary> summaries;

    json::Writer w(os, pretty);
    w.beginObject();
    w.member("schema", "uldma-spans-v1");
    w.member("opened", opened);

    w.key("spans");
    w.beginArray();
    for (const Row &row : rows) {
        const Span &s = *row.span;
        auto [it, inserted] = summaries.try_emplace(s.protocol);
        if (inserted)
            order.push_back(s.protocol);
        ProtocolSummary &ps = it->second;
        switch (s.outcome) {
          case Outcome::Completed: ++ps.completed; break;
          case Outcome::Rejected: ++ps.rejected; break;
          case Outcome::KeyMismatch: ++ps.keyMismatch; break;
          case Outcome::Aborted: ++ps.aborted; break;
          case Outcome::InFlight: ++ps.inFlight; break;
        }

        w.beginObject();
        w.member("id", row.id);
        if (row.shard >= 0)
            w.member("shard", static_cast<std::uint64_t>(row.shard));
        w.member("engine", s.engine);
        w.member("protocol", s.protocol);
        w.member("ctx", static_cast<std::uint64_t>(s.ctx));
        w.member("via_kernel", s.viaKernel);
        w.member("remote", s.remote);
        w.member("size", s.size);
        w.member("outcome", toString(s.outcome));
        w.key("ticks");
        w.beginObject();
        w.member("first_access", s.firstAccess);
        // Emitted only for IOMMU-translated spans, so documents from
        // non-IOMMU runs are byte-identical to the pre-IOMMU schema.
        if (s.translated)
            w.member("translated", s.translated);
        w.member("recognized", s.recognized);
        w.member("queued", s.queued);
        w.member("bus_start", s.busStart);
        w.member("bus_end", s.busEnd);
        w.member("completed", s.completed);
        w.endObject();
        if (s.outcome == Outcome::Completed) {
            const Phases p = phasesOf(s);
            ps.initiation.push_back(p.initiation);
            if (s.translated)
                ps.translation.push_back(p.translation);
            ps.queue.push_back(p.queue);
            ps.bus.push_back(p.bus);
            ps.delivery.push_back(p.delivery);
            ps.total.push_back(p.total);

            w.key("phases_us");
            w.beginObject();
            w.member("initiation", p.initiation);
            if (s.translated)
                w.member("translation", p.translation);
            w.member("queue", p.queue);
            w.member("bus", p.bus);
            w.member("delivery", p.delivery);
            w.member("total", p.total);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();

    w.key("summary");
    w.beginObject();
    w.key("protocols");
    w.beginArray();
    for (const std::string &protocol : order) {
        ProtocolSummary &ps = summaries.at(protocol);
        w.beginObject();
        w.member("protocol", protocol);
        w.member("completed", ps.completed);
        w.member("rejected", ps.rejected);
        w.member("key_mismatch", ps.keyMismatch);
        w.member("aborted", ps.aborted);
        w.member("in_flight", ps.inFlight);
        w.key("end_to_end_us");
        writeQuantiles(w, ps.total);
        w.key("phases_us");
        w.beginObject();
        w.key("initiation");
        writeQuantiles(w, ps.initiation);
        if (!ps.translation.empty()) {
            w.key("translation");
            writeQuantiles(w, ps.translation);
        }
        w.key("queue");
        writeQuantiles(w, ps.queue);
        w.key("bus");
        writeQuantiles(w, ps.bus);
        w.key("delivery");
        writeQuantiles(w, ps.delivery);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.endObject();
    os << '\n';
}

} // namespace

void
Tracker::exportJson(std::ostream &os, bool pretty) const
{
    std::vector<Row> rows;
    rows.reserve(spans_.size());
    for (const Span &s : spans_)
        rows.push_back({&s, s.id, -1});
    writeSpansDocument(os, pretty, rows, opened_);
}

void
exportMergedSpansJson(std::ostream &os,
                      const std::vector<ShardSpans> &shards, bool pretty)
{
    // Renumber ids sequentially in (shard, capture) order so the
    // merged document never depends on per-shard id sequences.
    std::size_t total = 0;
    for (const ShardSpans &shard : shards)
        total += shard.spans.size();
    std::vector<Row> rows;
    rows.reserve(total);
    std::uint64_t opened = 0;
    SpanId next = 1;
    for (const ShardSpans &shard : shards) {
        opened += shard.opened;
        for (const Span &s : shard.spans)
            rows.push_back({&s, next++, static_cast<int>(shard.shard)});
    }
    writeSpansDocument(os, pretty, rows, opened);
}

Tracker &
tracker()
{
    static thread_local Tracker instance;
    return instance;
}

} // namespace uldma::span
